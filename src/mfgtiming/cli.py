"""Command-line entry point.

Each subcommand names a task; the config file supplies everything else,
with ``--seed`` and ``--out`` as overrides.  Exit codes: 0 success,
2 invalid configuration, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ConfigError, emit, run, write_output

TASKS = ("solve-mfe", "check", "eps-nash", "converge", "bankrun-demo")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgtiming",
        description="Mean field games of timing on a finite lattice.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="override the output path")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="override the output format")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2

    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    # overrides merge into objects only; validation names any other value
    task_cfg = config.get("task", {})
    if isinstance(task_cfg, dict):
        task_cfg = dict(task_cfg)
        task_cfg.setdefault("kind", args.task)
        if task_cfg["kind"] != args.task:
            print(f"error: $.task.kind: config says {task_cfg['kind']!r} but "
                  f"subcommand is {args.task!r}", file=sys.stderr)
            return 2
        config["task"] = task_cfg
    if args.seed is not None:
        config["seed"] = args.seed

    out_cfg = config.get("output", {})
    if isinstance(out_cfg, dict):
        out_cfg = dict(out_cfg)
        if args.out is not None:
            out_cfg["path"] = args.out
        if args.format is not None:
            out_cfg["format"] = args.format
        if out_cfg:
            config["output"] = out_cfg

    try:
        record = run(config)
    except ConfigError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - report and signal runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    fmt = out_cfg.get("format", "json")
    path = out_cfg.get("path")
    if path:
        try:
            write_output(record, path, fmt)
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 1
        print(f"wrote {path} ({fmt}, {record.wall_time_s:.2f}s)")
    else:
        sys.stdout.write(emit(record, fmt).decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
