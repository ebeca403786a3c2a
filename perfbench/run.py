"""End-to-end and per-layer benchmark of the mfgtiming CLI tasks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from
``src/``.  Each round runs every config of the workload once, each in a
fresh Python process (``child.py``), one process at a time, as a user
runs the CLI.  Rounds repeat while another one fits in ``--seconds``;
the figures are medians over rounds of per-round sums (the maximum for
memory).  After each process the output is checked against the
reference model in ``checks.py``, outside the timed window.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``spec.END_TO_END``; with
``--trace 1`` the processes run traced, the metrics are the
per-layer ones of ``spec.PER_LAYER``, and the traced ``total_s`` and
``task_s`` and the time no wrapped function covers go to standard error.
A round in which a process did not run to its end gives no figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
from checks import check
from reference import CheckFailed

HERE = Path(__file__).resolve().parent
WALL_TIME_KEY = b'\n  "wall_time_s": '
CHILD_TIMEOUT_S = 150
ROUND_SHOWN = ("setup_s", "task_s", "total_s", "trace.total_s", "trace.task_s")
# traced runs print these on standard error, to measure the tracing overhead;
# they describe the tracer, not a layer of the package
TRACE_SHOWN = ("trace.total_s", "trace.task_s", "trace.unattributed_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users rerun with cached bytecode
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int, int]:
    """Run one process to its end: (clock at spawn, seconds from spawn to
    exit, exit code, peak resident kB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, elapsed, proc.returncode, usage.ru_maxrss


def import_times(stderr_path: Path) -> dict:
    """Import seconds of the package and of scipy, from ``-X importtime``.

    ``from scipy import stats`` loads the submodules lazily, so no line
    names ``scipy.stats`` itself: the scipy cost is the sum over the
    outermost lines that name a scipy module.
    """
    total, scipy = None, {}
    for line in stderr_path.read_text().splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, field = line.split("|")
        name = field.strip()
        if name == "mfgtiming":
            total = int(cumulative) / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            depth = len(field) - len(field.lstrip())
            scipy.setdefault(depth, []).append(int(cumulative) / 1e6)
    return {"import.total_s": total,
            "import.scipy_stats_s": sum(scipy[min(scipy)]) if scipy else None}


def result_digest(out: bytes) -> str:
    """Digest of an emitted result without its ``wall_time_s`` line, the
    last top-level key of the sorted document."""
    start = out.rfind(WALL_TIME_KEY)
    if start >= 0:
        out = out[:start] + out[out.index(b"\n", start + 1):]
    return hashlib.sha256(out).hexdigest()


def run_config(label: str, config: dict, work: Path, env: dict, trace: bool,
               with_payload: bool) -> dict:
    """One timed process and the check of its output."""
    cfg, out, timings, trace_out, err = (work / f"{label}.{ext}" for ext in
                                         ("config.json", "out.json", "timings.json",
                                          "trace.json", "stderr.txt"))
    for path in (out, timings, trace_out):
        path.unlink(missing_ok=True)
    cfg.write_text(json.dumps(config))
    argv = [sys.executable] + (["-X", "importtime"] if trace else [])
    argv += [str(HERE / "child.py"), str(cfg), str(out), str(timings),
             "1" if with_payload else "0"]
    argv += [str(trace_out)] if trace else []
    start, elapsed, code, rss_kb = spawn(argv, env, err)
    row = {"label": label, "error": None}
    if code != 0:
        tail = err.read_text().strip().splitlines()[-1:] or ["no output"]
        row["error"] = f"exit code {code}: {tail[0]}"
        return row
    t = json.loads(timings.read_text())
    emitted = out.read_bytes()
    row.update(
        setup_s=t["ready"] - start,
        task_s=t["ran"] - t["ready"],
        # the benchmark's own payload_bytes call is not part of the user's wait
        total_s=elapsed - (t["measured"] - t["written"]),
        payload_bytes=t["payload_bytes"],
        digest=result_digest(emitted),
        peak_rss_mb=rss_kb / 1024.0,
    )
    try:
        check(config, json.loads(emitted))
    except CheckFailed as e:
        row["error"] = f"check failed: {e}"
    if trace:
        traced = json.loads(trace_out.read_text())
        row["layers"] = dict(traced["metrics"], **import_times(err))
        row["layers"]["trace.total_s"] = row["total_s"]
        row["missing"] = traced["missing"]
    return row


def round_metrics(rows: list[dict], trace: bool) -> dict:
    """Per-round sums over the configs (the maximum for memory), or {} when
    a process of the round did not run to its end: a round with a crashed
    config would otherwise read as a faster one.  A process whose output
    only fails a check did run to its end, so its time counts."""
    if any("setup_s" not in r for r in rows):
        return {}
    if trace:
        out = {}
        for name in [n for n, _ in spec.PER_LAYER] + list(TRACE_SHOWN):
            vals = [r["layers"].get(name) for r in rows]
            if all(v is not None for v in vals):
                out[name] = sum(vals)
        return out
    out = {name: sum(r[name] for r in rows) for name in ("setup_s", "task_s", "total_s")}
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rows)
    if all(r["payload_bytes"] is not None for r in rows):
        out["payload_bytes"] = sum(r["payload_bytes"] for r in rows)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mfgtiming" / "__init__.py").is_file():
        print(f"error: no package at {src / 'mfgtiming'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    configs = spec.WORKLOADS[args.workload][1](args.seed)
    env = child_env(src)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    rounds, errors, missing = [], {}, set()
    digests: dict[str, set] = {}
    outcomes: dict[str, set] = {}
    try:
        # untimed: warms the page cache and the bytecode cache, as for a user
        # who reruns the CLI
        code = subprocess.call([sys.executable, "-c", "import mfgtiming"], env=env)
        if code != 0:
            print("error: the package does not import", file=sys.stderr)
            return 1
        begin = time.perf_counter()
        while True:
            # payload_bytes is deterministic and costs as much as the emit, so
            # untraced runs measure it in the first round only
            with_payload = trace or not rounds
            rows = [run_config(label, cfg, work, env, trace, with_payload)
                    for label, cfg in configs]
            rounds.append(rows)
            for r in rows:
                outcomes.setdefault(r["label"], set()).add(r["error"])
                if "digest" in r:
                    digests.setdefault(r["label"], set()).add(r["digest"])
                if r["error"] is not None:
                    errors[r["label"]] = r["error"]
                missing.update(r.get("missing", ()))
            figures = round_metrics(rows, trace)
            print(f"round {len(rounds)}: " + " ".join(
                f"{k}={v:.6g}" for k, v in figures.items() if k in ROUND_SHOWN),
                file=sys.stderr)
            spent = time.perf_counter() - begin
            if spent + spent / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, err in sorted(errors.items()):
        print(f"failed: {args.workload}/{label}: {err}", file=sys.stderr)
    for name in sorted(missing):
        print(f"missing: {name} is not in the package; its metrics are left out",
              file=sys.stderr)
    complete = [m for m in (round_metrics(rows, trace) for rows in rounds) if m]
    if len(complete) < len(rounds):
        print(f"{len(rounds) - len(complete)} round(s) with a process that did not run "
              f"to its end are left out of the figures", file=sys.stderr)
    metrics = {}
    units = {n: u for n, u in spec.PER_LAYER} if trace else \
        {n: u for n, u, _, _ in spec.END_TO_END}
    for name, unit in units.items():
        vals = [m[name] for m in complete if name in m]
        if vals and (len(vals) == len(complete) or name == "payload_bytes"):
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    if trace and complete:
        print("tracing overhead, medians over rounds: " + " ".join(
            f"{name}={statistics.median(m[name] for m in complete):.6g}"
            for name in TRACE_SHOWN if all(name in m for m in complete)), file=sys.stderr)
    attempted = sum(len(rows) for rows in rounds)
    failed = sum(r["error"] is not None for rows in rounds for r in rows)
    # a config must give the same payload and the same check outcome every round
    correct = (all(len(d) == 1 for d in digests.values())
               and all(len(o) == 1 for o in outcomes.values()))
    print(f"{args.workload}: {len(rounds)} round(s), seed {args.seed}, "
          f"trace {args.trace}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
