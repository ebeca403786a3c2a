"""Run sets of benchmark runs and summarise them.

    python3 perfbench/report.py [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per (workload, seed) for every workload of
``spec.WORKLOADS``, one run at a time, from the current directory (the
root of a checkout), and prints, per workload and metric, the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread: the
distance between the quartiles as a share of the median.  This is the
one command that runs all four workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    units = {n: u for n, u in spec.PER_LAYER} if args.trace else \
        {n: u for n, u, _, _ in spec.END_TO_END}
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    runs = []
    for workload in spec.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    for workload in spec.WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs, "
              f"failed {sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}")
        for name, unit in units.items():
            vals = [r["metrics"][name]["value"] for r in mine if name in r["metrics"]]
            if not vals:
                continue
            s = summary(vals)
            bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:32s} {s['median']:14.6g} {unit:6s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
