"""The benchmark's tracer must find every package function it wraps, and
the benchmark's self-test must pass.

``perfbench/tracer.py`` wraps package functions at the module bindings
where their callers look them up.  A binding that a refactor removes or
renames drops the metrics that read it, so a traced benchmark run would
report fewer per-layer metrics than it declares.  This test installs the
tracer in a fresh process (it rebinds module attributes, so it must not
run inside the test process), runs one small config of every task kind
the benchmark uses, and requires every binding and every metric.  The
same traced runs guard the payoff kernels: solving, checking and the
n-player tasks of the bank run make no scalar payoff call and build no
``GridMeasure``.  The self-test runs ``perfbench/selftest.py``
as a user would, from the root of the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import mfgtiming
from tracer import METRICS, Tracer

configs, out = json.loads(sys.argv[1]), sys.argv[2]
tracer = Tracer(mfgtiming, configs[0]["task"]["kind"])
tracer.install()
for config in configs:
    mfgtiming.validate_config(config)
    record = mfgtiming.run(config)
    mfgtiming.write_output(record, out, "json")
    mfgtiming.payload_bytes(record)
metrics = tracer.metrics()
print(json.dumps({"missing": tracer.missing,
                  "absent": sorted(set(METRICS) - set(metrics)),
                  "metrics": metrics}))
"""


def config(task, info="public"):
    return {
        "lattice": {"steps": 3, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0},
        "payoff": {"kind": "bankrun", "rbar": 0.1, "r": 0.0, "d0": 1.0,
                   "liquidation": {"preset": "linear", "a": 0.5, "c": 0.0}},
        "info": {"kind": info, "sigma": 1.0} if info == "signal" else {"kind": info},
        "seed": 5,
        "task": task,
    }


def traced(configs, tmp_path) -> dict:
    """Run the configs in one traced process; its last line, parsed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(configs), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_finds_every_binding_and_metric(tmp_path):
    got = traced([
        config({"kind": "solve-mfe"}),
        config({"kind": "check", "trials": 5, "submartingale_pairs": 1}),
        config({"kind": "eps-nash", "n_list": [2, 4], "method": "exact"}, "signal"),
        config({"kind": "eps-nash", "n_list": [2], "method": "monte-carlo",
                "samples": 20}),
        config({"kind": "converge", "n_list": [2, 4], "samples": 20}, "signal"),
    ], tmp_path)
    assert got["missing"] == []
    assert got["absent"] == []


def test_bankrun_tasks_run_on_the_payoff_kernels(tmp_path):
    """Stop rewards, ``evaluate_J`` and every n-player crowd (exact,
    sampled, and the Monte Carlo profile value) reach the bank run's
    layer kernel, never its scalar ``evaluate``."""
    got = traced([
        config({"kind": "solve-mfe"}),
        config({"kind": "check", "trials": 5, "submartingale_pairs": 1}),
        config({"kind": "eps-nash", "n_list": [2, 4], "method": "exact"}, "signal"),
        config({"kind": "eps-nash", "n_list": [2, 4], "method": "monte-carlo",
                "samples": 20}, "signal"),
        config({"kind": "converge", "n_list": [2, 4], "samples": 20}, "signal"),
    ], tmp_path)
    assert got["missing"] == []
    assert got["metrics"]["payoffs.evaluations"] == 0
    assert got["metrics"]["lattice.grid_measures"] == 0
    assert got["metrics"]["payoffs.evaluate_J_calls"] > 0
    assert got["metrics"]["expect.stop_rewards_calls"] > 0


def test_benchmark_selftest_passes():
    """The output checks still reject corrupted outputs and the tracer
    still names a missing binding (``perfbench/selftest.py``)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
