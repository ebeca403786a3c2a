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
``GridMeasure``.  The script counts scalar calls itself as well, by
wrapping the ``evaluate`` of every payoff that ``build_payoff`` returns,
so that guard holds whatever the tracer recognises as a payoff.  The
self-test runs ``perfbench/selftest.py`` as a user would, from the root
of the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import dataclasses, json, sys
import mfgtiming
from mfgtiming import experiments
from tracer import METRICS, Tracer

configs, out = json.loads(sys.argv[1]), sys.argv[2]
tracer = Tracer(mfgtiming, configs[0]["task"]["kind"])
tracer.install()

scalar_calls = 0
build_payoff = experiments.build_payoff

def counted(evaluate):
    def call(*args):
        global scalar_calls
        scalar_calls += 1
        return evaluate(*args)
    return call

def counted_build_payoff(*args, **kwargs):
    payoff = build_payoff(*args, **kwargs)
    if payoff.evaluate is None:
        return payoff
    return dataclasses.replace(payoff, evaluate=counted(payoff.evaluate))

experiments.build_payoff = counted_build_payoff
for config in configs:
    mfgtiming.validate_config(config)
    record = mfgtiming.run(config)
    mfgtiming.write_output(record, out, "json")
    mfgtiming.payload_bytes(record)
metrics = tracer.metrics()
print(json.dumps({"missing": tracer.missing,
                  "absent": sorted(set(METRICS) - set(metrics)),
                  "metrics": metrics, "scalar_calls": scalar_calls}))
"""


BANKRUN = {"kind": "bankrun", "rbar": 0.1, "r": 0.0, "d0": 1.0,
           "liquidation": {"preset": "linear", "a": 0.5, "c": 0.0}}
# no layer kernel: every stop reward goes through the scalar adapter
DIFFUSION = {"kind": "diffusion", "f": "identity_y", "phi": {"preset": "relu"}}


def config(task, info="public", payoff=BANKRUN):
    return {
        "lattice": {"steps": 3, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0},
        "payoff": payoff,
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
    assert got["scalar_calls"] == 0
    assert got["metrics"]["payoffs.evaluations"] == 0
    assert got["metrics"]["lattice.grid_measures"] == 0
    assert got["metrics"]["payoffs.evaluate_J_calls"] > 0
    assert got["metrics"]["expect.stop_rewards_calls"] > 0


def diffusion_configs():
    return [config({"kind": "solve-mfe"}, payoff=DIFFUSION),
            config({"kind": "eps-nash", "n_list": [2], "method": "exact"},
                   payoff=DIFFUSION)]


def test_scalar_adapter_payoff_calls_are_counted(tmp_path):
    """A payoff without a kernel reaches its scalar ``evaluate``, and the
    traced script's own count sees it, so the bank-run guard above can
    fail."""
    got = traced(diffusion_configs(), tmp_path)
    assert got["missing"] == []
    assert got["scalar_calls"] > 0
    assert got["metrics"]["lattice.grid_measures"] > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "perfbench/tracer.py recognises the built payoff by the field of the "
    "deleted measure-mode enum, which PayoffSpec no longer has, so "
    "`payoffs.evaluations` reads 0; mended by recognising it by "
    "`evaluate_layer` (ROADMAP item 5)"))
def test_tracer_counts_scalar_payoff_calls(tmp_path):
    """The tracer's ``payoffs.evaluations`` equals the scalar calls the
    script counts on a payoff without a kernel."""
    got = traced(diffusion_configs(), tmp_path)
    assert got["scalar_calls"] > 0
    assert got["metrics"]["payoffs.evaluations"] == got["scalar_calls"]


def test_benchmark_selftest_passes():
    """The output checks still reject corrupted outputs and the tracer
    still names a missing binding (``perfbench/selftest.py``)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
