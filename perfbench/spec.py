"""Workloads and metrics of the benchmark; ``python3 perfbench/spec.py``
writes ``BENCHMARK.json`` from them.

Every workload plays the same bank-run game unless stated: ``rbar``
0.1, ``r`` 0, liquidation ``0.5x``, ``d0`` 1, ``b0`` 3, ``db = dw = 1``,
``dt`` 0.5.  The workload seed goes into each config's ``seed``.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

BANKRUN = {"kind": "bankrun", "rbar": 0.1, "r": 0.0, "d0": 1.0,
           "liquidation": {"preset": "linear", "a": 0.5, "c": 0.0}}
PUBLIC = {"kind": "public"}
SIGNAL = {"kind": "signal", "sigma": 1.0}


def make_config(steps: int, info: dict, task: dict, seed: int,
                payoff: dict = BANKRUN) -> dict:
    return {"lattice": {"steps": steps, "dt": 0.5, "b0": 3.0, "db": 1.0, "dw": 1.0},
            "payoff": payoff, "info": info, "seed": seed, "task": task}


def _solve_public_k14(seed):
    return [("solve-mfe", make_config(14, PUBLIC, {"kind": "solve-mfe"}, seed))]


def _solve_signal_k8(seed):
    return [("solve-mfe", make_config(8, SIGNAL, {"kind": "solve-mfe"}, seed))]


def _nplayer_k6(seed):
    return [
        ("eps-nash-exact", make_config(6, SIGNAL, {"kind": "eps-nash", "n_list": [4, 16, 64],
                                                   "method": "exact"}, seed)),
        ("eps-nash-mc", make_config(6, PUBLIC, {"kind": "eps-nash", "n_list": [4, 16],
                                                "method": "monte-carlo", "samples": 200},
                                    seed)),
        # on the public tree the rule ignores W, every empirical law equals its
        # limit and every distance is 0, so the experiment runs on the signal tree
        ("converge", make_config(6, SIGNAL, {"kind": "converge", "n_list": [4, 16, 64, 256],
                                             "samples": 2000}, seed)),
    ]


def _check_k8(seed):
    return [
        ("check-bankrun", make_config(8, PUBLIC, {"kind": "check", "trials": 200,
                                                  "submartingale_pairs": 2}, seed)),
        ("check-crowd-fraction", make_config(8, PUBLIC, {"kind": "check", "trials": 100},
                                             seed, payoff={"kind": "crowd_fraction"})),
    ]


# name -> (why, configs(seed) -> [(label, config)])
WORKLOADS = {
    "solve-public-k14": (
        "largest public lattice: 32,767-node Snell solves and a 30 MB payload, so the "
        "payoff kernel, evaluate_J and emit carry it",
        _solve_public_k14),
    "solve-signal-k8": (
        "noisy-signal filtration: 8.9 posterior atoms per node, so atoms and the "
        "per-atom kernel dominate and emit is negligible",
        _solve_signal_k8),
    "nplayer-k6": (
        "the only workload through nplayer and _rng; small solves in three processes, "
        "so set-up is a large share",
        _nplayer_k6),
    "check-k8": (
        "complementarity checkers: evaluate_J on random rule pairs and full-tree stop "
        "rewards, with no Snell iteration",
        _check_k8),
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("task_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("payload_bytes", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("import.total_s", "s"), ("import.scipy_stats_s", "s"),
    ("experiments.validate_s", "s"), ("experiments.build_s", "s"),
    ("experiments.payload_s", "s"), ("experiments.emit_s", "s"),
    ("mfe.solve_mfe_s", "s"), ("mfe.best_responses", "count"),
    ("mfe.verify_s", "s"), ("mfe.verify_calls", "count"),
    ("snell.solve_calls", "count"), ("snell.distinct_laws", "count"), ("snell.self_s", "s"),
    ("expect.stop_rewards_s", "s"), ("expect.stop_rewards_calls", "count"),
    ("expect.layer_atoms_s", "s"), ("expect.atoms", "count"),
    ("payoffs.evaluations", "count"), ("payoffs.evaluate_J_s", "s"),
    ("payoffs.evaluate_J_calls", "count"), ("payoffs.check_id_s", "s"),
    ("payoffs.id_trials", "count"), ("payoffs.check_submartingale_s", "s"),
    ("payoffs.sample_measures_s", "s"),
    ("trees.nodes", "count"), ("trees.conditional_law_s", "s"),
    ("trees.conditional_law_calls", "count"), ("trees.stop_steps_s", "s"),
    ("trees.rules_built", "count"),
    ("lattice.grid_measures", "count"), ("lattice.adapted_measures", "count"),
    ("lattice.adapted_measure_s", "s"),
    ("nplayer.mfe_rule_s", "s"), ("nplayer.exact_s", "s"), ("nplayer.mc_s", "s"),
    ("nplayer.converge_s", "s"), ("rng.streams", "count"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


if __name__ == "__main__":
    Path("BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
