"""Self-test of the output checks and of the tracer.

    python3 perfbench/selftest.py

Run from the root of a checkout.  On small configs the checks must pass
on the program's real output and reject corrupted copies of it: a
flipped stop decision that changes the rule, values perturbed by 1e-6,
a Monte Carlo value moved by ten standard errors, rising distances and
a removed violation.  The tracer must name a missing binding and leave
out its metrics.  Exits 1 on the first unexpected outcome.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import mfgtiming  # noqa: E402

import spec  # noqa: E402
from checks import check  # noqa: E402
from reference import CheckFailed, Game  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 20260810


def small(steps, info, task, payoff=spec.BANKRUN):
    return spec.make_config(steps, info, task, SEED, payoff)


def output(config: dict) -> dict:
    return json.loads(mfgtiming.emit(mfgtiming.run(copy.deepcopy(config))))


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def passes(config, doc, what):
    try:
        check(config, doc)
    except CheckFailed as e:
        expect(False, f"{what}: {e}")
    expect(True, f"{what} passes")


def rejects(config, doc, what):
    try:
        check(config, doc)
    except CheckFailed as e:
        expect(True, f"{what} is rejected ({e})")
        return
    expect(False, f"{what} is accepted")


def flip_changing_rule(game: Game, rule: dict) -> dict:
    """Flip the deepest stop decision whose flip changes some stop date."""
    raw = np.frombuffer(bytes.fromhex(rule["decisions_hex"]), dtype=np.uint8)
    bits = np.unpackbits(raw)
    before = game.decode(rule)
    for node in reversed(range(game.num_nodes)):
        flipped = bits.copy()
        flipped[node] ^= 1
        out = dict(rule, decisions_hex=np.packbits(flipped).tobytes().hex())
        if not np.array_equal(game.decode(out), before):
            return out
    raise RuntimeError("no decision changes the rule")


def main() -> int:
    for steps, info in ((5, spec.PUBLIC), (3, spec.SIGNAL)):
        cfg = small(steps, info, {"kind": "solve-mfe"})
        doc = output(cfg)
        what = f"solve-mfe {info['kind']} K={steps}"
        passes(cfg, doc, what)
        bad = copy.deepcopy(doc)
        top = bad["result"]["top"]
        top["rule"] = flip_changing_rule(Game(cfg), top["rule"])
        rejects(cfg, bad, f"{what} with a flipped stop decision")
        bad = copy.deepcopy(doc)
        bad["result"]["value_max"] += 1e-6
        rejects(cfg, bad, f"{what} with value_max + 1e-6")

    cfg = small(3, spec.SIGNAL, {"kind": "eps-nash", "n_list": [2, 4], "method": "exact"})
    doc = output(cfg)
    passes(cfg, doc, "eps-nash exact")
    for field in ("eq_value", "best_dev_value"):
        bad = copy.deepcopy(doc)
        row = bad["result"]["reports"][1]
        row[field] += 1e-6
        row["epsilon"] = max(0.0, row["best_dev_value"] - row["eq_value"])
        rejects(cfg, bad, f"eps-nash exact with {field} + 1e-6")

    cfg = small(4, spec.PUBLIC, {"kind": "eps-nash", "n_list": [4], "method": "monte-carlo",
                                 "samples": 200})
    doc = output(cfg)
    passes(cfg, doc, "eps-nash monte-carlo")
    bad = copy.deepcopy(doc)
    row = bad["result"]["reports"][0]
    row["eq_value"] += 10 * row["stderr"]
    row["epsilon"] = max(0.0, row["best_dev_value"] - row["eq_value"])
    rejects(cfg, bad, "eps-nash monte-carlo with eq_value + 10 stderr")

    cfg = small(4, spec.SIGNAL, {"kind": "converge", "n_list": [4, 16, 64, 256],
                                 "samples": 500})
    doc = output(cfg)
    passes(cfg, doc, "converge")
    bad = copy.deepcopy(doc)
    rows = bad["result"]["rows"]
    for row, d in zip(rows, reversed([r["mean_kolmogorov_distance"] for r in rows])):
        row["mean_kolmogorov_distance"] = d
    rejects(cfg, bad, "converge with rising distances")

    cfg = small(3, spec.SIGNAL, {"kind": "check", "trials": 50},
                payoff={"kind": "crowd_fraction"})
    doc = output(cfg)
    passes(cfg, doc, "check crowd_fraction on the signal tree")
    bad = copy.deepcopy(doc)
    rep = bad["result"]["increasing_differences"]
    del rep["violation"]
    rep.update(passed=True, trials=50)
    rejects(cfg, bad, "check crowd_fraction with the violation removed")
    bad = copy.deepcopy(doc)
    bad["result"]["increasing_differences"]["violation"]["lhs"] += 1e-6
    rejects(cfg, bad, "check crowd_fraction with the violation's lhs + 1e-6")

    cfg = small(4, spec.PUBLIC, {"kind": "check", "trials": 20, "submartingale_pairs": 2})
    doc = output(cfg)
    passes(cfg, doc, "check bankrun")
    bad = copy.deepcopy(doc)
    bad["result"]["increasing_differences"]["trials"] = 19
    rejects(cfg, bad, "check bankrun passing with a trial missing")

    # a missing binding is named and its metrics are left out, not zeroed
    saved = mfgtiming.nplayer.snell_solve
    del mfgtiming.nplayer.snell_solve
    try:
        tracer = Tracer(mfgtiming, "solve-mfe")
        tracer.install()
    finally:
        mfgtiming.nplayer.snell_solve = saved
    mfgtiming.run(small(3, spec.PUBLIC, {"kind": "solve-mfe"}))
    metrics = tracer.metrics()
    expect(tracer.missing == ["mfgtiming.nplayer.snell_solve"],
           f"tracer names the missing binding: {tracer.missing}")
    expect("snell.solve_calls" not in metrics and "snell.self_s" not in metrics,
           "tracer leaves out the metrics of the missing binding")
    expect(metrics.get("expect.stop_rewards_calls", 0) > 0,
           "tracer still reports the other layers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
