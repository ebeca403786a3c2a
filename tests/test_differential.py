"""The engine against the independent numpy model of ``perfbench/``.

Small random bank-run and crowd-fraction configs go through ``run()`` and
``emit``, and ``perfbench/checks.check`` recomputes the equilibrium, the
values and the n-player crowd from the emitted rules without importing
the package.  Hypothesis draws the configs deterministically.
"""

import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfgtiming as m

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import check  # noqa: E402


def _grid(lo, hi, step):
    """Decimal values lo, lo+step, ..., hi, as a user would write them."""
    n = round((hi - lo) / step)
    return st.integers(0, n).map(lambda i: round(lo + i * step, 6))


@st.composite
def configs(draw):
    task = draw(st.sampled_from(["solve-mfe", "eps-nash"]))
    if task == "eps-nash" and draw(st.booleans()):
        payoff = {"kind": "crowd_fraction"}
    else:
        r = draw(_grid(0.0, 0.2, 0.05))
        payoff = {"kind": "bankrun", "r": r,
                  "rbar": round(r + draw(_grid(0.01, 0.3, 0.01)), 6),
                  "d0": draw(_grid(0.5, 2.0, 0.25)),
                  "liquidation": {"preset": "linear", "a": draw(_grid(0.1, 1.0, 0.1)),
                                  "c": draw(_grid(-0.5, 0.5, 0.25))}}
    if draw(st.booleans()):
        info = {"kind": "public"}
    else:
        info = {"kind": "signal", "sigma": draw(st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0]))}
    spec = {"kind": task}
    if task == "eps-nash":
        ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
        spec.update(n_list=sorted(ns), method="exact")
    return {"lattice": {"steps": draw(st.integers(1, 6)), "dt": draw(_grid(0.25, 1.0, 0.25)),
                        "b0": draw(_grid(0.5, 4.0, 0.5)), "db": draw(_grid(0.5, 2.0, 0.5)),
                        "dw": draw(_grid(0.5, 2.0, 0.5))},
            "payoff": payoff, "info": info, "seed": draw(st.integers(0, 1000)),
            "task": spec}


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_engine_agrees_with_reference_model(config):
    doc = json.loads(m.emit(m.run(config)))
    check(config, doc)
