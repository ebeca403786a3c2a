"""Payoff layer kernels against the scalar adapter.

A payoff with ``evaluate_layer`` gets its values a layer at a time; one
without goes through the scalar adapter, one ``evaluate`` call per atom.
The adapter is the oracle: stop rewards and ``evaluate_J`` must come out
bit for bit the same with the kernel as with ``evaluate_layer=None``, on
every tree kind, on conditional laws and on non-dyadic adapted measures.
The n-player field payoffs always have a kernel; their oracle is the
field built on the inner payoff's scalar adapter.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfgtiming as m
from mfgtiming._expect import stop_reward_layers
from mfgtiming.nplayer import _exact_crowd, _field_payoff


def random_adapted_measure(lat, rng):
    """An adapted measure with non-dyadic CDFs: the running maximum of a
    squared uniform drawn per prefix.  Squares carry full-precision
    mantissas in every binade, so the CDF's differences are not always
    exact and summing them back can miss the CDF in the last bit."""
    ids = lat.path_ids
    cdf = np.empty((lat.num_paths, lat.steps + 1))
    prev = np.zeros(lat.num_paths)
    for k in range(lat.steps + 1):
        prev = np.maximum(prev, (rng.random(1 << k) ** 2)[ids & ((1 << k) - 1)])
        cdf[:, k] = prev
    cdf[:, -1] = 1.0
    return m.AdaptedMeasure(lat, cdf)


def test_grid_measure_rows_are_the_stored_cdf_rows():
    """The adapter's crowd on common path b is row b of ``mu.cdf`` exactly,
    the row a kernel reads, also when the CDF is not dyadic."""
    lat = m.build_lattice(6, 0.5, 3.0, 1.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        mu = random_adapted_measure(lat, rng)
        for b in range(lat.num_paths):
            gm = m.GridMeasure.from_cdf(mu.cdf[b])
            assert np.array_equal(gm.cdf, mu.cdf[b])
            assert np.array_equal(gm.mass, np.diff(mu.cdf[b], prepend=0.0))


def test_grid_measure_from_cdf_validates_its_mass():
    with pytest.raises(ValueError, match="nonnegative"):
        m.GridMeasure.from_cdf(np.array([0.5, 0.25, 1.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        m.GridMeasure.from_cdf(np.array([0.25, 0.5, 0.75]))


def spot_times_noise(lat):
    """A user payoff with a kernel that reads the idiosyncratic path and
    the crowd at the date, declared as reading whole paths, so that both
    suffix enumerations and the per-joint-path ``evaluate_J`` run."""
    bv, wv = lat.b_values, lat.w_values
    return m.PayoffSpec(
        lambda b, w, mm, k: b[k] * w[k] - mm.cdf[k],
        m.MeasureMode.GENERAL, m.PathMode.FULL_PATH, bound=100.0,
        w_dependent=True, label="spot_times_noise",
        evaluate_layer=lambda k, b_ids, w_ids, cdf: bv[b_ids, k] * wv[w_ids, k]
        - cdf[b_ids, k])


def make_payoffs(kind, lat, mu, params):
    """The payoff of ``kind`` and its oracle on the scalar adapter."""
    if not kind.startswith("field-"):
        payoff = make_payoff(kind, lat, params)
        return payoff, dataclasses.replace(payoff, evaluate_layer=None)
    inner, n = kind[len("field-"):].split(":")
    inner = make_payoff(inner, lat, params)
    return tuple(_field_payoff(p, int(n), lat, _exact_crowd(p, int(n), mu))
                 for p in (inner, dataclasses.replace(inner, evaluate_layer=None)))


def make_payoff(kind, lat, params):
    rbar, r, d0, a, c = params
    bankrun = m.BankRunParams(rbar=rbar, r=r, d0=d0,
                              liquidation=lambda x: max(a * x + c, 0.0))
    if kind == "bankrun":
        return m.bankrun_payoff(bankrun, lat)
    if kind == "bankrun-closed":
        return m.bankrun_payoff(bankrun, lat, closed_interval=True)
    if kind == "crowd_fraction":
        return m.crowd_fraction_payoff(lat)
    if kind == "constant":
        return m.constant_payoff(d0, lat)
    if kind == "spot_times_noise":
        return spot_times_noise(lat)
    return m.crowd_discount_payoff(m.CrowdDiscountParams(r=rbar, c=d0), lat)


def make_tree(kind, lat):
    if kind == "public":
        return m.public_tree(lat)
    if kind == "full":
        return m.full_tree(lat)
    return m.build_signal_tree(lat, m.SignalModel(float(kind.split(":")[1])))


PAYOFFS = ["bankrun", "bankrun-closed", "crowd_fraction", "constant", "spot_times_noise",
           "field-bankrun:1", "field-bankrun:2", "field-bankrun:5", "field-bankrun:300",
           "field-crowd_fraction:5", "field-crowd_fraction:300",
           "field-crowd_discount:2", "field-crowd_discount:4"]
TREES = ["public", "full", "signal:0.5", "signal:1.0"]


def _grid(lo, hi, step):
    n = round((hi - lo) / step)
    return st.integers(0, n).map(lambda i: round(lo + i * step, 6))


@st.composite
def cases(draw):
    steps = draw(st.integers(1, 5))
    lat = m.build_lattice(steps, draw(_grid(0.25, 1.0, 0.25)), draw(_grid(0.5, 4.0, 0.5)),
                          draw(_grid(0.5, 2.0, 0.5)), draw(_grid(0.5, 2.0, 0.5)))
    tree = make_tree(draw(st.sampled_from(TREES)), lat)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        mu = m.conditional_law(m.random_rule(tree, rng, p_stop=float(rng.uniform(0.1, 0.6))))
    else:
        mu = random_adapted_measure(lat, rng)
    r = draw(_grid(0.0, 0.2, 0.05))
    params = (r + draw(_grid(0.01, 0.3, 0.01)), r, draw(_grid(0.5, 2.0, 0.25)),
              draw(_grid(0.1, 1.0, 0.1)), draw(_grid(-1.0, 0.5, 0.25)))
    payoff, scalar = make_payoffs(draw(st.sampled_from(PAYOFFS)), lat, mu, params)
    rule = m.random_rule(tree, rng, p_stop=float(rng.uniform(0.1, 0.6)))
    return payoff, scalar, mu, tree, rule


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_kernel_equals_scalar_adapter(case):
    payoff, scalar, mu, tree, rule = case
    assert payoff.evaluate_layer is not None
    fast = stop_reward_layers(payoff, mu, tree)
    slow = stop_reward_layers(scalar, mu, tree)
    assert all(np.array_equal(f, s) for f, s in zip(fast, slow))
    lat = tree.lat
    assert m.evaluate_J(payoff, mu, rule, lat) == m.evaluate_J(scalar, mu, rule, lat)


def test_field_payoff_without_inner_kernel_uses_the_adapter():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]) - mm.mass_before(k),
                        m.MeasureMode.CDF_AT_T, m.PathMode.SPOT_AT_T,
                        bound=10.0, w_dependent=False)
    law = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 1))
    assert _field_payoff(spot, 4, lat, _exact_crowd(spot, 4, law)).evaluate_layer is not None


def test_payoff_needs_evaluate_or_kernel():
    m.PayoffSpec(None, m.MeasureMode.CDF_AT_T, m.PathMode.SPOT_AT_T, bound=1.0,
                 evaluate_layer=lambda k, b_ids, w_ids, cdf: np.zeros(len(b_ids)))
    with pytest.raises(ValueError, match="evaluate or evaluate_layer"):
        m.PayoffSpec(None, m.MeasureMode.CDF_AT_T, m.PathMode.SPOT_AT_T, bound=1.0)
