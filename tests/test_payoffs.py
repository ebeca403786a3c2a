import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfgtiming as m
from mfgtiming.experiments import _make_liquidation
from mfgtiming.nplayer import _exact_crowd, _field_payoff
from mfgtiming.payoffs import liquidation_table


@pytest.fixture
def lat():
    return m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)


def half_liq(x):
    return max(0.5 * x, 0.0)


# ---------------------------------------------------------------------------
# bank run
# ---------------------------------------------------------------------------


def test_bankrun_no_prior_runners_full_claim(lat):
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    dT = m.point_mass(lat, lat.steps)
    # at t=0 nobody has run yet and L(b0) = 1.5 >= d0
    assert F.evaluate(lat.b_values[0], lat.w_values[0], dT, 0) == 1.0


def test_bankrun_exhausted_pot(lat):
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    d0_measure = m.point_mass(lat, 0)  # everyone already ran
    b_low = lat.path_id_from_values([3.0, 2.0, 1.0, 0.0])
    # L(B_t) = 0.5 <= crowd 1 at t=1: the claim is exhausted
    assert F.evaluate(lat.b_values[b_low], lat.w_values[0], d0_measure, 2) == 0.0


def test_bankrun_interior_claim(lat):
    p = m.BankRunParams(rbar=0.3, r=0.1, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    half = m.GridMeasure([0.5, 0.0, 0.0, 0.5])  # crowd 1/2 before t>0
    b_up = lat.path_id_from_values([3.0, 4.0, 5.0, 6.0])
    # claim = L(4) - 1/2 = 1.5 -> capped at d0; pick a lower path for interior
    b_id = lat.path_id_from_values([3.0, 2.0, 3.0, 4.0])
    val = F.evaluate(lat.b_values[b_id], lat.w_values[0], half, 1)
    assert val == pytest.approx(math.exp(0.2 * 0.5) * 0.5)
    val_cap = F.evaluate(lat.b_values[b_up], lat.w_values[0], half, 1)
    assert val_cap == pytest.approx(math.exp(0.2 * 0.5) * 1.0)


def test_bankrun_closed_interval_counts_the_atom(lat):
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat, closed_interval=True)
    d0_measure = m.point_mass(lat, 0)
    # the crowd at exactly t=0 now counts: claim = L(3) - 1 = 0.5
    assert F.evaluate(lat.b_values[0], lat.w_values[0], d0_measure, 0) == 0.5
    assert not F.half_open and F.past_measure_only


def test_bankrun_monotone_in_crowd(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    rng = np.random.default_rng(2)
    tree = m.full_tree(lat)
    for _ in range(10):
        early, late = m.sample_ordered_measures(tree, rng)
        for b in range(lat.num_paths):
            me, ml = m.GridMeasure.from_cdf(early.cdf[b]), m.GridMeasure.from_cdf(late.cdf[b])
            for k in range(lat.steps + 1):
                assert (F.evaluate(lat.b_values[b], lat.w_values[0], ml, k)
                        >= F.evaluate(lat.b_values[b], lat.w_values[0], me, k))


def test_bankrun_params_validation():
    with pytest.raises(ValueError):
        m.BankRunParams(rbar=0.1, r=0.1, liquidation=half_liq)
    with pytest.raises(ValueError):
        m.BankRunParams(rbar=0.2, r=0.1, liquidation=half_liq, d0=0.0)


LIQUIDATIONS = {
    "linear": _make_liquidation({"preset": "linear", "a": 0.5, "c": 0.0}),
    "sqrt": _make_liquidation({"preset": "sqrt", "a": 0.7, "c": 0.1}),
    "quadratic": lambda x: 0.3 * x * x - x / 3.0,
    "int-step": lambda x: int(x > 2.0),  # Python ints: an int64 table
    "sign": lambda x: math.copysign(1.0, x),  # tells -0.0 from 0.0
}


def b_values_liquidation_table(liq, lat):
    """The table read from the path-value table, one call of L per
    distinct value of B_k (the form before up-step counts)."""
    table = []
    for k in range(lat.steps + 1):
        values, where = np.unique(lat.b_values[:1 << k, k], return_inverse=True)
        table.append(np.array([liq(v) for v in values])[where])
    return table


@settings(max_examples=60, derandomize=True, deadline=None)
@given(steps=st.integers(1, 12),
       b0=st.one_of(st.sampled_from([3.0, 0.1, 1e17, -2.3, 1 / 3, 0.0, -0.0]),
                    st.floats(-1e6, 1e6, allow_nan=False)),
       db=st.one_of(st.sampled_from([1.0, 0.1, 0.3, 1e-3, 2 / 3]),
                    st.floats(1e-6, 1e3, allow_nan=False)),
       liq_name=st.sampled_from(sorted(LIQUIDATIONS)))
@example(steps=3, b0=-0.0, db=0.3, liq_name="sign")
@example(steps=12, b0=1e17, db=1e-3, liq_name="quadratic")  # equal B_k at every j
def test_liquidation_table_equals_path_value_form(steps, b0, db, liq_name):
    """Up-step counts give the table of the path values bit for bit,
    dtype included, with no more calls of L than one per date and
    up-step count, and the bank run builds no path-value table."""
    lat = m.build_lattice(steps, 0.5, b0, db, 1.0)
    calls = []

    def liq(x):
        calls.append(x)
        return LIQUIDATIONS[liq_name](x)

    table = liquidation_table(liq, lat)
    assert len(calls) <= (steps + 1) * (steps + 2) // 2
    m.bankrun_payoff(m.BankRunParams(0.1, 0.0, liq), lat)
    assert "b_values" not in lat.__dict__
    oracle = b_values_liquidation_table(LIQUIDATIONS[liq_name], lat)
    assert len(table) == len(oracle) == steps + 1
    for got, want in zip(table, oracle):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# crowd-discount family
# ---------------------------------------------------------------------------


def test_crowd_discount_empty_integral(lat):
    F = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=1.0), lat)
    assert F.evaluate(lat.b_values[0], lat.w_values[0], m.point_mass(lat, 3), 0) == 1.0


def test_crowd_discount_single_term():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    F = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=1.0), lat)
    b = np.zeros(3)
    w = np.zeros(3)
    val = F.evaluate(b, w, m.point_mass(lat, 2), 1)
    assert val == pytest.approx(math.exp(0.3 * 0.5))


def test_crowd_discount_two_term_product():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    r, c = 0.4, 0.7
    F = m.crowd_discount_payoff(m.CrowdDiscountParams(r=r, c=c), lat)
    d0 = m.point_mass(lat, 0)
    b_id = lat.path_id_from_values([0.0, 1.0, 2.0])
    w_id = lat.path_id_from_values([0.0, -1.0, 0.0])
    b, w = lat.b_values[b_id], lat.w_values[w_id]
    # left-endpoint sum over j in {0, 1}; the crowd mass of [0, t_j] is 1
    expect = math.exp(((r - 0.0 - 0.0 - c) + (r - 1.0 + 1.0 - c)) * 0.5)
    assert F.evaluate(b, w, d0, 2) == pytest.approx(expect)


def test_crowd_discount_overflow_clamp():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    F = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=1.0), lat)
    # feed values far below the lattice range to force a clamp at the lattice
    # maximum, exp((r + |b0| + K db + K dw) T) = exp(4.3)
    b = np.array([0.0, -80.0, -80.0])
    with pytest.warns(UserWarning, match="clamped"):
        v = F.evaluate(b, np.zeros(3), m.point_mass(lat, 2), 2)
    assert v == math.exp(4.3)


# ---------------------------------------------------------------------------
# diffusion family
# ---------------------------------------------------------------------------


def test_diffusion_zero_kernel_ignores_crowd(lat):
    F = m.diffusion_payoff(
        m.DiffusionPayoffParams(f=lambda x, y, t: x + y, phi=lambda u: 0.0), lat)
    d0, dT = m.point_mass(lat, 0), m.point_mass(lat, lat.steps)
    b = lat.b_values[5]
    for k in range(lat.steps + 1):
        assert F.evaluate(b, lat.w_values[0], d0, k) == F.evaluate(b, lat.w_values[0], dT, k) == b[k]


def test_diffusion_sifting(lat):
    phi = lambda u: math.sin(u) + 2.0
    F = m.diffusion_payoff(m.DiffusionPayoffParams(f=lambda x, y, t: y, phi=phi), lat)
    for s in range(lat.steps + 1):
        ds = m.point_mass(lat, s)
        for k in range(lat.steps + 1):
            assert F.evaluate(lat.b_values[0], lat.w_values[0], ds, k) == \
                pytest.approx(phi(float(lat.grid[k] - lat.grid[s])))


def test_diffusion_relu_convolution():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: max(u, 0.0)), lat)
    uni = m.GridMeasure([0.5, 0.5, 0.0])
    dt = lat.dt
    val = F.evaluate(lat.b_values[0], lat.w_values[0], uni, 2)
    assert val == pytest.approx((2 * dt + dt) / 2)


# ---------------------------------------------------------------------------
# what a payoff reads
# ---------------------------------------------------------------------------


def _field_over(builder):
    def build(lat):
        inner = builder(lat)
        law = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 1))
        return _field_payoff(inner, 3, lat, _exact_crowd(inner, 3, law))
    return build


def _bankrun(closed_interval=False):
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq)
    return lambda lat: m.bankrun_payoff(p, lat, closed_interval=closed_interval)


def _crowd_discount(lat):
    return m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.1, c=0.5), lat)


def _reads_everything(lat):
    return m.PayoffSpec(lambda b, w, mm, k: float(b[-1] + w[-1]) - mm.cdf[-2])


# (w_dependent, reads_full_path, past_measure_only, half_open)
@pytest.mark.parametrize("builder, flags", [
    (_bankrun(), (False, False, True, True)),
    (_bankrun(closed_interval=True), (False, False, True, False)),
    (_crowd_discount, (True, False, True, False)),
    (lambda lat: m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: 0.0), lat),
     (False, False, False, False)),
    (lambda lat: m.constant_payoff(2.0), (False, False, True, True)),
    (lambda lat: m.crowd_fraction_payoff(), (False, False, True, True)),
    (_reads_everything, (True, True, False, False)),
    # a field is past-only when its crowd is half-open (binomial, keyed by the
    # past), else its crowd is keyed by the whole common path
    (_field_over(_bankrun()), (False, False, True, True)),
    (_field_over(_bankrun(closed_interval=True)), (False, False, False, False)),
    (_field_over(_crowd_discount), (True, False, False, False)),
    (_field_over(_reads_everything), (True, True, False, False)),
], ids=["bankrun", "bankrun-closed", "crowd_discount", "diffusion", "constant",
        "crowd_fraction", "default", "field-bankrun", "field-bankrun-closed",
        "field-crowd_discount", "field-default"])
def test_payoff_flags(lat, builder, flags):
    F = builder(lat)
    assert (F.w_dependent, F.reads_full_path, F.past_measure_only, F.half_open) == flags


def test_half_open_needs_past_measure_only():
    """``half_open`` implies ``past_measure_only``, which it sets."""
    F = m.PayoffSpec(lambda b, w, mm, k: 0.0, half_open=True)
    assert F.half_open and F.past_measure_only
    assert m.PayoffSpec(lambda b, w, mm, k: 0.0, half_open=True,
                        past_measure_only=False).past_measure_only
    assert not m.PayoffSpec(lambda b, w, mm, k: 0.0).past_measure_only


def test_payoff_flags_are_keyword_only():
    """A second positional argument is refused, not read as ``w_dependent``."""
    with pytest.raises(TypeError):
        m.PayoffSpec(lambda b, w, mm, k: 0.0, 50.0)


# ---------------------------------------------------------------------------
# exact expected reward
# ---------------------------------------------------------------------------


def test_evaluate_J_constant(lat):
    tree = m.public_tree(lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 1))
    rng = np.random.default_rng(1)
    for _ in range(5):
        rule = m.random_rule(tree, rng)
        assert m.evaluate_J(m.constant_payoff(2.25), mu, rule) == 2.25


def test_evaluate_J_martingale_spot(lat):
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]),
                        w_dependent=False, reads_full_path=False, half_open=True)
    mu = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 0))
    rng = np.random.default_rng(5)
    for tree in (m.public_tree(lat), m.full_tree(lat)):
        for _ in range(5):
            rule = m.random_rule(tree, rng)
            assert m.evaluate_J(spot, mu, rule) == pytest.approx(lat.b0)


def test_evaluate_J_single_term_bankrun(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    tree = m.public_tree(lat)
    rule = m.StoppingRule.stop_at(tree, 0)
    mu = m.conditional_law(rule)
    assert m.evaluate_J(F, mu, rule) == min(1.0, half_liq(lat.b0))


def test_evaluate_J_affine_in_rule_mixture():
    # mix two common-path rules on the first idiosyncratic increment:
    # for crowd-independent payoffs J is the average of the two values
    lat = m.build_lattice(3, 0.5, 1.0, 1.0, 1.0)
    pub, ft = m.public_tree(lat), m.full_tree(lat)
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]) ** 2,
                        w_dependent=False, reads_full_path=False, half_open=True)
    mu = m.conditional_law(m.StoppingRule.stop_at(pub, lat.steps))
    rng = np.random.default_rng(4)
    for _ in range(5):
        def late_rule():
            raw = rng.random(pub.num_nodes) < 0.35
            raw[: pub.offsets[1]] = False  # keep the mixture measurable
            return m.StoppingRule(pub, raw)
        r1, r2 = late_rule(), late_rule()
        t1, t2 = r1.stop_steps()[:, 0], r2.stop_steps()[:, 0]
        wbit = (lat.path_ids & 1)[None, :]
        mixed = m.StoppingRule.from_times(
            ft, np.where(wbit == 1, t1[:, None], t2[:, None]))
        jm = m.evaluate_J(spot, mu, mixed)
        j1 = m.evaluate_J(spot, mu, r1)
        j2 = m.evaluate_J(spot, mu, r2)
        assert jm == pytest.approx(0.5 * (j1 + j2), abs=1e-12)


# ---------------------------------------------------------------------------
# increasing-differences checker
# ---------------------------------------------------------------------------


def test_check_id_constant_passes(lat):
    rep = m.check_increasing_differences(m.constant_payoff(3.0), m.full_tree(lat),
                                         trials=50, seed=77)
    assert rep.passed and rep.violation is None


def test_check_id_crowd_fraction_fails_exhaustively():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    rep = m.exhaustive_increasing_differences(m.crowd_fraction_payoff(),
                                              m.public_tree(lat))
    assert not rep.passed
    v = rep.violation
    assert v.lhs < v.rhs - 1e-9
    assert m.stochastic_leq(v.mu, v.mu_tilde)
    assert v.tau.pointwise_leq(v.tau_tilde)


@pytest.mark.parametrize("steps", [2, 3, 4, 5])
def test_check_id_sampled_crowd_fraction_violation_is_ordered(steps):
    """The sampled checker on the full tree finds crowd_fraction's
    violation and returns an ordered quadruple with the gain order broken."""
    lat = m.build_lattice(steps, 0.5, 3.0, 1.0, 1.0)
    rep = m.check_increasing_differences(m.crowd_fraction_payoff(), m.full_tree(lat),
                                         trials=100, seed=4242)
    assert not rep.passed and rep.trials <= 100
    v = rep.violation
    assert m.stochastic_leq(v.mu, v.mu_tilde)
    assert v.tau.pointwise_leq(v.tau_tilde)
    assert v.lhs < v.rhs - 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: on the public tree at K=8 sample_ordered_measures "
    "returns two equal measures, so the sampled checker misses the violation"))
def test_check_id_sampled_crowd_fraction_violation_public_k8():
    lat = m.build_lattice(8, 0.5, 3.0, 1.0, 1.0)
    rep = m.check_increasing_differences(m.crowd_fraction_payoff(), m.public_tree(lat),
                                         trials=100, seed=4242)
    assert not rep.passed


def test_check_id_pointwise_nondecreasing_difference_passes():
    # a payoff whose crowd-difference process is pointwise nondecreasing in
    # time: concave nondecreasing kernel read through the crowd CDF
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: min(u, 0.0)), lat)
    rep = m.check_increasing_differences(F, m.full_tree(lat), trials=120, seed=13)
    assert rep.passed


def test_sampled_measures_are_ordered_and_adapted():
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(6)
    tree = m.full_tree(lat)
    for _ in range(20):
        early, late = m.sample_ordered_measures(tree, rng)
        assert m.stochastic_leq(early, late)


# ---------------------------------------------------------------------------
# submartingale checker
# ---------------------------------------------------------------------------


def test_submartingale_equal_measures_zero_gap(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 2))
    rep = m.check_submartingale(F, mu, mu)
    assert rep.passed and rep.worst_gap == 0.0


def test_submartingale_requires_order(lat):
    tree = m.public_tree(lat)
    early = m.conditional_law(m.StoppingRule.stop_at(tree, 0))
    late = m.conditional_law(m.StoppingRule.stop_at(tree, 3))
    F = m.constant_payoff(1.0)
    with pytest.raises(ValueError, match="not stochastically ordered"):
        m.check_submartingale(F, late, early)


def test_submartingale_crowd_fraction_fails_at_explicit_node():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    early = m.conditional_law(m.StoppingRule.stop_at(tree, 1))
    late = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    rep = m.check_submartingale(m.crowd_fraction_payoff(), early, late)
    assert not rep.passed
    assert rep.node is not None and rep.worst_gap < -1e-9


def test_submartingale_kernel_orientation():
    # With the pair ordered early <= late and the difference taken as
    # F(late) - F(early), the crowd-smoothing kernel must have
    # nonincreasing increments for the drift to point up: concave kernels
    # pass, the affine kernel is exactly driftless, and a strictly convex
    # kink fails.  This pins the orientation used by the checker.
    lat = m.build_lattice(4, 0.25, 0.0, 1.0, 1.0)
    horizon = lat.horizon
    kernels = {
        "relu": (lambda u: max(u, 0.0), False),
        "affine": (lambda u: u + horizon, True),
        "neg_part": (lambda u: min(u, 0.0), True),
        "concave_ramp": (lambda u: u - u * u / (4 * horizon), True),
    }
    rng = np.random.default_rng(42)
    tree = m.full_tree(lat)
    pairs = [m.sample_ordered_measures(tree, rng) for _ in range(12)]
    for name, (phi, should_pass) in kernels.items():
        F = m.diffusion_payoff(
            m.DiffusionPayoffParams(f=lambda x, y, t: y, phi=phi), lat)
        verdicts = [m.check_submartingale(F, early, late).passed
                    for early, late in pairs]
        assert all(verdicts) == should_pass, name


def test_submartingale_agrees_with_increasing_differences():
    # measure pairs that pass the drift check can never produce an
    # increasing-differences violation built from those two measures
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: min(u, 0.0)), lat)
    rng = np.random.default_rng(8)
    for _ in range(10):
        early, late = m.sample_ordered_measures(tree, rng)
        assert m.check_submartingale(F, early, late).passed
        for _ in range(5):
            tau, tau_tilde = m.sample_ordered_rules(tree, rng)
            lhs = (m.evaluate_J(F, late, tau_tilde)
                   - m.evaluate_J(F, late, tau))
            rhs = (m.evaluate_J(F, early, tau_tilde)
                   - m.evaluate_J(F, early, tau))
            assert lhs >= rhs - 1e-9
