import math

import numpy as np
import pytest

import mfgtiming as m


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
    half = m.empirical_measure([0.0, lat.horizon], lat)  # crowd 1/2 before t>0
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
    assert F.measure_mode is m.MeasureMode.GENERAL and F.past_measure_only


def test_bankrun_monotone_in_crowd(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    rng = np.random.default_rng(2)
    tree = m.full_tree(lat)
    for _ in range(10):
        early, late = m.sample_ordered_measures(lat, rng, tree)
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
    # feed values far below the lattice range to force a clamp
    b = np.array([0.0, -80.0, -80.0])
    with pytest.warns(UserWarning, match="clamped"):
        v = F.evaluate(b, np.zeros(3), m.point_mass(lat, 2), 2)
    assert v == F.bound


# ---------------------------------------------------------------------------
# diffusion family
# ---------------------------------------------------------------------------


def test_diffusion_zero_kernel_ignores_crowd(lat):
    F = m.diffusion_payoff(
        m.DiffusionPayoffParams(f=lambda x, y, t: x + y, phi=lambda u: 0.0,
                                f_bound=10.0), lat)
    d0, dT = m.point_mass(lat, 0), m.point_mass(lat, lat.steps)
    b = lat.b_values[5]
    for k in range(lat.steps + 1):
        assert F.evaluate(b, lat.w_values[0], d0, k) == F.evaluate(b, lat.w_values[0], dT, k) == b[k]


def test_diffusion_sifting(lat):
    phi = lambda u: math.sin(u) + 2.0
    F = m.diffusion_payoff(m.DiffusionPayoffParams(f=lambda x, y, t: y, phi=phi,
                                                   f_bound=10.0), lat)
    for s in range(lat.steps + 1):
        ds = m.point_mass(lat, s)
        for k in range(lat.steps + 1):
            assert F.evaluate(lat.b_values[0], lat.w_values[0], ds, k) == \
                pytest.approx(phi(float(lat.grid[k] - lat.grid[s])))


def test_diffusion_relu_convolution():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: max(u, 0.0), f_bound=10.0), lat)
    uni = m.empirical_measure([0.0, 0.5], lat)
    dt = lat.dt
    val = F.evaluate(lat.b_values[0], lat.w_values[0], uni, 2)
    assert val == pytest.approx((2 * dt + dt) / 2)


# ---------------------------------------------------------------------------
# exact expected reward
# ---------------------------------------------------------------------------


def test_evaluate_J_constant(lat):
    tree = m.public_tree(lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 1))
    rng = np.random.default_rng(1)
    for _ in range(5):
        rule = m.random_rule(tree, rng)
        assert m.evaluate_J(m.constant_payoff(2.25, lat), mu, rule, lat) == 2.25


def test_evaluate_J_martingale_spot(lat):
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]),
                        m.MeasureMode.CDF_AT_T, m.PathMode.SPOT_AT_T,
                        bound=10.0, w_dependent=False)
    mu = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 0))
    rng = np.random.default_rng(5)
    for tree in (m.public_tree(lat), m.full_tree(lat)):
        for _ in range(5):
            rule = m.random_rule(tree, rng)
            assert m.evaluate_J(spot, mu, rule, lat) == pytest.approx(lat.b0)


def test_evaluate_J_single_term_bankrun(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    tree = m.public_tree(lat)
    rule = m.StoppingRule.stop_at(tree, 0)
    mu = m.conditional_law(rule)
    assert m.evaluate_J(F, mu, rule, lat) == min(1.0, half_liq(lat.b0))


def test_evaluate_J_affine_in_rule_mixture():
    # mix two common-path rules on the first idiosyncratic increment:
    # for crowd-independent payoffs J is the average of the two values
    lat = m.build_lattice(3, 0.5, 1.0, 1.0, 1.0)
    pub, ft = m.public_tree(lat), m.full_tree(lat)
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]) ** 2,
                        m.MeasureMode.CDF_AT_T, m.PathMode.SPOT_AT_T,
                        bound=50.0, w_dependent=False)
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
        jm = m.evaluate_J(spot, mu, mixed, lat)
        j1 = m.evaluate_J(spot, mu, r1, lat)
        j2 = m.evaluate_J(spot, mu, r2, lat)
        assert jm == pytest.approx(0.5 * (j1 + j2), abs=1e-12)


# ---------------------------------------------------------------------------
# increasing-differences checker
# ---------------------------------------------------------------------------


def test_check_id_constant_passes(lat):
    rep = m.check_increasing_differences(m.constant_payoff(3.0, lat), lat,
                                         trials=50, seed=77)
    assert rep.passed and rep.violation is None


def test_check_id_crowd_fraction_fails_exhaustively():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    rep = m.exhaustive_increasing_differences(m.crowd_fraction_payoff(lat), lat,
                                              m.public_tree(lat))
    assert not rep.passed
    v = rep.violation
    assert v.lhs < v.rhs - 1e-9
    assert m.stochastic_leq(v.mu, v.mu_tilde)
    assert v.tau.pointwise_leq(v.tau_tilde)


def test_check_id_pointwise_nondecreasing_difference_passes():
    # a payoff whose crowd-difference process is pointwise nondecreasing in
    # time: concave nondecreasing kernel read through the crowd CDF
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: min(u, 0.0), f_bound=10.0), lat)
    rep = m.check_increasing_differences(F, lat, trials=120, seed=13)
    assert rep.passed


def test_sampled_measures_are_ordered_and_adapted():
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        early, late = m.sample_ordered_measures(lat, rng)
        assert m.stochastic_leq(early, late)


# ---------------------------------------------------------------------------
# submartingale checker
# ---------------------------------------------------------------------------


def test_submartingale_equal_measures_zero_gap(lat):
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 2))
    rep = m.check_submartingale(F, mu, mu, lat)
    assert rep.passed and rep.worst_gap == 0.0


def test_submartingale_requires_order(lat):
    tree = m.public_tree(lat)
    early = m.conditional_law(m.StoppingRule.stop_at(tree, 0))
    late = m.conditional_law(m.StoppingRule.stop_at(tree, 3))
    F = m.constant_payoff(1.0, lat)
    with pytest.raises(ValueError, match="not stochastically ordered"):
        m.check_submartingale(F, late, early, lat)


def test_submartingale_crowd_fraction_fails_at_explicit_node():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    early = m.conditional_law(m.StoppingRule.stop_at(tree, 1))
    late = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    rep = m.check_submartingale(m.crowd_fraction_payoff(lat), early, late, lat)
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
    pairs = [m.sample_ordered_measures(lat, rng) for _ in range(12)]
    for name, (phi, should_pass) in kernels.items():
        F = m.diffusion_payoff(
            m.DiffusionPayoffParams(f=lambda x, y, t: y, phi=phi, f_bound=10.0), lat)
        verdicts = [m.check_submartingale(F, early, late, lat).passed
                    for early, late in pairs]
        assert all(verdicts) == should_pass, name


def test_submartingale_agrees_with_increasing_differences():
    # measure pairs that pass the drift check can never produce an
    # increasing-differences violation built from those two measures
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: min(u, 0.0), f_bound=10.0), lat)
    rng = np.random.default_rng(8)
    for _ in range(10):
        early, late = m.sample_ordered_measures(lat, rng, tree)
        assert m.check_submartingale(F, early, late, lat).passed
        for _ in range(5):
            tau, tau_tilde = m.sample_ordered_rules(tree, rng)
            lhs = (m.evaluate_J(F, late, tau_tilde, lat)
                   - m.evaluate_J(F, late, tau, lat))
            rhs = (m.evaluate_J(F, early, tau_tilde, lat)
                   - m.evaluate_J(F, early, tau, lat))
            assert lhs >= rhs - 1e-9
