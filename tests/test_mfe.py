import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfgtiming as m
from mfgtiming.mfe import VERIFY_TOL


def half_liq(x):
    return max(0.5 * x, 0.0)


def spot_payoff(lat, fn):
    def ev(b, w, mm, k):
        return fn(float(b[k]), float(lat.grid[k]))
    return m.PayoffSpec(ev, w_dependent=False, reads_full_path=False, half_open=True)


@pytest.fixture
def lat():
    return m.build_lattice(4, 0.5, 3.0, 1.0, 1.0)


def test_constant_payoff_forced_bracket(lat):
    tree = m.public_tree(lat)
    res = m.solve_mfe(m.constant_payoff(1.0, lat), tree, lat)
    assert res.converged
    assert res.rule_max == m.StoppingRule.stop_at(tree, lat.steps)
    assert res.rule_min == m.StoppingRule.stop_at(tree, 0)
    assert res.top.iterations == 1 and res.bottom.iterations == 1
    assert res.value_max == res.value_min == 1.0
    assert not res.tight


def test_crowd_independent_payoff_single_improvement(lat):
    tree = m.public_tree(lat)
    # strictly concave spot reward: unique interior stopping behavior
    F = spot_payoff(lat, lambda b, t: -(b - 4.2) ** 2)
    plain = m.snell_solve(
        F, m.conditional_law(m.StoppingRule.stop_at(tree, lat.steps)), tree, lat)
    res = m.solve_mfe(F, tree, lat)
    assert res.converged
    assert res.rule_max == plain.rule_max
    assert res.rule_min == plain.rule_min
    assert res.top.iterations <= 2 and res.bottom.iterations <= 2


def test_public_info_equilibrium_hitting_rule():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    rule = m.public_info_equilibrium(p, lat)
    # L(B) <= 1 iff B <= 2: the first passage of the path below its start
    times = np.empty(lat.num_paths, dtype=np.int64)
    for pid in range(lat.num_paths):
        below = np.nonzero(lat.b_values[pid] <= 2.0)[0]
        times[pid] = below[0] if len(below) else lat.steps
    assert np.array_equal(rule.stop_steps()[:, 0], times)


def test_public_info_equilibrium_never_crossing():
    lat = m.build_lattice(3, 0.5, 9.0, 1.0, 1.0)
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    rule = m.public_info_equilibrium(p, lat)
    assert rule == m.StoppingRule.stop_at(m.public_tree(lat), lat.steps)


def test_public_info_equilibrium_immediate_crossing():
    lat = m.build_lattice(3, 0.5, 1.5, 1.0, 1.0)
    p = m.BankRunParams(rbar=0.1, r=0.05, liquidation=half_liq, d0=1.0)
    rule = m.public_info_equilibrium(p, lat)
    assert rule == m.StoppingRule.stop_at(m.public_tree(lat), 0)


def test_bankrun_top_iteration_finds_hitting_rule(lat):
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.05, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    top = m.iterate_from_top(F, tree, lat)
    assert top.converged and top.monotone
    assert top.rule == m.public_info_equilibrium(p, lat)
    # trace is pointwise nonincreasing from the horizon rule
    prev = m.StoppingRule.stop_at(tree, lat.steps)
    for rec in top.trace:
        assert rec.rule.pointwise_leq(prev)
        prev = rec.rule


def test_bankrun_bottom_iteration_finds_panic_rule(lat):
    # the half-open crowd read makes "everyone runs immediately" a genuine
    # second equilibrium at small growth premia; the ascending iteration
    # terminates there, giving a strictly wide bracket
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.05, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    res = m.solve_mfe(F, tree, lat)
    assert res.converged
    assert res.rule_min == m.StoppingRule.stop_at(tree, 0)
    assert res.rule_max == m.public_info_equilibrium(p, lat)
    assert not res.tight
    assert m.verify_mfe(F, res.rule_min, tree, lat).is_mfe
    assert m.verify_mfe(F, res.rule_max, tree, lat).is_mfe


def test_verify_mfe_rejects_suboptimal_rule(lat):
    tree = m.public_tree(lat)
    F = spot_payoff(lat, lambda b, t: 1.0 + t)
    res = m.verify_mfe(F, m.StoppingRule.stop_at(tree, 0), tree, lat)
    assert not res.is_mfe
    assert res.gap == pytest.approx(lat.horizon)


def test_verify_mfe_constant_any_rule(lat):
    tree = m.public_tree(lat)
    rng = np.random.default_rng(21)
    for _ in range(5):
        res = m.verify_mfe(m.constant_payoff(2.0, lat), m.random_rule(tree, rng),
                           tree, lat)
        assert res.is_mfe and abs(res.gap) <= 1e-12


def test_bracket_contains_other_equilibria(lat):
    # any rule that verifies as an equilibrium lies between the bracket ends
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.05, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    res = m.solve_mfe(F, tree, lat)
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(300):
        rule = m.random_rule(tree, rng, p_stop=float(rng.uniform(0.05, 0.6)))
        if m.verify_mfe(F, rule, tree, lat).is_mfe:
            found += 1
            assert res.rule_min.pointwise_leq(rule)
            assert rule.pointwise_leq(res.rule_max)
    assert found >= 1  # the sampler does hit equilibria


def test_iteration_bound(lat):
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.05, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    res = m.solve_mfe(F, tree, lat)
    assert res.top.iterations <= tree.num_nodes + 1
    assert res.bottom.iterations <= tree.num_nodes + 1


def test_max_iter_reported_as_nonconvergence(lat):
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.05, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    top = m.iterate_from_top(F, tree, lat, max_iter=1)
    assert not top.converged and top.iterations == 1


def test_anti_complementary_payoff_cycles_from_below():
    # the crowd-share payoff rewards stopping just after the crowd: the
    # ascending best responses chase each other date by date and wrap
    # around, which the iteration must report as a cycle, not convergence
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    F = m.crowd_fraction_payoff(lat)
    bottom = m.iterate_from_bottom(F, tree, lat)
    assert not bottom.converged
    assert bottom.cycle_length is not None and bottom.cycle_length >= 1
    # from above it is a trivial fixed point: with nobody stopped before
    # the horizon the reward is identically zero and all rules tie
    top = m.iterate_from_top(F, tree, lat)
    assert top.converged
    assert top.rule == m.StoppingRule.stop_at(tree, lat.steps)


def test_signal_tree_bankrun_equilibrium():
    lat = m.build_lattice(5, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    res = m.solve_mfe(F, sig, lat)
    assert res.top.converged
    v = m.verify_mfe(F, res.rule_max, sig, lat)
    assert v.is_mfe and v.gap <= 1e-9
    steps = res.rule_max.stop_steps()
    assert steps.shape == (lat.num_paths, lat.num_paths)


@st.composite
def bankrun_games(draw):
    """A random bank run on the public tree (K <= 4) or the sigma=1 signal
    tree (K <= 3)."""
    public = draw(st.booleans())
    steps = draw(st.integers(1, 4 if public else 3))
    lat = m.build_lattice(steps, draw(st.sampled_from([0.25, 0.5, 1.0])),
                          draw(st.sampled_from([0.5, 1.5, 3.0])),
                          draw(st.sampled_from([0.5, 1.0, 2.0])),
                          draw(st.sampled_from([0.5, 1.0, 2.0])))
    tree = m.public_tree(lat) if public else m.build_signal_tree(lat, m.SignalModel(1.0))
    r = draw(st.sampled_from([0.0, 0.05, 0.1]))
    a, c = draw(st.sampled_from([0.2, 0.5, 1.0])), draw(st.sampled_from([-0.25, 0.0, 0.5]))
    p = m.BankRunParams(rbar=r + draw(st.sampled_from([0.01, 0.1, 0.3])), r=r,
                        liquidation=lambda x: max(a * x + c, 0.0),
                        d0=draw(st.sampled_from([0.5, 1.0, 2.0])))
    return m.bankrun_payoff(p, lat), tree, lat


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bankrun_games())
def test_verification_gap_nonnegative_at_both_bracket_ends(game):
    F, tree, lat = game
    res = m.solve_mfe(F, tree, lat)
    for end in (res.top, res.bottom):
        verified = m.verify_mfe(F, end.rule, tree, lat)
        assert verified.gap >= -VERIFY_TOL
        if end.converged:
            assert end.verification == verified
