import numpy as np
import pytest

import mfgtiming as m


def spot_payoff(lat, fn, w_dependent=False):
    def ev(b, w, mm, k):
        return fn(float(b[k]), float(w[k]), float(lat.grid[k]))
    return m.PayoffSpec(ev, w_dependent=w_dependent, reads_full_path=False, half_open=True)


@pytest.fixture
def lat():
    return m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)


@pytest.fixture
def horizon_law(lat):
    return m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), lat.steps))


def test_snell_deterministic_increasing_reward(lat, horizon_law):
    F = spot_payoff(lat, lambda b, w, t: 1.0 + t)
    sol = m.snell_solve(F, horizon_law, m.public_tree(lat), lat)
    assert sol.value == pytest.approx(1.0 + lat.horizon)
    assert sol.rule_min == m.StoppingRule.stop_at(m.public_tree(lat), lat.steps)
    assert sol.rule_max == sol.rule_min


def test_snell_constant_total_tie_breaking(lat, horizon_law):
    tree = m.public_tree(lat)
    sol = m.snell_solve(m.constant_payoff(4.0, lat), horizon_law, tree, lat)
    assert sol.value == 4.0
    assert sol.rule_min == m.StoppingRule.stop_at(tree, 0)
    assert sol.rule_max == m.StoppingRule.stop_at(tree, lat.steps)


def test_snell_martingale_all_rules_optimal(lat, horizon_law):
    tree = m.public_tree(lat)
    F = spot_payoff(lat, lambda b, w, t: b)
    sol = m.snell_solve(F, horizon_law, tree, lat)
    assert sol.value == pytest.approx(lat.b0)
    assert sol.rule_min == m.StoppingRule.stop_at(tree, 0)
    assert sol.rule_max == m.StoppingRule.stop_at(tree, lat.steps)


def test_snell_dominance_and_consistency(lat):
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=lambda x: max(0.5 * x, 0.0))
    F = m.bankrun_payoff(p, lat)
    rng = np.random.default_rng(3)
    mu = m.conditional_law(m.random_rule(tree, rng))
    sol = m.snell_solve(F, mu, tree, lat)
    for k in range(lat.steps + 1):
        vals = sol.node_values(k)
        assert np.all(vals >= sol.stop_rewards[k] - 1e-12)
        # at nodes where the minimal rule stops, the value is the stop reward
        sl = slice(int(tree.offsets[k]), int(tree.offsets[k + 1]))
        stops = sol.rule_min.decision[sl]
        hmm = np.abs(vals - sol.stop_rewards[k]) <= 1e-9
        # canonical form can mark descendants of earlier stops; check only
        # nodes at or before the first stop via the raw tie condition
        assert np.all(hmm[stops & (sol.stop_rewards[k] >= sol.continuations[k] - 1e-9)])
    assert m.evaluate_J(F, mu, sol.rule_min, lat) == pytest.approx(sol.value, abs=1e-9)
    assert m.evaluate_J(F, mu, sol.rule_max, lat) == pytest.approx(sol.value, abs=1e-9)


def test_brute_force_constant_ties():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    res = m.brute_force_optimal(m.constant_payoff(1.5, lat), mu, tree, lat)
    assert res.rules_searched == 5
    assert res.value == 1.5
    assert res.rule_min == m.StoppingRule.stop_at(tree, 0)
    assert res.rule_max == m.StoppingRule.stop_at(tree, 2)


def test_brute_force_single_step():
    lat = m.build_lattice(1, 1.0, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 1))
    F = spot_payoff(lat, lambda b, w, t: -abs(b) + 0.1)
    res = m.brute_force_optimal(F, mu, tree, lat)
    assert res.rules_searched == 2
    # stopping immediately yields 0.1, waiting yields -1 + 0.1
    assert res.value == pytest.approx(0.1)
    assert res.rule_min == res.rule_max == m.StoppingRule.stop_at(tree, 0)


def test_brute_force_cap():
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 4))
    with pytest.raises(ValueError, match="enumeration too large"):
        m.brute_force_optimal(m.constant_payoff(1.0, lat), mu, tree, lat)


def _random_cdf_payoff(lat, rng):
    K = lat.steps
    table = rng.normal(0.0, 1.0, size=(2 * K + 1, K + 1))
    coef = float(rng.uniform(-1.0, 1.0))

    def ev(b, w, mm, k):
        i = int(round((b[k] - lat.b0) / lat.db)) + K
        return float(table[i, k]) + coef * mm.mass_before(k)

    return m.PayoffSpec(ev, w_dependent=False, reads_full_path=False, half_open=True)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(123)
    for _ in range(12):
        K = int(rng.integers(1, 5))
        lat = m.build_lattice(K, 0.5, float(rng.normal(0.0, 2.0)), 1.0, 1.0)
        tree = m.public_tree(lat)
        F = _random_cdf_payoff(lat, rng)
        mu = m.conditional_law(m.random_rule(tree, rng))
        sol = m.snell_solve(F, mu, tree, lat)
        res = m.brute_force_optimal(F, mu, tree, lat)
        assert abs(sol.value - res.value) <= 1e-9
        assert np.array_equal(sol.rule_min.stop_steps(), res.rule_min.stop_steps())
        assert np.array_equal(sol.rule_max.stop_steps(), res.rule_max.stop_steps())


def test_oracle_equivalence_full_tree_w_dependent():
    rng = np.random.default_rng(17)
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    table = rng.normal(0.0, 1.0, size=(5, 5, 3))

    def ev(b, w, mm, k):
        return float(table[int(b[k]) + 2, int(w[k]) + 2, k])

    F = m.PayoffSpec(ev, w_dependent=True, reads_full_path=False, half_open=True)
    mu = m.conditional_law(m.random_rule(tree, rng))
    sol = m.snell_solve(F, mu, tree, lat)
    res = m.brute_force_optimal(F, mu, tree, lat)
    assert abs(sol.value - res.value) <= 1e-9
    assert np.array_equal(sol.rule_min.stop_steps(), res.rule_min.stop_steps())
    assert np.array_equal(sol.rule_max.stop_steps(), res.rule_max.stop_steps())


def _assert_oracle_agrees(F, tree, lat, rng):
    mu = m.conditional_law(m.random_rule(tree, rng))
    sol = m.snell_solve(F, mu, tree, lat)
    res = m.brute_force_optimal(F, mu, tree, lat)
    assert abs(sol.value - res.value) <= 1e-9
    assert np.array_equal(sol.rule_min.stop_steps(), res.rule_min.stop_steps())
    assert np.array_equal(sol.rule_max.stop_steps(), res.rule_max.stop_steps())


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_oracle_equivalence_signal_tree(sigma):
    rng = np.random.default_rng(41)
    for K in (1, 2):
        lat = m.build_lattice(K, 0.5, 0.0, 1.0, 1.0)
        tree = m.build_signal_tree(lat, m.SignalModel(sigma))
        table = rng.normal(0.0, 1.0, size=(2 * K + 1, 2 * K + 1, K + 1))
        coef = float(rng.uniform(-1.0, 1.0))

        def ev(b, w, mm, k, table=table, coef=coef, K=K):
            return float(table[int(b[k]) + K, int(w[k]) + K, k]) + coef * mm.mass_before(k)

        F = m.PayoffSpec(ev, w_dependent=True, reads_full_path=False, half_open=True)
        for _ in range(3):
            _assert_oracle_agrees(F, tree, lat, rng)


def test_oracle_equivalence_full_tree_w_independent_bankrun():
    lat = m.build_lattice(2, 0.5, 3.0, 1.0, 1.0)
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=lambda x: max(0.5 * x, 0.0))
    F = m.bankrun_payoff(p, lat)
    assert not F.w_dependent
    rng = np.random.default_rng(43)
    for _ in range(5):
        _assert_oracle_agrees(F, m.full_tree(lat), lat, rng)


def test_monotone_selection_under_complementarity():
    # kernel passing the drift check => both extremal rules move up with
    # the crowd (the strong-set-order consequence of complementarity)
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    F = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: min(u, 0.0)), lat)
    rng = np.random.default_rng(5)
    for _ in range(15):
        early, late = m.sample_ordered_measures(lat, rng)
        assert m.check_submartingale(F, early, late, lat).passed
        s_early = m.snell_solve(F, early, tree, lat)
        s_late = m.snell_solve(F, late, tree, lat)
        assert s_early.rule_max.pointwise_leq(s_late.rule_max)
        assert s_early.rule_min.pointwise_leq(s_late.rule_min)


def test_signal_sigma_zero_matches_public_exactly():
    lat = m.build_lattice(6, 0.5, 3.0, 1.0, 1.0)
    pub = m.public_tree(lat)
    sig0 = m.build_signal_tree(lat, m.SignalModel(0.0))
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=lambda x: max(0.5 * x, 0.0))
    F = m.bankrun_payoff(p, lat)
    rng = np.random.default_rng(9)
    for _ in range(5):
        rule_pub = m.random_rule(pub, rng)
        rule_sig = m.StoppingRule(sig0, rule_pub.decision)  # same layer layout
        mu_pub = m.conditional_law(rule_pub)
        mu_sig = m.conditional_law(rule_sig)
        assert np.array_equal(mu_pub.cdf, mu_sig.cdf)
        a = m.snell_solve(F, mu_pub, pub, lat)
        b = m.snell_solve(F, mu_sig, sig0, lat)
        assert a.value == b.value  # identical arithmetic, not just close
        assert np.array_equal(a.rule_min.stop_steps(), b.rule_min.stop_steps())
        assert np.array_equal(a.rule_max.stop_steps(), b.rule_max.stop_steps())


def test_information_monotonicity_strict():
    # reward for hitting a one-sided target of the idiosyncratic path:
    # more information places the stop better
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)

    def ev(b, w, mm, k):
        return max(2.0 - 2.0 * abs(float(w[k]) - 1.0), 0.0)

    F = m.PayoffSpec(ev, w_dependent=True, reads_full_path=False, half_open=True)
    values = {}
    for name, tree in (("public", m.public_tree(lat)),
                       ("signal", m.build_signal_tree(lat, m.SignalModel(1.0))),
                       ("full", m.full_tree(lat))):
        mu = m.conditional_law(m.StoppingRule.stop_at(tree, lat.steps))
        values[name] = m.snell_solve(F, mu, tree, lat).value
    assert values["full"] >= values["signal"] - 1e-9
    assert values["signal"] >= values["public"] - 1e-9
    assert values["full"] > values["public"] + 0.1  # strictly informative here


def test_full_path_payoff_stop_rewards():
    # a payoff reading the whole future path forces suffix averaging;
    # check against a hand-computed conditional expectation
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)

    def ev(b, w, mm, t):
        return float(b[-1])  # terminal value regardless of stop date

    F = m.PayoffSpec(ev, w_dependent=False, reads_full_path=True, half_open=True)
    mu = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    sol = m.snell_solve(F, mu, tree, lat)
    # E[B_T | node] at the root is 0; the value of any rule equals 0
    assert sol.value == pytest.approx(0.0)
    assert sol.stop_rewards[0][0] == pytest.approx(0.0)
    assert sorted(sol.stop_rewards[1].tolist()) == [-1.0, 1.0]
