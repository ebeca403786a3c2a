import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgtiming as m
from mfgtiming._expect import layer_values
from mfgtiming._rng import STREAM_CONVERGE, STREAM_DEV_EVAL, STREAM_DEV_PLAN, derive_rng
from mfgtiming.nplayer import (CONVERGE_BLOCK_DRAWS, _binomial_weights, _crowd_cdfs,
                               _exact_crowd, _field_payoff, _mc_profile_value,
                               _sampled_crowd)


def half_liq(x):
    return max(0.5 * x, 0.0)


def enumerate_two_player_value(F, lat, rule_steps, dev_steps=None):
    """Player 1's payoff by exhausting (B, W1, W2), 64 outcomes at K=2."""
    n = lat.num_paths
    total = 0.0
    dev_steps = rule_steps if dev_steps is None else dev_steps
    for b in range(n):
        for w1 in range(n):
            for w2 in range(n):
                t1 = int(dev_steps[b, w1 % dev_steps.shape[1]])
                t2 = int(rule_steps[b, w2 % rule_steps.shape[1]])
                mass = np.zeros(lat.steps + 1)
                mass[t1] += 0.5
                mass[t2] += 0.5
                gm = m.GridMeasure(mass)
                total += F.evaluate(lat.b_values[b], lat.w_values[w1], gm, t1)
    return total / n ** 3


@pytest.fixture
def lat():
    return m.build_lattice(2, 0.5, 3.0, 1.0, 1.0)


@pytest.fixture
def bankrun(lat):
    p = m.BankRunParams(rbar=0.3, r=0.1, liquidation=half_liq, d0=1.0)
    return m.bankrun_payoff(p, lat)


def test_constant_payoff_value_every_method(lat):
    F = m.constant_payoff(2.0)
    tree = m.full_tree(lat)
    rng = np.random.default_rng(0)
    rule = m.random_rule(tree, rng)
    for n in (1, 3, 8):
        prof = m.NPlayerProfile(n, rule)
        assert m.equilibrium_value(F, prof, m.Exact()) == pytest.approx(2.0)
        assert m.equilibrium_value(F, prof, m.MonteCarlo(50, 4)) == pytest.approx(2.0)
        dev, _ = m.best_deviation(F, prof, m.Exact())
        assert dev == pytest.approx(2.0)


def test_crowd_independent_equals_single_agent(lat):
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]) ** 2,
                        w_dependent=False, reads_full_path=False, half_open=True)
    tree = m.public_tree(lat)
    rng = np.random.default_rng(1)
    rule = m.random_rule(tree, rng)
    mu = m.conditional_law(rule)
    plain = m.evaluate_J(spot, mu, rule)
    prof = m.NPlayerProfile(5, rule)
    assert m.equilibrium_value(spot, prof, m.Exact()) == pytest.approx(plain, abs=1e-12)
    dev, _ = m.best_deviation(spot, prof, m.Exact())
    assert dev == pytest.approx(m.snell_solve(spot, mu, tree).value, abs=1e-12)


def test_two_player_bankrun_matches_exhaustion(lat, bankrun):
    tree = m.full_tree(lat)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rule = m.random_rule(tree, rng)
        prof = m.NPlayerProfile(2, rule)
        got = m.equilibrium_value(bankrun, prof, m.Exact())
        want = enumerate_two_player_value(bankrun, lat, rule.stop_steps())
        assert got == pytest.approx(want, abs=1e-12)


def test_two_player_best_deviation_matches_brute_force(lat, bankrun):
    tree = m.full_tree(lat)
    rng = np.random.default_rng(8)
    rule = m.random_rule(tree, rng)
    prof = m.NPlayerProfile(2, rule)
    got, got_rule = m.best_deviation(bankrun, prof, m.Exact())
    # brute force: every deviator rule on the tree, each value by exhaustion
    best = -math.inf
    for dev_rule in m.enumerate_rules(tree):
        v = enumerate_two_player_value(bankrun, lat, rule.stop_steps(),
                                       dev_rule.stop_steps())
        best = max(best, v)
    assert got == pytest.approx(best, abs=1e-9)
    achieved = enumerate_two_player_value(bankrun, lat, rule.stop_steps(),
                                          got_rule.stop_steps())
    assert achieved == pytest.approx(best, abs=1e-9)


def test_two_player_general_payoff_matches_exhaustion(lat):
    G = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=0.8), lat)
    tree = m.full_tree(lat)
    rng = np.random.default_rng(9)
    rule = m.random_rule(tree, rng)
    prof = m.NPlayerProfile(2, rule)
    got = m.equilibrium_value(G, prof, m.Exact())
    want = enumerate_two_player_value(G, lat, rule.stop_steps())
    assert got == pytest.approx(want, abs=1e-12)
    got_dev, _ = m.best_deviation(G, prof, m.Exact())
    best = max(enumerate_two_player_value(G, lat, rule.stop_steps(), r.stop_steps())
               for r in m.enumerate_rules(tree))
    assert got_dev == pytest.approx(best, abs=1e-9)


def test_epsilon_nonnegative_and_zero_for_crowd_independent(lat):
    spot = m.PayoffSpec(lambda b, w, mm, k: float(b[k]) ** 2,
                        w_dependent=False, reads_full_path=False, half_open=True)
    tree = m.public_tree(lat)
    res = m.solve_mfe(spot, tree)
    for n in (1, 2, 7, 40):
        rep = m.estimate_epsilon(spot, res.rule_max, n, m.Exact())
        assert rep.epsilon <= 1e-12
        assert rep.stderr is None and rep.method == "exact"


def test_exact_intractable_error(lat):
    G = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=0.8), lat)
    rule = m.StoppingRule.stop_at(m.public_tree(lat), 1)
    prof = m.NPlayerProfile(9, rule)
    with pytest.raises(ValueError, match="exact intractable"):
        m.equilibrium_value(G, prof, m.Exact())


def test_monte_carlo_agrees_with_exact_general_payoff():
    lat = m.build_lattice(2, 0.5, 0.0, 0.5, 0.5)
    G = m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.3, c=0.5), lat)
    tree = m.full_tree(lat)
    rng = np.random.default_rng(3)
    rule = m.random_rule(tree, rng)
    ex = m.estimate_epsilon(G, rule, 4, m.Exact())
    mc = m.estimate_epsilon(G, rule, 4, m.MonteCarlo(samples=2500, seed=11))
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(ex.eq_value - mc.eq_value) <= 4 * mc.stderr
    # the planned rule is evaluated without planning bias, so the MC
    # deviation value sits at or slightly below the exact optimum
    assert mc.best_dev_value <= ex.best_dev_value + 4 * mc.stderr
    assert mc.best_dev_value >= ex.best_dev_value - 4 * mc.stderr


@pytest.mark.parametrize("info", ["public", "signal"])
def test_monte_carlo_plan_equals_exact_best_deviation(info):
    """With 2,000 sampled crowds per key, the planned deviation rule is
    the exact best deviation on the K=4 bank run."""
    lat = m.build_lattice(4, 0.5, 3.0, 1.0, 1.0)
    tree = m.public_tree(lat) if info == "public" \
        else m.build_signal_tree(lat, m.SignalModel(1.0))
    F = m.bankrun_payoff(m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq), lat)
    rule = m.solve_mfe(F, tree).rule_max
    for n in (2, 4, 16):
        prof = m.NPlayerProfile(n, rule)
        _, exact_rule = m.best_deviation(F, prof, m.Exact())
        _, planned = m.best_deviation(F, prof, m.MonteCarlo(2000, seed=7))
        assert planned == exact_rule


def test_monte_carlo_deterministic_in_seed(lat, bankrun):
    rule = m.StoppingRule.stop_at(m.public_tree(lat), 1)
    a = m.estimate_epsilon(bankrun, rule, 6, m.MonteCarlo(400, seed=5))
    b = m.estimate_epsilon(bankrun, rule, 6, m.MonteCarlo(400, seed=5))
    c = m.estimate_epsilon(bankrun, rule, 6, m.MonteCarlo(400, seed=6))
    assert a == b
    assert a != c


def test_exchangeability_of_the_deviator_index(lat, bankrun):
    # the exact computation never indexes a specific opponent: permuting
    # which player deviates is a no-op by construction; recompute through
    # a profile built from the same rule object to spot-check stability
    tree = m.full_tree(lat)
    rule = m.random_rule(tree, np.random.default_rng(12))
    v1 = m.equilibrium_value(bankrun, m.NPlayerProfile(3, rule), m.Exact())
    v2 = m.equilibrium_value(bankrun, m.NPlayerProfile(3, rule), m.Exact())
    assert v1 == v2


def test_large_n_best_deviation_approaches_mean_field():
    lat = m.build_lattice(5, 0.5, 1.5, 1.0, 1.0)
    tree = m.public_tree(lat)
    p = m.BankRunParams(rbar=0.2, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    rng = np.random.default_rng(9)
    rule = m.random_rule(tree, rng)
    law = m.conditional_law(rule)
    dev, _ = m.best_deviation(F, m.NPlayerProfile(10 ** 6, rule), m.Exact())
    mean_field = m.snell_solve(F, law, tree).value
    assert abs(dev - mean_field) <= 1e-3


def test_convergence_experiment_deterministic_rule_zero_distance(lat):
    rule = m.StoppingRule.stop_at(m.public_tree(lat), 1)
    rows = m.convergence_experiment(rule, [1, 4, 16], 50, 99)
    assert all(r["mean_kolmogorov_distance"] == 0.0 for r in rows)


def test_convergence_experiment_single_player_positive():
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    # stop at the first up-move of the idiosyncratic path, else horizon
    wbits = [(lat.path_ids >> j) & 1 for j in range(lat.steps)]
    times = np.full(lat.num_paths, lat.steps, dtype=np.int64)
    for j in reversed(range(lat.steps)):
        times = np.where(wbits[j] == 1, j + 1, times)
    rule = m.StoppingRule.from_times(tree, times[None, :])
    rows = m.convergence_experiment(rule, [1], 400, 5)
    # with one player the empirical law is a point mass; the law has cdf
    # (1/2, 3/4, 1), so the distance is 1/2 w.p. 3/4 and 3/4 w.p. 1/4,
    # with mean 9/16
    assert rows[0]["mean_kolmogorov_distance"] == pytest.approx(9 / 16, abs=0.05)
    assert rows[0]["mean_kolmogorov_distance"] > 0


def test_convergence_experiment_distances_shrink():
    lat = m.build_lattice(4, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    p = m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq, d0=1.0)
    F = m.bankrun_payoff(p, lat)
    res = m.solve_mfe(F, sig)
    rows = m.convergence_experiment(res.rule_max, [2, 4, 8, 16, 32, 64], 400, 17)
    dists = [r["mean_kolmogorov_distance"] for r in rows]
    drops = sum(1 for i in range(len(dists) - 1) if dists[i + 1] <= dists[i])
    assert drops >= 4  # law-of-large-numbers trend, fixed seed


def _convergence_one_sample_at_a_time(rule, n_list, samples, seed, lat):
    """The Kolmogorov distances drawn and summed one sample at a time."""
    steps, law = rule.stop_steps(), m.conditional_law(rule)
    rows = []
    for n in n_list:
        total = 0.0
        for s in range(samples):
            rng = derive_rng(seed, STREAM_CONVERGE, n, s)
            b = int(rng.integers(lat.num_paths))
            wids = rng.integers(lat.num_paths, size=n)
            dates = steps[b, wids % steps.shape[1]].astype(np.int64)
            emp_cdf = np.cumsum(np.bincount(dates, minlength=lat.steps + 1)) / n
            total += float(np.max(np.abs(emp_cdf - law.cdf[b])))
        rows.append({"n": n, "mean_kolmogorov_distance": total / samples})
    return rows


@pytest.mark.parametrize("kind", ["public", "full", "signal"])
def test_convergence_experiment_equals_one_sample_at_a_time(kind):
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = {"public": m.public_tree, "full": m.full_tree,
            "signal": lambda la: m.build_signal_tree(la, m.SignalModel(1.0))}[kind](lat)
    rng = np.random.default_rng(23)
    n_list = [1, 3, 10, CONVERGE_BLOCK_DRAWS // 25]  # the last n takes three blocks
    for _ in range(3):
        rule = m.random_rule(tree, rng, p_stop=0.4)
        want = _convergence_one_sample_at_a_time(rule, n_list, 60, 8, lat)
        assert m.convergence_experiment(rule, n_list, 60, 8) == want


def _mc_profile_value_one_sample_at_a_time(payoff, prof, mc, stream, deviator_rule=None):
    """The sampled value of player 1, each sample drawn from its own
    generator."""
    steps = prof.rule.stop_steps()
    dev_steps = steps if deviator_rule is None else deviator_rule.stop_steps()
    lat = prof.rule.tree.lat
    values = layer_values(payoff, lat)
    vals = np.empty(mc.samples)
    for s in range(mc.samples):
        rng = derive_rng(mc.seed, stream, prof.n, s)
        b = int(rng.integers(lat.num_paths))
        wids = rng.integers(lat.num_paths, size=prof.n)
        own = int(dev_steps[b, wids[0] % dev_steps.shape[1]])
        counts = np.bincount(steps[b, wids[1:] % steps.shape[1]], minlength=lat.steps + 1)
        cdf = np.broadcast_to(_crowd_cdfs(counts, own, prof.n),
                              (lat.num_paths, lat.steps + 1))
        vals[s] = values(own, np.array([b]), wids[:1], cdf)[0]
    se = float(vals.std(ddof=1) / math.sqrt(mc.samples)) if mc.samples > 1 else 0.0
    return float(vals.mean()), se


@pytest.mark.parametrize("kind", ["public", "full", "signal"])
@pytest.mark.parametrize("deviates", [False, True])
def test_mc_profile_value_equals_one_sample_at_a_time(kind, deviates):
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = {"public": m.public_tree, "full": m.full_tree,
            "signal": lambda la: m.build_signal_tree(la, m.SignalModel(1.0))}[kind](lat)
    F = m.bankrun_payoff(m.BankRunParams(rbar=0.3, r=0.1, liquidation=half_liq), lat)
    rng = np.random.default_rng(24)
    for n, samples in [(1, 1), (3, 40), (10, 60)]:
        prof = m.NPlayerProfile(n, m.random_rule(tree, rng, p_stop=0.4))
        dev = m.random_rule(tree, rng, p_stop=0.4) if deviates else None
        mc = m.MonteCarlo(samples, seed=2 ** 40 + n)
        got = _mc_profile_value(F, prof, mc, STREAM_DEV_EVAL, deviator_rule=dev)
        assert got == _mc_profile_value_one_sample_at_a_time(F, prof, mc, STREAM_DEV_EVAL, dev)


def _scipy_stats_binomial_weights(mm, q):
    """The weights as ``scipy.stats.binom.pmf`` gives them, with the same
    support window and trim as ``_binomial_weights``."""
    from scipy import stats
    if mm == 0 or q <= 0.0:
        return np.array([0]), np.array([1.0])
    if q >= 1.0:
        return np.array([mm]), np.array([1.0])
    js = np.arange(mm + 1)
    if mm > 128:
        mean, sd = mm * q, math.sqrt(mm * q * (1 - q))
        js = np.arange(max(0, int(mean - 10 * sd - 1)), min(mm, int(mean + 10 * sd + 1)) + 1)
    ws = stats.binom.pmf(js, mm, q)
    return js[ws > 1e-16], ws[ws > 1e-16]


def test_binomial_weights_equal_scipy_stats_bit_for_bit():
    # the pmf ufunc is private to scipy.special; this pins it to the
    # public scipy.stats.binom.pmf on dyadic, extreme and non-dyadic q
    qs = [0.0, 1.0, 1 / 1024, 1 / 64, 0.125, 0.25, 0.375, 0.5, 0.6875, 0.75,
          63 / 64, 1023 / 1024, 0.3, 1 / 3, np.float64(0.8125)]
    for mm in [*range(130), 255, 1023, 10 ** 6 - 1]:
        for q in qs:
            js, ws = _binomial_weights(mm, q)
            want_js, want_ws = _scipy_stats_binomial_weights(mm, q)
            assert js.tolist() == want_js.tolist(), (mm, q)
            assert ws.tobytes() == want_ws.tobytes(), (mm, q)


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats would be most of every CLI process's start-up
    src = str(Path(m.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, mfgtiming; "
            "print(sorted(n for n in sys.modules if n.split('.')[:2] == ['scipy', 'stats']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _sampled_crowd_rows_by_unique(payoff, prof, mc, crowd_key):
    """A sampled crowd's weights and rows as ``np.unique(axis=0)`` merges
    the draws' date-count rows, half-open draws moved to date 0 or K."""
    steps = prof.rule.stop_steps()
    lat = prof.rule.tree.lat
    n, K, npaths = prof.n, lat.steps, lat.num_paths
    k, b = divmod(crowd_key, npaths)
    spawn = (n, k, b) if payoff.half_open else (n, b)
    rng = derive_rng(mc.seed, STREAM_DEV_PLAN, *spawn)
    wids = rng.integers(npaths, size=(mc.samples, n - 1))
    dates = steps[b, wids % steps.shape[1]]
    if payoff.half_open:
        dates = np.where(dates < k, 0, K)
    counts = np.array([np.bincount(row, minlength=K + 1) for row in dates]).reshape(-1, K + 1)
    counts, hits = np.unique(counts, axis=0, return_counts=True)
    return hits / mc.samples, counts


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("kind", ["public", "full", "signal"])
def test_sampled_crowd_rows_equal_unique_merge(kind, closed):
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    tree = {"public": m.public_tree, "full": m.full_tree,
            "signal": lambda la: m.build_signal_tree(la, m.SignalModel(1.0))}[kind](lat)
    F = m.bankrun_payoff(m.BankRunParams(rbar=0.1, r=0.0, liquidation=half_liq), lat,
                         closed_interval=closed)
    # a rule that stops nowhere before date 2, so the crowd's dates spread
    raw = np.random.default_rng(25).random(tree.num_nodes) < 0.3
    raw[:tree.offsets[2]] = False
    rules = [m.solve_mfe(F, tree).rule_max, m.StoppingRule(tree, raw)]
    mc = m.MonteCarlo(37, seed=2 ** 33 + 5)
    for rule in rules:
        for n in range(1, 18):
            prof = m.NPlayerProfile(n, rule)
            key, rows = _sampled_crowd(F, prof, mc)
            keys = {x for k in range(lat.steps + 1) for x in key(k, lat.path_ids).tolist()}
            for crowd_key in sorted(keys):
                weights, counts = rows(crowd_key)
                want_w, want_c = _sampled_crowd_rows_by_unique(F, prof, mc, crowd_key)
                assert weights.dtype == want_w.dtype and np.array_equal(weights, want_w)
                assert counts.dtype == want_c.dtype and np.array_equal(counts, want_c)


def test_field_payoff_keeps_scalar_adapter_measures(monkeypatch):
    """A field payoff over a payoff without a kernel builds each crowd
    measure once, however often its layers are read."""
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    G = m.diffusion_payoff(m.DiffusionPayoffParams(
        f=lambda x, y, t: y, phi=lambda u: max(u, 0.0)), lat)
    assert G.evaluate_layer is None
    law = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(lat), 2))
    field = _field_payoff(G, 3, lat, _exact_crowd(G, 3, law))
    built = []
    init = m.GridMeasure.__init__

    def counting(self, *args, **kwargs):  # as the benchmark tracer counts them
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(m.GridMeasure, "__init__", counting)
    ids = lat.path_ids
    first = [field.evaluate_layer(k, ids, ids, law.cdf) for k in range(lat.steps + 1)]
    assert len(built) > 0
    built.clear()
    again = [field.evaluate_layer(k, ids, ids, law.cdf) for k in range(lat.steps + 1)]
    assert len(built) == 0
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
