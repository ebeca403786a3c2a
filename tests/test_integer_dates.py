"""Inside the engine a date is its grid index: every payoff call gets ``k``
as a Python ``int`` in ``0..K``, whichever solver or crowd model calls it."""

import numpy as np
import pytest

import mfgtiming as m


def recording_payoff(lat, calls, half_open=True, reads_full_path=False,
                     w_dependent=False):
    def ev(b, w, mm, k):
        assert type(k) is int and 0 <= k <= lat.steps, repr(k)
        calls.append(k)
        return float(b[k]) + 0.5 * float(w[k]) + mm.mass_before(k)

    return m.PayoffSpec(ev, w_dependent=w_dependent, reads_full_path=reads_full_path,
                        half_open=half_open, label="recording")


@pytest.fixture
def lat():
    return m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)


def _law(tree, seed=0):
    return m.conditional_law(m.random_rule(tree, np.random.default_rng(seed)))


@pytest.mark.parametrize("kind", ["public", "signal", "full"])
def test_snell_solve_passes_int_dates(lat, kind):
    tree = {"public": m.public_tree, "full": m.full_tree,
            "signal": lambda lat: m.build_signal_tree(lat, m.SignalModel(1.0))}[kind](lat)
    calls = []
    m.snell_solve(recording_payoff(lat, calls, w_dependent=True), _law(tree), tree)
    assert set(calls) == set(range(lat.steps + 1))


def test_suffix_enumeration_passes_int_dates(lat):
    tree = m.full_tree(lat)
    calls = []
    F = recording_payoff(lat, calls, reads_full_path=True, w_dependent=True)
    m.snell_solve(F, _law(tree), tree)
    # every node of every layer averages over all 4**(K-k) joint suffixes
    assert len(calls) == sum(4 ** k * 4 ** (lat.steps - k) for k in range(lat.steps + 1))


@pytest.mark.parametrize("tree_kind, w_dependent", [
    ("public", False),  # one stop date per common path
    ("full", False),  # stop-date counts per common path
    ("full", True),  # every joint path
])
def test_evaluate_J_passes_int_dates(lat, tree_kind, w_dependent):
    tree = m.public_tree(lat) if tree_kind == "public" else m.full_tree(lat)
    rule = m.random_rule(tree, np.random.default_rng(3))
    calls = []
    m.evaluate_J(recording_payoff(lat, calls, w_dependent=w_dependent),
                 _law(tree), rule)
    assert calls


def test_brute_force_passes_int_dates(lat):
    tree = m.public_tree(lat)
    calls = []
    m.brute_force_optimal(recording_payoff(lat, calls), _law(tree), tree)
    assert calls


@pytest.mark.parametrize("half_open", [True, False])
def test_exact_nplayer_passes_int_dates(lat, half_open):
    # a half-open payoff takes the binomial crowd, any other the multiset enumeration
    rule = m.random_rule(m.public_tree(lat), np.random.default_rng(5))
    prof = m.NPlayerProfile(3, rule)
    calls = []
    F = recording_payoff(lat, calls, half_open=half_open)
    m.equilibrium_value(F, prof, m.Exact())
    m.best_deviation(F, prof, m.Exact())
    assert calls


def test_monte_carlo_epsilon_passes_int_dates(lat):
    rule = m.random_rule(m.public_tree(lat), np.random.default_rng(7))
    calls = []
    m.estimate_epsilon(recording_payoff(lat, calls), rule, 3, m.MonteCarlo(20, 1))
    assert calls
