"""Posterior atoms are built once per (tree, layer, ``w_dependent``).

``stop_reward_layers`` keeps the atoms of ``_expect.layer_atoms`` on the
tree and builds them through that module attribute on a miss, so
rebinding it counts the builds, as the benchmark's tracer does.
"""

import numpy as np
import pytest

import mfgtiming as m
from mfgtiming import _expect
from mfgtiming._expect import stop_reward_layers


@pytest.fixture
def builds(monkeypatch):
    """The ``(tree, k, w_dependent)`` of every ``layer_atoms`` call."""
    calls = []
    build = _expect.layer_atoms

    def counted(tree, k, w_dependent):
        calls.append((tree, k, w_dependent))
        return build(tree, k, w_dependent)

    monkeypatch.setattr(_expect, "layer_atoms", counted)
    return calls


@pytest.fixture
def lat():
    return m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)


TREES = {
    "public": m.public_tree,
    "full": m.full_tree,
    "signal": lambda lat: m.build_signal_tree(lat, m.SignalModel(1.0)),
}


def bankrun(lat):
    return m.bankrun_payoff(m.BankRunParams(0.1, 0.0, lambda x: max(0.5 * x, 0.0)), lat)


def payoffs(lat):
    """Both ``w_dependent`` flags, kernel and scalar adapter, with and
    without suffix averaging."""
    return [
        bankrun(lat),
        m.crowd_fraction_payoff(),
        m.crowd_discount_payoff(m.CrowdDiscountParams(r=0.1, c=1.0), lat),
        m.diffusion_payoff(m.DiffusionPayoffParams(
            lambda b, y, t: b - y, lambda u: max(u, 0.0)), lat),
    ]


def laws(tree, seed=3):
    rng = np.random.default_rng(seed)
    return [m.conditional_law(m.random_rule(tree, rng, p_stop=p)) for p in (0.2, 0.5)]


def test_second_solve_builds_no_atoms(builds, lat):
    tree = TREES["signal"](lat)
    first, second = laws(tree)
    m.snell_solve(bankrun(lat), first, tree)
    assert [(k, w) for _, k, w in builds] == [(k, False) for k in range(lat.steps + 1)]
    builds.clear()
    m.snell_solve(bankrun(lat), second, tree)
    m.snell_solve(m.crowd_fraction_payoff(), first, tree)
    assert builds == []


def test_new_tree_or_other_flag_builds_again(builds, lat):
    tree = TREES["signal"](lat)
    mu = laws(tree)[0]
    stop_reward_layers(bankrun(lat), mu, tree)
    builds.clear()
    stop_reward_layers(m.crowd_discount_payoff(m.CrowdDiscountParams(0.1, 1.0), lat),
                       mu, tree)
    assert builds == [(tree, k, True) for k in range(lat.steps + 1)]
    builds.clear()
    other = TREES["signal"](lat)
    stop_reward_layers(bankrun(lat), mu, other)
    assert builds == [(other, k, False) for k in range(lat.steps + 1)]


@pytest.mark.parametrize("kind", sorted(TREES))
@pytest.mark.parametrize("w_dependent", [False, True])
def test_kept_atoms_are_read_only(lat, kind, w_dependent):
    tree = TREES[kind](lat)
    for k in range(lat.steps + 1):
        for arr in _expect._tree_atoms(tree, k, w_dependent):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


@pytest.mark.parametrize("kind", sorted(TREES))
def test_kept_atoms_give_the_rewards_of_a_fresh_build(builds, lat, kind):
    """Every payoff against every law on one tree, in turn, equals the
    same call on a tree of its own, whose atoms are new, bit for bit."""
    tree = TREES[kind](lat)
    for payoff in payoffs(lat):
        for mu in laws(tree):
            kept = stop_reward_layers(payoff, mu, tree)
            fresh_tree = TREES[kind](lat)
            fresh = stop_reward_layers(payoff, mu, fresh_tree)
            assert all(np.array_equal(a, b) for a, b in zip(kept, fresh))
    built = {w for t, _, w in builds if t is tree}
    assert built == {False, True}
    assert sum(t is tree for t, _, _ in builds) == 2 * (lat.steps + 1)
