import numpy as np
import pytest

import mfgtiming as m
from mfgtiming._expect import layer_atoms


def posterior(tree, k, local):
    """Posterior over joint k-step prefixes at one node: the node's
    w-dependent atoms, as ``(b_prefixes, w_prefixes, probs)``."""
    node, b_pre, w_pre, probs = layer_atoms(tree, k, True)
    at = node == local
    return b_pre[at], w_pre[at], probs[at]


@pytest.fixture
def lat():
    return m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)


def test_layer_structure(lat):
    pub = m.public_tree(lat)
    assert pub.layer_sizes == (1, 2, 4, 8)
    full = m.full_tree(lat)
    assert full.layer_sizes == (1, 4, 16, 64)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    assert sig.layer_sizes == (1, 3, 9, 27)
    assert sig.symbols == (-2.0, 0.0, 2.0)
    assert list(sig.symbol_probs) == [0.25, 0.5, 0.25]


def test_signal_alphabet_sizes(lat):
    assert len(m.SignalModel(0.0).alphabet(lat)) == 2
    assert len(m.SignalModel(1.0).alphabet(lat)) == 3  # sums collide
    assert len(m.SignalModel(0.5).alphabet(lat)) == 4  # fully revealing


def test_every_path_hits_one_node_per_layer(lat):
    for tree in (m.public_tree(lat), m.full_tree(lat),
                 m.build_signal_tree(lat, m.SignalModel(1.0))):
        for k, local in tree.joint_layers():
            size = tree.layer_sizes[k]
            assert local.min() >= 0 and local.max() < size


def test_stop_at_fixed_time(lat):
    tree = m.public_tree(lat)
    for k0 in range(lat.steps + 1):
        rule = m.StoppingRule.stop_at(tree, k0)
        assert np.all(rule.stop_steps() == k0)


def test_canonical_form_normalizes_descendants(lat):
    tree = m.public_tree(lat)
    raw = np.zeros(tree.num_nodes, dtype=bool)
    raw[0] = True  # stop at the root; descendant marks should not matter
    a = m.StoppingRule(tree, raw)
    raw2 = raw.copy()
    raw2[3] = True  # unreachable after the root stop
    b = m.StoppingRule(tree, raw2)
    assert a == b
    assert np.all(a.decision)  # everything below a stopped root is stopped


def test_rule_equality_iff_same_times(lat):
    tree = m.public_tree(lat)
    rng = np.random.default_rng(0)
    for _ in range(40):
        r1 = m.random_rule(tree, rng)
        r2 = m.random_rule(tree, rng)
        same_times = np.array_equal(r1.stop_steps(), r2.stop_steps())
        assert (r1 == r2) == same_times


def test_from_times_rejects_unmeasurable(lat):
    tree = m.public_tree(lat)
    # times that depend on the idiosyncratic path are not public-measurable
    wbit = (lat.path_ids & 1)[None, :]
    times = np.where(wbit == 1, 1, 2)
    with pytest.raises(ValueError, match="not measurable"):
        m.StoppingRule.from_times(tree, np.broadcast_to(times, (8, 8)))


def test_conditional_law_deterministic_time(lat):
    tree = m.public_tree(lat)
    law = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    expect = np.tile([0.0, 0.0, 1.0, 1.0], (8, 1))
    assert np.array_equal(law.cdf, expect)


def test_conditional_law_first_up_of_idiosyncratic(lat):
    # stop at the first up-move of W, else at the horizon: enumerating the
    # 8 idiosyncratic paths gives cdf 1 - 2**-k, identically in b.
    tree = m.full_tree(lat)
    wbits = [(lat.path_ids >> j) & 1 for j in range(lat.steps)]
    times = np.full(lat.num_paths, lat.steps, dtype=np.int64)
    for j in reversed(range(lat.steps)):
        times = np.where(wbits[j] == 1, j + 1, times)
    rule = m.StoppingRule.from_times(tree, times[None, :])
    law = m.conditional_law(rule)
    expect_row = [0.0, 0.5, 0.75, 1.0]
    assert np.array_equal(law.cdf, np.tile(expect_row, (8, 1)))


def test_conditional_law_first_down_of_common(lat):
    # stop at the first down-move of B: the law given b is a point mass
    # tracking b's own first down step, so the cdf rows are 0/1 valued.
    tree = m.public_tree(lat)
    bbits = [(lat.path_ids >> j) & 1 for j in range(lat.steps)]
    times = np.full(lat.num_paths, lat.steps, dtype=np.int64)
    for j in reversed(range(lat.steps)):
        times = np.where(bbits[j] == 0, j + 1, times)
    rule = m.StoppingRule.from_times(tree, times[:, None])
    law = m.conditional_law(rule)
    assert set(np.unique(law.cdf)) == {0.0, 1.0}
    for b in range(lat.num_paths):
        assert np.array_equal(law.cdf[b], (np.arange(4) >= times[b]).astype(float))


def test_conditional_law_always_adapted():
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    for tree in (m.full_tree(lat), m.build_signal_tree(lat, m.SignalModel(1.0))):
        for _ in range(10):
            law = m.conditional_law(m.random_rule(tree, rng))
            ids = lat.path_ids
            for k in range(lat.steps + 1):
                rep = ids & ((1 << k) - 1)
                assert np.array_equal(law.cdf[:, k], law.cdf[rep, k])


def test_conditional_law_monotone_in_rule():
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    rng = np.random.default_rng(7)
    for _ in range(25):
        early, late = m.sample_ordered_rules(tree, rng)
        assert early.pointwise_leq(late)
        assert m.stochastic_leq(m.conditional_law(early), m.conditional_law(late))


def test_posterior_rows_sum_to_one():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    for k in range(lat.steps + 1):
        for local in range(sig.layer_sizes[k]):
            _, _, probs = posterior(sig, k, local)
            assert abs(probs.sum() - 1.0) < 1e-12


def test_posterior_one_step_ambiguous():
    lat = m.build_lattice(2, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    mid = sig.symbols.index(0.0)
    b_pre, w_pre, probs = posterior(sig, 1, mid)
    assert sorted(zip(b_pre.tolist(), w_pre.tolist())) == [(0, 1), (1, 0)]
    assert probs.tolist() == [0.5, 0.5]


def test_posterior_two_step_matches_direct_bayes():
    lat = m.build_lattice(2, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(1.0))
    mid, up = sig.symbols.index(0.0), sig.symbols.index(2.0)
    local = mid + up * sig.num_symbols
    b_pre, w_pre, probs = posterior(sig, 2, local)
    # direct enumeration over all 16 joint two-step prefixes
    expect = []
    for b in range(4):
        for w in range(4):
            x = [(2 * ((b >> j) & 1) - 1) + (2 * ((w >> j) & 1) - 1) for j in range(2)]
            if x == [0.0, 2.0]:
                expect.append((b, w))
    assert sorted(zip(b_pre.tolist(), w_pre.tolist())) == sorted(expect)
    assert np.allclose(probs, 1.0 / len(expect))


def test_posterior_sigma_zero_degenerate_on_common_prefix():
    lat = m.build_lattice(2, 0.5, 3.0, 1.0, 1.0)
    sig = m.build_signal_tree(lat, m.SignalModel(0.0))
    b_pre, w_pre, probs = posterior(sig, 2, 3)
    assert set(b_pre.tolist()) == {3}
    assert sorted(w_pre.tolist()) == [0, 1, 2, 3]
    assert np.allclose(probs, 0.25)


def test_count_rules_matches_enumeration():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    for tree, expect in ((m.public_tree(lat), 5), (m.full_tree(lat), 17)):
        assert m.count_rules(tree) == expect
        rules = list(m.enumerate_rules(tree))
        assert len(rules) == expect
        keys = {r.key() for r in rules}
        assert len(keys) == expect  # all distinct in canonical form


def test_count_rules_public_depth_four():
    lat = m.build_lattice(4, 0.5, 0.0, 1.0, 1.0)
    assert m.count_rules(m.public_tree(lat)) == 677


def test_enumerate_rules_cap():
    lat = m.build_lattice(6, 0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="enumeration too large"):
        list(m.enumerate_rules(m.public_tree(lat)))


TREES = {
    "public": m.public_tree,
    "full": m.full_tree,
    "signal-0.5": lambda lat: m.build_signal_tree(lat, m.SignalModel(0.5)),
    "signal-1": lambda lat: m.build_signal_tree(lat, m.SignalModel(1.0)),
}


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_structure_matches_joint_paths(name, steps):
    lat = m.build_lattice(steps, 0.5, 3.0, 1.0, 1.0)
    tree = TREES[name](lat)
    grid = (lat.num_paths, lat.num_paths)
    layers = [np.broadcast_to(local, grid).ravel() for _, local in tree.joint_layers()]
    rng = np.random.default_rng(steps)
    for k in range(lat.steps):
        here, there = layers[k], layers[k + 1]
        size, size_next = tree.layer_sizes[k], tree.layer_sizes[k + 1]
        # continuation is the path-weighted mean over each node's next nodes
        v = rng.random(size_next)
        mean = (np.bincount(here, weights=v[there], minlength=size)
                / np.bincount(here, minlength=size))
        assert np.allclose(tree.continuation(k, v), mean, rtol=0, atol=1e-12)
        children = [tree.children_local(k, node) for node in range(size)]
        for node, child in set(zip(here.tolist(), there.tolist())):
            assert child in children[node]
        assert sorted(sum(children, [])) == list(range(size_next))
        marks = rng.random(size)
        spread = tree.spread_to_children(k, marks)
        for node in range(size):
            assert np.all(spread[children[node]] == marks[node])


def test_full_tree_node_is_base_four_symbol_sequence():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    for k in range(lat.steps + 1):
        b = np.arange(1 << k)[:, None]
        w = np.arange(1 << k)[None, :]
        expect = sum((((b >> j) & 1) + 2 * ((w >> j) & 1)) * 4 ** j for j in range(k))
        assert np.array_equal(tree.prefix_nodes(k), np.broadcast_to(expect, (1 << k, 1 << k)))
