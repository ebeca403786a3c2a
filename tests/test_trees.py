import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgtiming as m
from mfgtiming._expect import layer_atoms
from mfgtiming.trees import date_counts


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
    "signal-0": lambda lat: m.build_signal_tree(lat, m.SignalModel(0.0)),
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
        # canonical form marks every child of a stopped node
        raw = np.zeros(tree.num_nodes, dtype=bool)
        marks = rng.random(size) < 0.5
        raw[tree.offsets[k]:tree.offsets[k + 1]] = marks
        dec = m.StoppingRule(tree, raw).decision
        for node in np.nonzero(marks)[0].tolist():
            assert np.all(dec[tree.offsets[k + 1] + np.array(children[node])])


def test_full_tree_node_is_base_four_symbol_sequence():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    for k in range(lat.steps + 1):
        b = np.arange(1 << k)[:, None]
        w = np.arange(1 << k)[None, :]
        expect = sum((((b >> j) & 1) + 2 * ((w >> j) & 1)) * 4 ** j for j in range(k))
        assert np.array_equal(tree.prefix_nodes(k), np.broadcast_to(expect, (1 << k, 1 << k)))


def test_prefix_nodes_filled_by_two_threads_at_once():
    """Two threads that fill a new tree's prefix nodes together leave the
    layers a single thread builds; posterior atoms are built from them
    and kept for the tree's lifetime."""
    lat = m.build_lattice(9, 0.5, 3.0, 1.0, 1.0)
    sig = m.SignalModel(1.0)
    want = [m.build_signal_tree(lat, sig).prefix_nodes(k) for k in range(lat.steps + 1)]
    for _ in range(10):
        tree = m.build_signal_tree(lat, sig)
        start = threading.Barrier(2)

        def fill():
            start.wait()
            for k in range(lat.steps + 1):
                tree.prefix_nodes(k)

        threads = [threading.Thread(target=fill) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(lat.steps + 1):
            assert np.array_equal(tree.prefix_nodes(k), want[k])


# -- the per-path rule primitives, kept here as the oracle -----------------


def canonical_oracle(tree, raw):
    """Canonical form by copying each layer's marks onto its children."""
    dec = raw.copy()
    forced = np.zeros(1, dtype=bool)
    for k in range(tree.lat.steps + 1):
        sl = slice(int(tree.offsets[k]), int(tree.offsets[k + 1]))
        dec[sl] |= forced
        if k == tree.lat.steps:
            dec[sl] = True
        else:
            forced = np.tile(dec[sl], tree.num_symbols)
    return dec


def stop_steps_oracle(rule):
    """First stopped index along every joint path, read node by node."""
    tree, lat = rule.tree, rule.tree.lat
    shape = (lat.num_paths, 1) if tree.w_free else (lat.num_paths, lat.num_paths)
    out = np.full(shape, lat.steps, dtype=np.int16)
    stopped = np.zeros(shape, dtype=bool)
    for k, local in tree.joint_layers():
        dec = rule.decision[tree.offsets[k] + local]
        newly = dec & ~stopped
        out[newly] = k
        stopped |= newly
    return out


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(TREES)), steps=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), p_stop=st.sampled_from([0.0, 0.05, 0.25, 0.6, 1.0]))
def test_rule_primitives_equal_per_path_oracle(name, steps, seed, p_stop):
    lat = m.build_lattice(steps, 0.5, 3.0, 1.0, 1.0)
    tree = TREES[name](lat)
    rng = np.random.default_rng(seed)
    raw = rng.random(tree.num_nodes) < p_stop
    rule = m.StoppingRule(tree, raw)
    want = canonical_oracle(tree, raw)
    assert rule.decision.dtype == want.dtype and np.array_equal(rule.decision, want)
    got, expect = rule.stop_steps(), stop_steps_oracle(rule)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.array_equal(got, expect)
    # the constructors that skip canonicalising, or build from times, stay canonical
    k0 = int(rng.integers(0, steps + 1))
    at = m.StoppingRule.stop_at(tree, k0)
    assert np.array_equal(at.decision, canonical_oracle(tree, at.decision))
    assert np.array_equal(at.stop_steps(), stop_steps_oracle(at))
    timed = m.StoppingRule.from_times(tree, expect)
    assert np.array_equal(timed.decision, canonical_oracle(tree, timed.decision))
    assert timed == rule


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["public", "full", "signal-1"]), steps=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5), cols=st.integers(0, 6))
def test_steps_at_and_date_counts_equal_per_path_loop(name, steps, seed, rows, cols):
    lat = m.build_lattice(steps, 0.5, 3.0, 1.0, 1.0)
    rule = m.random_rule(TREES[name](lat), np.random.default_rng(seed))
    n, K = lat.num_paths, lat.steps
    joint = np.broadcast_to(rule.stop_steps(), (n, n))  # every joint path, (b, w)
    rng = np.random.default_rng(seed + 1)
    # scalar ids
    b, w = int(rng.integers(n)), int(rng.integers(n))
    assert rule.steps_at(b, w) == joint[b, w]
    # a row: one common path, many idiosyncratic paths; and paired rows
    bs, ws = rng.integers(n, size=cols), rng.integers(n, size=cols)
    assert rule.steps_at(b, ws).tolist() == [joint[b, x] for x in ws.tolist()]
    assert rule.steps_at(bs, ws).tolist() == [joint[p, x] for p, x in zip(bs.tolist(), ws.tolist())]
    # broadcast: one common path per row, a block of idiosyncratic paths
    bs, ws = rng.integers(n, size=rows), rng.integers(n, size=(rows, cols))
    got = rule.steps_at(bs[:, None], ws)
    want = [[joint[p, x] for x in row] for p, row in zip(bs.tolist(), ws.tolist())]
    assert got.shape == (rows, cols) and got.tolist() == want
    # date counts of those rows, and of the stored table as conditional_law reads it
    for table in (got, rule.stop_steps()):
        loop = np.zeros((len(table), K + 1), dtype=np.int64)
        for i, row in enumerate(table.tolist()):
            for date in row:
                loop[i, date] += 1
        counts = date_counts(table, K)
        assert counts.dtype == loop.dtype and np.array_equal(counts, loop)


def row_major_law(rule):
    """A rule's law built path by path, as a row-major float64 table: the
    formula that ``conditional_law``'s by-date build must match bit for bit."""
    lat = rule.tree.lat
    steps = rule.stop_steps()
    kk = np.arange(lat.steps + 1, dtype=np.int16)
    if steps.shape[1] == 1:
        return (steps <= kk[None, :]).astype(float)
    return np.cumsum(date_counts(steps, lat.steps), axis=1) / float(lat.num_paths)


def law_faults(cdf, rng):
    """Copies of a valid law's table that each break one check of
    ``AdaptedMeasure``, with the message that check raises."""
    n, K = cdf.shape[0], cdf.shape[1] - 1
    b = int(rng.integers(n))
    faults = []
    bad = cdf.copy()
    bad[b, int(rng.integers(K + 1))] = rng.choice([-0.25, 1.5, np.nan])
    faults.append((bad, r"cdf values must lie in \[0, 1\]"))
    bad = cdf.copy()
    bad[b, 0], bad[b, 1] = 1.0, 0.0
    faults.append((bad, "cdf must be nondecreasing along each path"))
    bad = cdf.copy()
    bad[b] = 0.0
    faults.append((bad, "cdf must equal 1 at the horizon"))
    # one path stops from step k on while the other paths of its k-step prefix
    # do not; if everyone stops at date 0, one path waits to the horizon instead
    open_cells = np.argwhere(cdf[:, :K] < 1.0)
    bad = cdf.copy()
    if len(open_cells):
        b, k = open_cells[int(rng.integers(len(open_cells)))].tolist()
        bad[b, k:] = 1.0
    else:
        k = 0
        bad[b, :K] = 0.0
    faults.append((bad, f"cdf not adapted at step {k}"))
    return faults


def layouts(table):
    """The table in C order, in Fortran order and, where its values are all
    0 or 1, as booleans (a boolean table cannot leave [0, 1])."""
    out = [np.ascontiguousarray(table), np.asfortranarray(table)]
    if np.isin(table, (0.0, 1.0)).all():
        out.append(table.astype(bool))
    return out


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["public", "full", "signal-1"]), steps=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), p_stop=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
def test_conditional_law_by_date_equals_row_major_and_checks_every_fault(
        name, steps, seed, p_stop):
    lat = m.build_lattice(steps, 0.5, 3.0, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    rule = m.random_rule(TREES[name](lat), rng, p_stop=p_stop)
    law, want = m.conditional_law(rule), row_major_law(rule)
    assert law.cdf.shape == want.shape and law.cdf.dtype == want.dtype == np.float64
    assert np.array_equal(law.cdf, want)
    assert law.cdf.T.flags.c_contiguous and not law.cdf.flags.writeable
    for table in layouts(want):
        assert m.AdaptedMeasure(lat, table) == law
    for bad, message in law_faults(want, rng):
        for table in layouts(bad):
            with pytest.raises(ValueError, match=f"^{message}$"):
                m.AdaptedMeasure(lat, table)
