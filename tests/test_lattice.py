import numpy as np
import pytest

import mfgtiming as m


def test_build_lattice_smallest():
    lat = m.build_lattice(1, 1.0, 0.0, 1.0, 1.0)
    assert lat.num_paths == 2
    assert np.array_equal(lat.grid, [0.0, 1.0])
    assert sorted(lat.b_values[:, 1]) == [-1.0, 1.0]


def test_build_lattice_binomial_counting():
    lat = m.build_lattice(3, 0.5, 3.0, 1.0, 1.0)
    assert lat.num_paths == 8
    terminal = lat.b_values[:, -1]
    counts = {v: int(np.sum(terminal == v)) for v in (0.0, 2.0, 4.0, 6.0)}
    assert counts == {0.0: 1, 2.0: 3, 4.0: 3, 6.0: 1}


def test_build_lattice_cap():
    with pytest.raises(ValueError, match="lattice too large"):
        m.build_lattice(15, 1.0, 0.0, 1.0, 1.0)
    lat = m.build_lattice(15, 1.0, 0.0, 1.0, 1.0, max_steps=15)
    assert lat.steps == 15


def test_build_lattice_validation():
    for bad in [dict(steps=0), dict(dt=0.0), dict(db=-1.0), dict(dw=0.0)]:
        kwargs = dict(steps=2, dt=1.0, b0=0.0, db=1.0, dw=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            m.build_lattice(**kwargs)


def test_time_index_off_grid():
    lat = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    assert lat.time_index(0.5) == 1
    with pytest.raises(ValueError, match="time not on grid"):
        lat.time_index(0.3)


def test_path_id_round_trip():
    lat = m.build_lattice(4, 0.5, 2.0, 0.7, 1.0)
    for pid in range(lat.num_paths):
        assert lat.path_id_from_values(lat.b_values[pid]) == pid


def test_empirical_measure_counts():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    gm = m.empirical_measure([0.0, 1.0, 1.0], lat)
    assert gm.mass[0] == pytest.approx(1 / 3)
    assert gm.mass[1] == pytest.approx(2 / 3)
    assert gm.mass[2] == 0.0


def test_empirical_measure_point_mass():
    lat = m.build_lattice(3, 0.5, 0.0, 1.0, 1.0)
    gm = m.empirical_measure([lat.horizon] * 7, lat)
    assert gm == m.point_mass(lat, lat.steps)


def test_empirical_measure_cdf():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    gm = m.empirical_measure([0.0, 0.0, 0.0, 2.0], lat)
    assert gm.cdf[0] == 0.75
    assert gm.cdf[2] == 1.0


def test_empirical_measure_errors():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        m.empirical_measure([], lat)
    with pytest.raises(ValueError, match="time not on grid"):
        m.empirical_measure([0.7], lat)


def test_grid_measure_half_open_vs_closed():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    gm = m.empirical_measure([0.0, 1.0], lat)
    assert gm.mass_before(0) == 0.0
    assert gm.mass_before(1) == 0.5
    assert gm.mass_upto(1) == 1.0


def test_grid_measure_index_out_of_range():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    gm = m.point_mass(lat, 1)
    assert gm.mass_before(lat.steps) == gm.mass_upto(lat.steps) == 1.0
    # a negative index would otherwise wrap around to the horizon
    with pytest.raises(ValueError, match="out of range"):
        gm.mass_upto(-1)
    with pytest.raises(ValueError, match="out of range"):
        gm.mass_before(lat.steps + 1)


def test_cdf_uniform_distance():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    d0 = m.point_mass(lat, 0)
    dT = m.point_mass(lat, 2)
    uni = m.empirical_measure([0.0, 1.0], lat)
    assert m.cdf_uniform_distance(d0, d0) == 0.0
    assert m.cdf_uniform_distance(d0, dT) == 1.0
    assert m.cdf_uniform_distance(uni, d0) == 0.5
    other = m.build_lattice(3, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        m.cdf_uniform_distance(d0, m.point_mass(other, 0))


def test_adapted_measure_validation():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    good = np.tile([0.0, 0.5, 1.0], (4, 1))
    m.AdaptedMeasure(lat, good)
    bad = good.copy()
    bad[:, 1] = [0.5, 0.5, 0.25, 0.25]  # depends on the second increment
    with pytest.raises(ValueError, match="not adapted"):
        m.AdaptedMeasure(lat, bad)
    decreasing = np.tile([0.5, 0.25, 1.0], (4, 1))
    with pytest.raises(ValueError, match="nondecreasing"):
        m.AdaptedMeasure(lat, decreasing)
    open_end = np.tile([0.0, 0.5, 0.75], (4, 1))
    with pytest.raises(ValueError, match="horizon"):
        m.AdaptedMeasure(lat, open_end)


def test_stochastic_order_extremes_and_reflexivity():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    tree = m.public_tree(lat)
    now = m.conditional_law(m.StoppingRule.stop_at(tree, 0))
    end = m.conditional_law(m.StoppingRule.stop_at(tree, 2))
    assert m.stochastic_leq(now, end)
    assert not m.stochastic_leq(end, now)
    assert m.stochastic_leq(now, now) and m.stochastic_leq(end, end)


def test_stochastic_order_crossing_cdfs_incomparable():
    lat = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    half = m.AdaptedMeasure(lat, np.tile([0.5, 0.5, 1.0], (4, 1)))
    mid = m.AdaptedMeasure(lat, np.tile([0.0, 1.0, 1.0], (4, 1)))
    assert not m.stochastic_leq(half, mid)
    assert not m.stochastic_leq(mid, half)


def test_stochastic_order_is_partial_order():
    # reflexive / antisymmetric / transitive on random adapted measures
    lat = m.build_lattice(3, 1.0, 0.0, 1.0, 1.0)
    tree = m.full_tree(lat)
    rng = np.random.default_rng(11)
    laws = [m.conditional_law(m.random_rule(tree, rng)) for _ in range(12)]
    for a in laws:
        assert m.stochastic_leq(a, a)
    for a in laws:
        for b in laws:
            if m.stochastic_leq(a, b) and m.stochastic_leq(b, a):
                assert np.array_equal(a.cdf, b.cdf)
            for c in laws:
                if m.stochastic_leq(a, b) and m.stochastic_leq(b, c):
                    assert m.stochastic_leq(a, c)


def test_lattice_mismatch_rejected():
    a = m.build_lattice(2, 1.0, 0.0, 1.0, 1.0)
    b = m.build_lattice(2, 0.5, 0.0, 1.0, 1.0)
    mu_a = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(a), 0))
    mu_b = m.conditional_law(m.StoppingRule.stop_at(m.public_tree(b), 0))
    with pytest.raises(ValueError, match="lattice mismatch"):
        m.stochastic_leq(mu_a, mu_b)
