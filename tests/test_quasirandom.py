"""Box norm, correlation bound, one-sided criterion."""

import numpy as np

from bogolib.quasirandom import (
    BipartiteGraph,
    box_norm,
    correlation_bound_check,
    one_sided_qr,
)
from bogolib.rng import derive_rng

TOL = 1e-9


def test_box_norm_examples():
    full = BipartiteGraph(np.ones((4, 4), dtype=bool))
    assert box_norm(full.adjacency - full.density) < TOL
    assert abs(box_norm(np.full((3, 5), 0.7)) - 0.7) < TOL
    single = np.zeros((2, 2), dtype=bool)
    single[0, 0] = True
    g = BipartiteGraph(single)
    assert abs(box_norm(g.adjacency - g.density) - (7 / 256) ** 0.25) < TOL


def test_box_norm_fourfold_bruteforce():
    rng = derive_rng(79)
    f = rng.normal(size=(3, 4))
    total = 0.0
    for x0 in range(3):
        for x1 in range(3):
            for y0 in range(4):
                for y1 in range(4):
                    total += f[x0, y0] * f[x1, y0] * f[x0, y1] * f[x1, y1]
    expected = (total / (9 * 16)) ** 0.25
    assert abs(box_norm(f) - expected) < TOL


def test_box_norm_is_a_norm():
    rng = derive_rng(83)
    for _ in range(20):
        f = rng.normal(size=(5, 6))
        g = rng.normal(size=(5, 6))
        assert box_norm(f + g) <= box_norm(f) + box_norm(g) + TOL
        c = float(rng.normal())
        assert abs(box_norm(c * f) - abs(c) * box_norm(f)) < 1e-7
    assert box_norm(np.zeros((4, 4))) < TOL


def test_box_norm_vanishing_iff_degenerate_correlations():
    # rank-degenerate rows with cancelling inner products
    f = np.array([[1.0, -1.0], [1.0, -1.0]])
    inner = (f @ f.T) / 2
    assert np.abs(inner).max() > 0.5  # correlations do not vanish
    assert box_norm(f) > 0.5
    g = np.array([[1.0, 1.0], [-1.0, -1.0]]) @ np.array([[1.0, -1.0], [1.0, -1.0]]) * 0
    assert box_norm(g) < TOL


def test_correlation_bound_examples():
    rng = derive_rng(89)
    f = rng.choice([-1.0, 1.0], size=(6, 6))
    zeros = np.zeros(6)
    lhs, rhs = correlation_bound_check(f, zeros, zeros)
    assert lhs == 0.0 and rhs == 0.0
    # rank one: equality up to normalization
    u0 = rng.normal(size=6)
    v0 = rng.normal(size=6)
    rank_one = np.outer(u0, v0)
    lhs, rhs = correlation_bound_check(rank_one, u0, v0)
    assert lhs <= rhs + TOL
    for _ in range(25):
        f = rng.choice([-1.0, 1.0], size=(8, 8))
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        lhs, rhs = correlation_bound_check(f, u, v)
        assert lhs <= rhs + TOL


def test_one_sided_qr_examples():
    comp = BipartiteGraph(np.ones((5, 7), dtype=bool))
    res = one_sided_qr(comp, 1.0, 0.0)
    assert res.conditions_hold and res.box_bound_holds and res.box_norm < TOL
    empty = BipartiteGraph(np.zeros((5, 7), dtype=bool))
    assert one_sided_qr(empty, 0.0, 0.0).conditions_hold
    rng = derive_rng(103)
    g = BipartiteGraph(rng.random((64, 64)) < 0.5)
    probe = one_sided_qr(g, 0.5, 1.0)
    eps = max(probe.degree_deviation, probe.pair_deviation)
    res = one_sided_qr(g, 0.5, eps)
    assert res.conditions_hold and res.box_bound_holds


def test_one_sided_qr_exhaustive_tiny():
    # all graphs on 2 x 2 classes: hypothesis at the measured eps never
    # contradicts the box bound
    for bits in range(16):
        mat = np.array(
            [[bool(bits >> (2 * i + j) & 1) for j in range(2)] for i in range(2)]
        )
        g = BipartiteGraph(mat)
        probe = one_sided_qr(g, g.density, 1.0)
        eps = max(probe.degree_deviation, probe.pair_deviation)
        res = one_sided_qr(g, g.density, eps)
        assert res.conditions_hold
        assert res.box_bound_holds


def test_battery_one_sided_statistics_match_one_sided_qr():
    """Criterion 11's per-graph eps and box norm, on a seeded sample of the
    2^16 graphs on 4 + 4 vertices, against ``one_sided_qr`` on each graph."""
    from bogolib.suites import _one_sided_statistics

    eps, box = _one_sided_statistics()
    assert eps.shape == box.shape == (1 << 16,)
    rng = derive_rng(107)
    sample = [0, 1, (1 << 16) - 1, *rng.choice(1 << 16, size=200, replace=False).tolist()]
    for i in sample:
        g = BipartiteGraph(((i >> np.arange(16)) & 1).reshape(4, 4).astype(bool))
        probe = one_sided_qr(g, g.density, 1.0)
        assert abs(max(probe.degree_deviation, probe.pair_deviation) - eps[i]) < TOL
        assert abs(probe.box_norm - box[i]) < TOL
        res = one_sided_qr(g, g.density, float(eps[i]))
        assert res.conditions_hold and res.box_bound_holds
