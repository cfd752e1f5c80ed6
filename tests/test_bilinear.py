"""Bilinear sets, varieties, regularity, covering loop, experiment."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib import bilinear, fourier, groups
from bogolib.bilinear import (
    BilinearVariety,
    BiSet,
    d_hor,
    d_ver,
    exhaustive_hom_finder,
    iterated_difference,
    linear_cover,
    linear_map_on_progression,
    main_theorem_experiment,
    qr_property_check,
    regularity_partition,
    sample_biset,
    variety_contained_in,
    variety_membership_bruteforce,
)
from bogolib.cli import DEFAULT_BUDGET, run_experiment
from bogolib.errors import PreconditionError
from bogolib.groups import GroupSubset
from bogolib.progressions import Arm, CosetProgression, FreimanMap
from bogolib.rng import derive_rng
from oracles import is_freiman_linear


def test_difference_operator_examples():
    gx, gy = bg.make_group([2]), bg.make_group([2])
    empty = BiSet.empty(gx, gy)
    assert d_hor(empty) == empty and d_ver(empty) == empty
    full = BiSet.full(gx, gy)
    assert d_hor(full) == full and d_ver(full) == full
    a = BiSet.from_flat_indices(gx, gy, [0, 1, 2])  # (0,0), (1,0), (0,1)
    assert sorted(np.flatnonzero(d_hor(a).matrix.reshape(-1))) == [0, 1, 2]
    assert sorted(np.flatnonzero(d_ver(a).matrix.reshape(-1))) == [0, 1, 2]


def test_transpose_duality():
    rng = derive_rng(61)
    for _ in range(10):
        gx = bg.make_group([int(rng.integers(2, 6)), int(rng.integers(2, 4))])
        gy = bg.make_group([int(rng.integers(2, 8))])
        mat = rng.random((gy.order, gx.order)) < 0.4
        a = BiSet(gx, gy, mat)
        assert d_ver(a) == d_hor(a.transpose()).transpose()


def test_d_hor_rows_symmetric_with_zero():
    rng = derive_rng(67)
    gx, gy = bg.make_group([12]), bg.make_group([5])
    a = BiSet(gx, gy, rng.random((5, 12)) < 0.3)
    d = d_hor(a)
    for y in range(5):
        row = d.row(y)
        if row.size:
            assert 0 in row
            assert row == row.negate()
    # monotone in A
    bigger = BiSet(gx, gy, a.matrix | (rng.random((5, 12)) < 0.2))
    assert d_hor(a).is_subset_of(d_hor(bigger))
    assert d_ver(a).is_subset_of(d_ver(bigger))


def test_iterated_difference_word():
    gx, gy = bg.make_group([4]), bg.make_group([4])
    rng = derive_rng(71)
    a = BiSet(gx, gy, rng.random((4, 4)) < 0.5)
    assert iterated_difference(a, "") == a
    assert iterated_difference(a, "hv") == d_hor(d_ver(a))  # rightmost first
    full = BiSet.full(gx, gy)
    assert iterated_difference(full, "hvvhvhh") == full
    row_mat = np.zeros((4, 4), dtype=bool)
    row_mat[0, :] = True
    row = BiSet(gx, gy, row_mat)
    assert iterated_difference(row, "hvvhvhh") == row
    for word in ("hxv", "hxh", "x", "hv "):
        # the word is checked whole, even where the set is full before a bad letter
        for operand in (a, full):
            with pytest.raises(ValueError):
                iterated_difference(operand, word)


def _oracle_differences(gx, gy, mat, word):
    """Row and column differences as Python sets, read off a subtraction
    table built from coordinates; no FFT."""
    tables = {}
    for ch, g in (("h", gx), ("v", gy)):
        c = g.coords_matrix
        tables[ch] = g.index_of_coords(c[:, None, :] - c[None, :, :])
    for ch in reversed(word):
        lines = mat if ch == "h" else mat.T
        out = np.zeros_like(lines)
        for i, line in enumerate(lines):
            members = np.flatnonzero(line)
            diffs = set(tables[ch][np.ix_(members, members)].ravel().tolist())
            out[i, sorted(diffs)] = True
        mat = out if ch == "h" else out.T
    return mat


def test_difference_operators_match_set_oracle():
    rng = derive_rng(73)
    pairs = [([4, 6, 5], [16]), ([2, 2, 8], [3, 5]), ([24], [28])]
    words = ["h", "v", "hv", "vh", "vvh", "hvh", "hvvhvhh"]
    saturated = unsaturated = 0
    for moduli_x, moduli_y in pairs:
        gx, gy = bg.make_group(moduli_x), bg.make_group(moduli_y)
        for density in (0.02, 0.08, 0.3):
            for word in words:
                mat = rng.random((gy.order, gx.order)) < density
                mat[int(rng.integers(gy.order)), :] = False
                mat[:, int(rng.integers(gx.order))] = False
                a = BiSet(gx, gy, mat)
                expected = _oracle_differences(gx, gy, mat, word)
                if len(word) == 1:
                    op = d_hor if word == "h" else d_ver
                    assert np.array_equal(op(a).matrix, expected)
                d = iterated_difference(a, word)
                assert np.array_equal(d.matrix, expected)
                saturated += bool(d.matrix.all())
                unsaturated += not d.matrix.all()
    assert saturated and unsaturated


def test_difference_rounding_margin_is_checked(monkeypatch):
    gx, gy = bg.make_group([4, 6]), bg.make_group([5])
    a = BiSet(gx, gy, derive_rng(79).random((5, 24)) < 0.3)
    expected = d_hor(a), d_ver(a)
    exact = groups._exact_counts  # the float counts enter the kernel's rounding here
    monkeypatch.setattr(groups, "_exact_counts", lambda counts: exact(counts + 0.2))
    assert (d_hor(a), d_ver(a)) == expected  # inside the margin: same sets
    monkeypatch.setattr(groups, "_exact_counts", lambda counts: exact(counts + 0.3))
    for op in (d_hor, d_ver):
        with pytest.raises(ArithmeticError):
            op(a)
    with pytest.raises(ArithmeticError):
        iterated_difference(a, "hv")


def test_iterated_difference_stops_at_saturation(monkeypatch):
    helper = bilinear._convolution_counts
    calls = []

    def counting(*args):
        calls.append(1)
        return helper(*args)

    monkeypatch.setattr(bilinear, "_convolution_counts", counting)
    gx, gy = bg.make_group([4, 2]), bg.make_group([6])
    full = BiSet.full(gx, gy)
    assert iterated_difference(full, "hvvhvhh") == full
    assert len(calls) == 0
    mat = np.ones((6, 8), dtype=bool)
    mat[0, 0] = False  # row 0 is G minus a point; its differences are all of G
    assert iterated_difference(BiSet(gx, gy, mat), "hvvhvhh") == full
    assert len(calls) == 1
    row_mat = np.zeros((6, 8), dtype=bool)
    row_mat[0, :] = True  # G x {0} is fixed by both operators but never full
    row = BiSet(gx, gy, row_mat)
    assert iterated_difference(row, "hvvhvhh") == row
    assert len(calls) == 1 + 7


def test_is_freiman_linear():
    gy = bg.make_group([16])
    dual = bg.make_group([16]).dual
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 3)])
    zero = linear_map_on_progression(c, dual, [dual.element([0])])
    assert is_freiman_linear(zero)
    genuine = linear_map_on_progression(c, dual, [dual.element([3])])
    assert is_freiman_linear(genuine)
    const_values = np.where(c.enumerate().mask, dual.element([5]).index, -1)
    const = FreimanMap(c, dual, const_values, 2)
    assert not is_freiman_linear(const)  # L(0) must vanish


def test_variety_enumerate_trivial():
    gx, gy = bg.make_group([8]), bg.make_group([8])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 2)])
    v = BilinearVariety(gx, (), Fraction(1, 2), c, ())
    assert v.size == gx.order * c.size
    chi = gx.dual.element([1])
    v2 = BilinearVariety(gx, (chi,), Fraction(1, 2), c, ())
    assert v2.size == gx.order * c.size
    v3 = BilinearVariety(gx, (chi,), Fraction(1, 8), c, ())
    b = bg.bounded_span(gx, [gx.element([1])], 1)
    assert v3.size == 3 * c.size


def test_variety_matches_bruteforce():
    rng = derive_rng(73)
    for _ in range(5):
        gx = bg.make_group([int(rng.integers(3, 9))])
        gy = bg.make_group([int(rng.integers(4, 9))])
        half = max(1, int(rng.integers(1, max(2, gy.order // 2))))
        c = CosetProgression.symmetric(gy, [(gy.element([1]), min(half, (gy.order - 1) // 2))])
        dual = gx.dual
        w = dual.element_from_index(int(rng.integers(0, gx.order)))
        lmap = linear_map_on_progression(c, dual, [w])
        chi = dual.element_from_index(int(rng.integers(0, gx.order)))
        v = BilinearVariety(
            gx, (chi,), Fraction(1, int(rng.integers(3, 6))), c, (lmap,)
        )
        assert v.enumerate() == variety_membership_bruteforce(v)


def test_variety_contained_in():
    gx, gy = bg.make_group([4]), bg.make_group([4])
    c = CosetProgression.singleton(gy.zero)
    v = BilinearVariety(gx, (), Fraction(1, 2), c, ())
    assert variety_contained_in(v, BiSet.full(gx, gy))
    assert not variety_contained_in(v, BiSet.empty(gx, gy))


def test_qr_check_degenerate():
    gx, gy = bg.make_group([16]), bg.make_group([16])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 5)])
    res = qr_property_check(c, [], [], Fraction(1, 4), Fraction(1, 8), gx)
    assert res.delta == 1.0 and res.pass_i and res.pass_ii
    zero = linear_map_on_progression(c, gx.dual, [gx.dual.element([0])])
    res = qr_property_check(c, [], [zero], Fraction(1, 4), Fraction(1, 8), gx)
    assert res.delta == 1.0 and res.pass_i and res.pass_ii


def test_qr_check_against_direct_sizes():
    from bogolib.bohr import bohr_enumerate

    gx, gy = bg.make_group([9]), bg.make_group([9])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 3)])
    dual = gx.dual
    lmap = linear_map_on_progression(c, dual, [dual.element([1])])
    rho = Fraction(1, 4)
    res = qr_property_check(c, [], [lmap], rho, Fraction(1, 4), gx)
    sizes = []
    for yi in c.enumerate().indices():
        sizes.append(bohr_enumerate(gx, [lmap(yi)], rho).size)
    base = gx.order
    assert res.delta == float(np.median(sizes)) / base


def _qr_check_oracle(cell, gamma, maps, rho_i, eta, group_x):
    """``qr_property_check`` from its own numerator loop, one per character
    of Gamma and one per map, with the radius compared in Python integers."""
    rho_i = Fraction(rho_i)
    eta_f = float(eta)
    ys = cell.enumerate().indices()
    e = group_x.exponent
    base_num = np.zeros(group_x.order, dtype=np.int64)
    for chi in gamma:
        n = group_x.char_numerators(np.asarray([chi.index]), group_x.dual)[0]
        base_num = np.maximum(base_num, np.minimum(n, e - n))
    row_num = np.broadcast_to(base_num, (ys.size, group_x.order))
    for fmap in maps:
        n = group_x.char_numerators(fmap.at(ys), fmap.codomain)
        row_num = np.maximum(row_num, np.minimum(n, e - n))
    num, den = rho_i.numerator, rho_i.denominator
    b0 = int((base_num.astype(object) * den <= num * e).sum())
    row_masks = (row_num.astype(object) * den <= num * e).astype(bool)
    sizes = row_masks.sum(axis=1)
    delta = float(np.median(sizes)) / b0 if b0 else 1.0
    tol = eta_f * group_x.order + 1e-9
    fail_i = float(np.mean(np.abs(sizes - delta * b0) > tol))
    sampled = ys.size * ys.size > bilinear._PAIR_CUTOFF
    if not sampled:
        f = row_masks.astype(np.float64)
        inter = f @ f.T
    else:
        rng = derive_rng(0, 29)
        ia = rng.integers(0, ys.size, size=bilinear._PAIR_SAMPLES)
        ib = rng.integers(0, ys.size, size=bilinear._PAIR_SAMPLES)
        inter = (row_masks[ia] & row_masks[ib]).sum(axis=1)
    fail_ii = float(np.mean(np.abs(inter - delta * delta * b0) > tol))
    return bilinear.QRCheck(
        delta, fail_i <= eta_f + 1e-12, fail_ii <= eta_f + 1e-12, fail_i, fail_ii, sampled
    )


def test_qr_check_matches_numerator_loop_oracle():
    rng = derive_rng(131)
    shapes = [([16], [16]), ([12], [4, 6]), ([2, 8], [9]), ([27], [3, 9]), ([8], [2200])]
    sampled = wide = 0
    for case in range(40):
        gx_shape, gy_shape = shapes[case % len(shapes)]
        gx, gy = bg.make_group(gx_shape), bg.make_group(gy_shape)
        dual = gx.dual
        if gy.order > 1000:
            arms = [(gy.element([1]), 530)]
        else:
            arms = [
                (gy.element([int(j == i) for j in range(gy.rank)]), int(rng.integers(0, q // 2)))
                for i, q in enumerate(gy.moduli)
            ]
        cell = CosetProgression.symmetric(gy, arms)
        if case % 3:
            cell = cell.translate(gy.element_from_index(int(rng.integers(0, gy.order))))
        def chars(k):
            return [dual.element_from_index(int(i)) for i in rng.integers(0, dual.order, size=k)]

        gamma = chars(case % 3)
        maps = [
            linear_map_on_progression(cell, dual, chars(len(arms)))
            for _ in range(int(rng.integers(0, 3)))
        ]
        e = gx.exponent
        rho = [
            Fraction(int(rng.integers(0, e // 2 + 1)), e),
            Fraction(int(rng.integers(1, 64)), 128),
            Fraction(int(rng.integers(1, 1 << 20)), (1 << 21) + 1),
            Fraction(int(rng.integers(1, e // 2 + 1)), e) - Fraction(1, 2**80),
        ][case % 4]
        eta = Fraction(1, int(rng.choice([2, 4, 8])))
        res = qr_property_check(cell, gamma, maps, rho, eta, gx)
        assert res == _qr_check_oracle(cell, gamma, maps, rho, eta, gx)
        sampled += res.sampled
        wide += rho.denominator * e >= 1 << 62
    assert sampled and wide


def test_regularity_trivial_cases():
    gx, gy = bg.make_group([16]), bg.make_group([16])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 7)])
    res = regularity_partition(c, [], [], Fraction(1, 4), Fraction(1, 4), 8, gx)
    assert res.certified and len(res.cells) == 1
    zero = linear_map_on_progression(c, gx.dual, [gx.dual.element([0])])
    res = regularity_partition(c, [], [zero], Fraction(1, 4), Fraction(1, 4), 8, gx)
    assert res.certified and len(res.cells) == 1


def test_regularity_linear_instance_recheck():
    gx, gy = bg.make_group([16]), bg.make_group([16])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 7)])
    lmap = linear_map_on_progression(c, gx.dual, [gx.dual.element([1])])
    res = regularity_partition(c, [], [lmap], Fraction(1, 4), Fraction(1, 4), 8, gx)
    assert res.cells
    for cell in res.cells:
        if cell.certified:
            again = qr_property_check(
                cell.progression, [], [lmap], cell.rho, Fraction(1, 4), gx
            )
            assert again.pass_i and again.pass_ii
            assert Fraction(1, 8) <= cell.rho <= Fraction(1, 4)


def _value_mask(h, dual, value_sets):
    """linear_cover's U: row y holds the value set U_y, a list of characters."""
    u = np.zeros((h.order, dual.order), dtype=bool)
    for yi, vals in value_sets.items():
        u[yi, [v.index for v in vals]] = True
    return u


def test_linear_cover_trivial_and_linear():
    h = bg.make_group([16])
    dual = bg.make_group([16]).dual
    y = GroupSubset.full(h)
    zeros = np.zeros((16, 16), dtype=bool)
    zeros[:, 0] = True
    res = linear_cover(y, dual, zeros, rounds_cap=4, seed=2)
    assert len(res.maps) == 1 and res.complete
    u = _value_mask(h, dual, {i: [dual.element([0]), dual.element([i])] for i in range(16)})
    res = linear_cover(y, dual, u, rounds_cap=8, seed=2)
    assert res.complete
    found_linear = False
    for m in res.maps[1:]:
        matches = int(np.sum(m.values == np.arange(16)))
        if matches >= 4:
            found_linear = True
    assert found_linear
    empty = linear_cover(GroupSubset.empty(h), dual, zeros & False, rounds_cap=2, seed=0)
    assert empty.maps == () and empty.complete
    # U is a (|H|, |dual|) mask, and every U_y of Y holds 0
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, zeros[:, :8], rounds_cap=2, seed=0)
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, zeros.T[:, :, None], rounds_cap=2, seed=0)
    lacking = zeros.copy()
    lacking[5, 0] = False
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, lacking, rounds_cap=2, seed=0)
    assert linear_cover(GroupSubset.from_indices(h, [0, 1]), dual, lacking).complete


def test_linear_cover_maps_are_freiman_linear_after_recentring():
    h = bg.make_group([16])
    dual = bg.make_group([16]).dual
    y = GroupSubset.full(h)
    u = _value_mask(h, dual, {i: [dual.element([0]), dual.element([3 * i])] for i in range(16)})
    res = linear_cover(y, dual, u, rounds_cap=8, seed=5)
    for m in res.maps:
        dom = m.domain
        base = dom.base
        recent = dom.translate(-base)
        base_val = m(min(int(i) for i in dom.enumerate().indices()))
        values = np.full(h.order, -1, dtype=np.int64)
        for idx in recent.enumerate().indices():
            src = base + h.element_from_index(int(idx))
            values[idx] = (m(src) - base_val).index
        assert is_freiman_linear(FreimanMap(recent, dual, values, 2))


def test_hom_finder_linear_data():
    h = bg.make_group([16])
    dual = bg.make_group([16]).dual
    pts = np.full(16, -1, dtype=np.int64)
    pts[::2] = [dual.element([5 * i]).index for i in range(0, 16, 2)]
    m = exhaustive_hom_finder(h, dual, pts)
    assert m is not None
    agree = int(np.sum((pts >= 0) & (m.values == pts)))
    assert agree >= 3


def _brute_best_agreement(group, dual, points, min_agree=3):
    """Best affine fit t(anchor + k v) = t0 + k w over every direction v and
    every w, on the best-populated <v>-line anchored at its smallest k, in
    GroupElement arithmetic; 0 when no line holds min_agree points."""
    best = 0
    for v in group.elements():
        if v.is_zero:
            continue
        line_of = {}
        for p in points:
            y = group.element_from_index(p)
            line_of[p] = min(((y - k * v).index, k) for k in range(v.order))
        counts = Counter(rep for rep, _ in line_of.values())
        top = max(counts.values())
        line = min(rep for rep, c in counts.items() if c == top)
        on_line = sorted((k, p) for p, (rep, k) in line_of.items() if rep == line)
        if len(on_line) < min_agree:
            continue
        k0, p0 = on_line[0]
        t0 = points[p0]
        for w in dual.elements():
            agree = sum(1 for k, p in on_line if t0 + (k - k0) * w == points[p])
            best = max(best, agree)
    return best


def test_hom_finder_agreement_matches_bruteforce():
    rng = derive_rng(79)
    shapes = [[8], [9], [12], [16], [4, 2], [2, 6], [2, 2, 2], [4, 4], [3, 3]]
    found = 0
    for case in range(120):
        group = bg.make_group(shapes[case % len(shapes)])
        dual = bg.make_group(shapes[int(rng.integers(0, len(shapes)))]).dual
        size = int(rng.integers(3, group.order + 1))
        idx = sorted(int(i) for i in rng.choice(group.order, size=size, replace=False))
        if case % 2:
            # planted affine data along a random direction, plus noise
            v = group.element_from_index(int(rng.integers(1, group.order)))
            w = dual.element_from_index(int(rng.integers(0, dual.order)))
            points = {(k * v).index: k * w for k in range(v.order)}
            for i in idx[: size // 3]:
                points[i] = dual.element_from_index(int(rng.integers(0, dual.order)))
        else:
            points = {
                i: dual.element_from_index(int(rng.integers(0, dual.order))) for i in idx
            }
        values = np.full(group.order, -1, dtype=np.int64)
        for i, val in points.items():
            values[i] = val.index
        m = exhaustive_hom_finder(group, dual, values)
        want = _brute_best_agreement(group, dual, points)
        if want < 3:
            assert m is None
            continue
        found += 1
        # read the fitted line back from the map and recount its agreement
        anchor, (arm,) = m.domain.base, m.domain.arms
        v, t0 = arm.generator, m(anchor)

        def agreement(w):
            return sum(
                1
                for k in range(v.order)
                if (anchor + k * v).index in points
                and points[(anchor + k * v).index] == t0 + k * w
            )

        assert max(agreement(w) for w in dual.elements()) == want
        if arm.hi >= 1:
            assert agreement(m(anchor + v) - t0) == want
    assert found >= 60


def _hom_finder_oracle(group, dual, points, *, min_agree=3, direction_cap=64):
    """The finder one direction at a time: for each direction v, its shifts
    y - k v for k < ord(v), the best-populated line by np.unique, and the
    agreement of every w on that line."""
    pts_idx = np.flatnonzero(points >= 0)
    if pts_idx.size == 0:
        return None
    pts_val = points[pts_idx]
    pts_coords = group.coords_matrix[pts_idx]
    dual_coords = dual.coords_matrix
    units = [
        group.element(tuple(1 if j == i else 0 for j in range(group.rank))).index
        for i in range(group.rank)
    ]
    directions = units + [
        idx for idx in range(1, min(group.order, direction_cap + 1)) if idx not in units
    ]
    best = None
    for v_idx in directions:
        v = group.element_from_index(v_idx)
        if v.is_zero:
            continue
        ks = np.arange(v.order)
        shifts = group.index_of_coords(
            pts_coords[None, :, :] - ks[:, None, None] * np.asarray(v.coords)
        )
        reps = shifts.min(axis=0)
        k_of = shifts.argmin(axis=0)
        uniq, counts = np.unique(reps, return_counts=True)
        line_rep = int(uniq[np.argmax(counts)])
        on_line = np.flatnonzero(reps == line_rep)
        if on_line.size < min_agree:
            continue
        anchor_pos = on_line[np.argmin(k_of[on_line])]
        k0 = int(k_of[anchor_pos])
        t0 = int(pts_val[anchor_pos])
        steps = k_of[on_line] - k0
        pred = dual.index_of_coords(
            dual_coords[t0] + steps[:, None, None] * dual_coords[None, :, :]
        )
        agree_per_w = (pred == pts_val[on_line][:, None]).sum(axis=0)
        w = int(np.argmax(agree_per_w))
        agree = int(agree_per_w[w])
        if best is None or agree > best[0]:
            best = (agree, v, line_rep, k0, t0, w)
    if best is None or best[0] < min_agree:
        return None
    _, v, line_rep, k0, t0, w = best
    length = -(-v.order // 2)
    anchor = group.element_from_index(line_rep) + k0 * v
    prog = CosetProgression(
        group, anchor, (Arm(v, 0, length - 1),), GroupSubset.from_indices(group, [0])
    )
    ks = np.arange(length)[:, None]
    values = np.full(group.order, -1, dtype=np.int64)
    values[group.index_of_coords(np.asarray(anchor.coords) + ks * v.coords)] = (
        dual.index_of_coords(dual_coords[t0] + ks * dual_coords[w])
    )
    return FreimanMap(prog, dual, values, order=2)


def _finder_cases(rng):
    """Seeded point sets: random values, planted lines with noise, two planted
    lines of equal length (tied lines), lines sampled at even steps into a
    dual of even exponent (tied w), and sets too small or too spread out to
    reach min_agree."""
    shapes = [[8], [12], [16], [4, 2], [2, 6], [2, 2, 2], [4, 4], [3, 3], [2, 3, 4], [6, 10]]
    duals = [[8], [9], [12], [4, 2], [2, 6], [6, 4], [3, 3], [16]]
    for case in range(200):
        group = bg.make_group(shapes[case % len(shapes)])
        dual = bg.make_group(duals[int(rng.integers(0, len(duals)))]).dual
        kind = case % 5
        values = np.full(group.order, -1, dtype=np.int64)
        if kind == 0:
            size = int(rng.integers(1, group.order + 1))
            idx = rng.choice(group.order, size=size, replace=False)
            values[idx] = rng.integers(0, dual.order, size=size)
        elif kind in (1, 2, 3):
            lines = 2 if kind == 2 else 1
            for _ in range(lines):
                v = group.element_from_index(int(rng.integers(1, group.order)))
                base = group.element_from_index(int(rng.integers(0, group.order)))
                t0 = dual.element_from_index(int(rng.integers(0, dual.order)))
                w = dual.element_from_index(int(rng.integers(0, dual.order)))
                stride = 2 if kind == 3 else 1
                for k in range(0, v.order, stride):
                    values[(base + k * v).index] = (t0 + k * w).index
            noise = rng.choice(group.order, size=group.order // 4, replace=False)
            if kind == 1:
                values[noise] = rng.integers(0, dual.order, size=noise.size)
        else:
            # at most two points on any line through a few random directions
            size = int(rng.integers(1, 3))
            idx = rng.choice(group.order, size=size, replace=False)
            values[idx] = rng.integers(0, dual.order, size=size)
        yield group, dual, values
    # many blocks of directions: 64 directions of Z256 against a Z256 dual
    group = bg.make_group([256])
    for _ in range(3):
        values = np.full(256, -1, dtype=np.int64)
        idx = rng.choice(256, size=100, replace=False)
        values[idx] = rng.integers(0, 256, size=100)
        values[np.arange(0, 256, 8)] = (np.arange(32) * 5) % 256
        yield group, group.dual, values


def _same_map(got, want):
    if want is None:
        return got is None
    return (
        got is not None
        and got.domain.base == want.domain.base
        and got.domain.arms == want.domain.arms
        and np.array_equal(got.values, want.values)
    )


def test_hom_finder_matches_per_direction_oracle():
    rng = derive_rng(101)
    found = missing = 0
    for case, (group, dual, values) in enumerate(_finder_cases(rng)):
        min_agree = (3, 2, 4)[case % 3]
        cap = (64, 5)[case % 2]
        got = exhaustive_hom_finder(group, dual, values, min_agree=min_agree, direction_cap=cap)
        want = _hom_finder_oracle(group, dual, values, min_agree=min_agree, direction_cap=cap)
        assert _same_map(got, want), case
        found += want is not None
        missing += want is None
    assert found >= 80 and missing >= 40


def _condition_oracle(y_set, value_sets, maps, seed, rounds, samples):
    """The triple-condition estimate quad block by quad block: every distinct
    (y+z, z, y+w, w) row of one np.unique(axis=0), with both sides summed from
    scratch (six sumsets) per block.  Returns the fraction and the number of
    distinct quads."""
    h = y_set.group
    dual = next(iter(value_sets.values()))[0].group
    u = np.zeros((h.order, dual.order), dtype=bool)
    for yi, vals in value_sets.items():
        u[yi, [v.index for v in vals]] = True
    covered = np.zeros_like(u)
    y_idx = y_set.indices()
    for m in maps:
        vals = m.values[y_idx]
        rows, cols = y_idx[vals >= 0], vals[vals >= 0]
        covered[rows, cols] |= u[rows, cols]
    neg = dual.negation_permutation
    u_neg = u[:, neg]
    rows_per_block = max(1, (1 << 18) // dual.order)

    def sums(left, right):
        return groups._convolution_counts(dual, left, right) > 0.5

    rng = derive_rng(seed, 1000 + rounds)
    ys, zs, ws = (rng.integers(0, h.order, size=samples) for _ in range(3))
    yz, yw = h.add_indices(ys, zs), h.add_indices(ys, ws)
    inside = y_set.mask[zs] & y_set.mask[ws] & y_set.mask[yz] & y_set.mask[yw]
    quads, weight = np.unique(
        np.stack([yz, zs, yw, ws], axis=1)[inside], axis=0, return_counts=True
    )
    hits = 0
    for start in range(0, len(quads), rows_per_block):
        blk = slice(start, start + rows_per_block)
        a, b, c, d = quads[blk].T
        lhs = sums(u[a], u_neg[b]) & sums(u[c], u_neg[d])
        rhs = sums(
            sums(covered[a], covered[b][:, neg]),
            sums(covered[c], covered[d][:, neg]),
        )
        hits += int(weight[blk][np.any(lhs & ~rhs, axis=1)].sum())
    return hits / samples, len(quads)


def test_linear_cover_condition_matches_block_oracle(monkeypatch):
    rng = derive_rng(103)
    shapes = [([12], [12]), ([16], [8]), ([4, 4], [16]), ([2, 8], [4, 3]), ([10], [10])]
    # a Z64 x Z64 dual takes 64 rows per block, so its quads span several blocks
    cases = [shapes[case % len(shapes)] for case in range(20)] + [([16], [64, 64])] * 2
    nonzero = blocks_crossed = 0
    for case, (h_moduli, g_moduli) in enumerate(cases):
        h, dual = bg.make_group(h_moduli), bg.make_group(g_moduli).dual
        size = int(rng.integers(h.order // 2, h.order + 1))
        y_idx = sorted(int(i) for i in rng.choice(h.order, size=size, replace=False))
        slope = dual.element_from_index(int(rng.integers(1, dual.order)))
        value_sets = {}
        for yi in y_idx:
            vals = {dual.zero, h.element_from_index(yi).coords[0] * slope}
            for _ in range(int(rng.integers(0, 4))):
                vals.add(dual.element_from_index(int(rng.integers(0, dual.order))))
            value_sets[yi] = sorted(vals, key=lambda e: e.index)
        y_set = GroupSubset.from_indices(h, y_idx)
        samples = (500, 2000, 4000)[case % 3] if dual.order < 4096 else 500
        rounds_cap = (0, 2, 6)[case % 3] if dual.order < 4096 else 1
        # difference tables kept whole, never kept, or filled part of the way
        table = (1 << 20, 0, 40 * dual.order, 1 << 20)[case % 4]
        monkeypatch.setattr(bilinear, "_PAIR_TABLE", table)
        u = _value_mask(h, dual, value_sets)
        res = linear_cover(y_set, dual, u, rounds_cap=rounds_cap, seed=case, samples=samples)
        want, quads = _condition_oracle(y_set, value_sets, res.maps, case, res.rounds, samples)
        assert res.condition_fraction == want, case
        nonzero += want > 0
        blocks_crossed += quads > (1 << 18) // dual.order
    assert nonzero >= 12 and blocks_crossed


def test_convolution_rounding_margin_is_checked(monkeypatch):
    g = bg.make_group([4, 6])
    rng = derive_rng(107)
    a, b = (GroupSubset(g, rng.random(24) < 0.3) for _ in range(2))
    rows = rng.random((6, 24)) < 0.3
    rows[:, 0] = True
    h, dual = bg.make_group([8]), bg.make_group([8]).dual
    value_sets = {
        yi: [dual.zero, dual.element_from_index(3 * yi % 8), dual.element_from_index(yi)]
        for yi in range(8)
    }
    y_set = GroupSubset.full(h)
    z24 = bg.make_group([24])

    def cover():
        res = linear_cover(y_set, dual, _value_mask(h, dual, value_sets), rounds_cap=3, seed=4)
        return res.rounds, res.condition_fraction, [m.values.tolist() for m in res.maps]

    def spectra():
        return [hits.tolist() for hits in fourier._bogolyubov_spectra(g, rows)]

    def experiment():  # the ladder runs: D is not all of G x H at this size
        out = main_theorem_experiment(z24, z24, 0.02, 5, word="hv")
        assert not out.difference_set.matrix.all()
        return {k: v for k, v in out.report.items() if k != "elapsed_ms"}

    runs = (
        lambda: a.sumset(b),
        lambda: groups._convolution_counts(g, a.mask, b.mask).tolist(),
        cover,
        spectra,
        experiment,
        lambda: fourier.quadruple_count_all(a.group, a.mask).tolist(),
    )
    expected = [run() for run in runs]
    exact = groups._exact_counts  # both kernels' float counts enter their rounding here

    def shifted(offset):
        return lambda counts: exact(counts + offset)

    for offset, fails in ((0.2, False), (0.3, True)):
        for module in (groups, fourier):
            monkeypatch.setattr(module, "_exact_counts", shifted(offset))
        if not fails:  # inside the margin: the same sets, counts and reports
            assert [run() for run in runs] == expected
            continue
        for run in runs:
            with pytest.raises(ArithmeticError):
                run()
    # the ladder's Bogolyubov spectra are checked too, not only D's passes
    monkeypatch.setattr(groups, "_exact_counts", exact)
    kernel = groups._convolution_counts

    def spectra_kernel(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "_exact_counts", shifted(0.3))
            return kernel(*args)

    monkeypatch.setattr(fourier, "_convolution_counts", spectra_kernel)
    with pytest.raises(ArithmeticError):
        experiment()


def test_linear_cover_condition_fraction_recount():
    rng = derive_rng(83)
    samples = 2000
    shapes = [([12], [12]), ([16], [8]), ([4, 4], [16]), ([2, 8], [4, 3]), ([10], [10])]
    for seed, (h_moduli, g_moduli) in enumerate(shapes):
        h, dual = bg.make_group(h_moduli), bg.make_group(g_moduli).dual
        size = int(rng.integers(h.order // 2, h.order + 1))
        y_idx = sorted(int(i) for i in rng.choice(h.order, size=size, replace=False))
        slope = dual.element_from_index(int(rng.integers(1, dual.order)))
        value_sets = {}
        for yi in y_idx:
            vals = {dual.zero, h.element_from_index(yi).coords[0] * slope}
            for _ in range(2):
                vals.add(dual.element_from_index(int(rng.integers(0, dual.order))))
            value_sets[yi] = sorted(vals, key=lambda e: e.index)
        y_set = GroupSubset.from_indices(h, y_idx)
        u = _value_mask(h, dual, value_sets)
        res = linear_cover(y_set, dual, u, rounds_cap=4, seed=seed, samples=samples)
        # recount the triple condition on the same samples with Python sets
        u = {yi: {v.index for v in vals} for yi, vals in value_sets.items()}
        cov = {
            yi: {
                m(yi).index
                for m in res.maps
                if yi in m.domain.enumerate() and m(yi).index in u[yi]
            }
            for yi in u
        }

        def diff(a, b):
            return {
                (dual.element_from_index(s) - dual.element_from_index(t)).index
                for s in a
                for t in b
            }

        draws = derive_rng(seed, 1000 + res.rounds)
        ys, zs, ws = (draws.integers(0, h.order, size=samples) for _ in range(3))
        hits = 0
        for y, z, w in zip(ys, zs, ws):
            y, z, w = (h.element_from_index(i) for i in (y, z, w))
            a, b, c, d = (y + z).index, z.index, (y + w).index, w.index
            if not all(i in u for i in (a, b, c, d)):
                continue
            lhs = diff(u[a], u[b]) & diff(u[c], u[d])
            rhs = {
                (dual.element_from_index(s) + dual.element_from_index(t)).index
                for s in diff(cov[a], cov[b])
                for t in diff(cov[c], cov[d])
            }
            hits += not lhs <= rhs
        assert res.condition_fraction == hits / samples


# SHA-256 of the stripped report (no elapsed_ms, keys sorted) of one
# containment experiment per size and word, delta = 0.02, seed 5: a change to
# any byte of these reports fails here.
_REPORT_DIGESTS = {
    ("Z24", "hv"): "646ee64fa36b0a24af81bb3b5d39472c7057d6488500a6db0524b54e7d50a45b",
    ("Z24", "vh"): "7570e1e3765d55c848fef1e4fd1e1dfcbab4e65e147bb5a21c4fa3f6d5081d41",
    ("Z24", "hvh"): "1acc4f49e53c7a0369b8d6afc1675cc96ee6478f3fa1f253c20b0e85b5e1cbf7",
    ("Z28", "hv"): "48a3f136910640cfbca27fe5a824af276e28075843bab33b0a5c6a80d7884385",
    ("Z28", "vh"): "9637871f682ca3000079cf5708c000ea2ba7ec22cc60be9d71c7d7aae9c30363",
    ("Z28", "hvh"): "fba29096cec49689c2361b24e59fcaf02e70f7786742ab344e4ef4199e41186c",
    ("Z32", "hv"): "8a05fd8d09bb12e1e63140b47ea53f410c250fc428e17cc4b02706b7039df81c",
    ("Z32", "vh"): "06247dc02bdf88a6849eba212a09b22dd5f0f0239754fd9e69c8846114da97b9",
    ("Z32", "hvh"): "300a02c92d161060b356485912e1bcd0c9d5b247f3a49d18adeea85b6863b790",
}


def test_containment_reports_match_recorded_digests():
    for (group, word), digest in _REPORT_DIGESTS.items():
        report = run_experiment(group, group, 0.02, 5, word=word)
        report.pop("elapsed_ms")
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (group, word)


# SHA-256 of every CoverResult (rounds, condition_fraction, complete, each
# map's domain and values) that the nine Z24/Z28/Z32 x hv/vh/hvh containment
# experiments at delta = 0.02, seeds 0-1, produce: covering maps win none of
# these experiments, so the report digests cannot see the covering stage.
_COVER_DIGEST = "9d0b69026f516f20fdb2f546e8eb693109b90bae37231ad93efd45946b6c3c40"


def test_cover_results_match_recorded_digest(monkeypatch):
    records = []
    real = bilinear.linear_cover

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        records.append([
            res.rounds,
            res.condition_fraction.hex(),
            res.complete,
            [[m.domain.enumerate().indices().tolist(), m.values.tolist()] for m in res.maps],
        ])
        return res

    monkeypatch.setattr(bilinear, "linear_cover", recording)
    for n in (24, 28, 32):
        g = bg.make_group([n])
        for word in ("hv", "vh", "hvh"):
            for seed in (0, 1):
                # recorded at budget 8, above the default
                main_theorem_experiment(g, g, 0.02, seed, search_budget=8, word=word)
    assert len(records) == 18 and sum(len(r[3]) for r in records) > 18  # maps gained
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == _COVER_DIGEST


def test_covering_stage_wins_a_pinned_experiment():
    # Z32 x Z32, word vh, delta 0.1, seed 1: the largest verified variety
    # is the covering stage's, one map over 144 cells; without the stage the
    # ladder's best holds 96
    g = bg.make_group([32])
    out = main_theorem_experiment(g, g, 0.1, 1, search_budget=DEFAULT_BUDGET, word="vh")
    assert len(out.variety.maps) == 1 and out.report["variety_size"] == 144
    assert variety_membership_bruteforce(out.variety) == out.variety.enumerate()
    assert out.variety.enumerate().is_subset_of(out.difference_set)
    bare = main_theorem_experiment(g, g, 0.1, 1, search_budget=0, word="vh")
    assert bare.variety.maps == () and bare.report["variety_size"] == 96


def _column_arm_oracle(group, column):
    """The Python loop over the column's nonzero elements and their multiples."""
    col0 = GroupSubset(group, column)
    best_arm = None
    for gi in col0.indices():
        gi = int(gi)
        if gi == 0:
            continue
        g = group.element_from_index(gi)
        m = 0
        cur = group.zero
        seen = {0}
        while True:
            cur = cur + g
            if cur.index in seen or cur.index not in col0:
                break
            seen.add(cur.index)
            m += 1
        if m >= 1 and (best_arm is None or m > best_arm[1]):
            best_arm = (gi, m)
    return best_arm


def test_column_arm_matches_loop_oracle(monkeypatch):
    rng = derive_rng(109)
    cases = []
    for moduli in ([12], [2, 4], [3, 6], [2, 2, 4], [16], [5]):
        h = bg.make_group(moduli)
        only_zero = np.zeros(h.order, dtype=bool)
        only_zero[0] = True
        cases += [(h, only_zero), (h, np.ones(h.order, dtype=bool))]
        cases += [(h, rng.random(h.order) < rng.random()) for _ in range(30)]
    found = 0
    for case, (h, column) in enumerate(cases):
        want = _column_arm_oracle(h, column)
        # whole blocks, then blocks of one or two generators
        for block in (1 << 18, h.exponent * h.rank * (case % 2 + 1)):
            monkeypatch.setattr(bilinear, "_ARM_BLOCK", block)
            assert bilinear._column_arm(h, column) == want, case
        found += want is not None
    assert found >= 100
    z6, z12 = bg.make_group([6]), bg.make_group([12])
    assert bilinear._column_arm(z6, np.ones(6, dtype=bool)) == (1, 5)  # 1 and 5 tie
    assert bilinear._column_arm(z12, np.isin(np.arange(12), [0, 1, 4, 8])) == (4, 2)
    assert bilinear._column_arm(z12, np.isin(np.arange(12), [0, 6])) == (6, 1)
    assert bilinear._column_arm(z12, np.isin(np.arange(12), [0])) is None


def test_pinned_floor_single_letter_words():
    # the floor pins (0, y0) with y0 the first point of D's zero column, so a
    # run fails exactly when that column is empty (no Bohr row avoids x = 0)
    gx, gy = bg.make_group([16]), bg.make_group([16])
    off_origin = empty = 0
    for word in ("h", "hh", "v", "vv"):
        for seed in range(12):
            out = main_theorem_experiment(gx, gy, 0.05, seed, word=word)
            zero_column = out.difference_set.column(gx.zero)
            assert out.report["verified"] == (zero_column.size > 0)
            off_origin += zero_column.size > 0 and 0 not in zero_column
            empty += zero_column.size == 0
    assert off_origin and empty


def test_sample_biset_deterministic():
    gx, gy = bg.make_group([8]), bg.make_group([8])
    a = sample_biset(gx, gy, 0.3, 99)
    b = sample_biset(gx, gy, 0.3, 99)
    assert a == b
    assert a.size == int(np.ceil(0.3 * 64))


def test_experiment_full_and_single_row():
    gx, gy = bg.make_group([8]), bg.make_group([8])
    out = main_theorem_experiment(gx, gy, 1.0, seed=4)
    assert out.report["verified"] and out.report["variety_size"] == 64
    # A = G x {0}: differences keep the single row
    mat = np.zeros((8, 8), dtype=bool)
    mat[0, :] = True
    a = BiSet(gx, gy, mat)
    d = iterated_difference(a, "hvvhvhh")
    assert d == a


def test_experiment_seeded_runs():
    gx, gy = bg.make_group([16]), bg.make_group([16])
    for seed in (0, 1):
        for delta in (0.1, 0.3):
            out = main_theorem_experiment(gx, gy, delta, seed=seed)
            rep = out.report
            assert rep["verified"]
            if rep["d_size"] > 1:
                assert rep["variety_size"] > 1
            if out.variety is not None:
                assert variety_contained_in(out.variety, out.difference_set)


def test_regularity_gcd_instance_engages_loop():
    # order-divisor map values force the shrink loop at a tight eta: the
    # stride-4 residue cells have constant row sizes, so some certify while
    # the mixed-order ones honestly fail property (ii) under the median
    # estimator
    gx, gy = bg.make_group([64]), bg.make_group([64])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])
    lmap = linear_map_on_progression(c, gx.dual, [gx.dual.element([16])])
    res = regularity_partition(c, [], [lmap], Fraction(1, 4), Fraction(1, 8), 20, gx)
    assert res.steps >= 1
    assert len(res.relation_lattice.rows) >= 1
    assert any(cell.certified for cell in res.cells)
    assert not res.certified
    for cell in res.cells:
        if cell.certified:
            again = qr_property_check(
                cell.progression, [], [lmap], cell.rho, Fraction(1, 8), gx
            )
            assert again.pass_i and again.pass_ii
    # at the coarser eta = 1/4 the same instance certifies outright
    res4 = regularity_partition(c, [], [lmap], Fraction(1, 4), Fraction(1, 4), 20, gx)
    assert res4.certified
