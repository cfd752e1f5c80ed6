"""Bilinear sets, varieties, regularity, covering loop, experiment."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bogolib as bg
from bogolib import bilinear, fourier, groups, progressions, suites
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
from oracles import cover_varieties_loop, is_freiman_linear, planted_zero_set, row_differences

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench_run  # noqa: E402


def test_difference_operator_examples():
    gx, gy = bg.make_group([2]), bg.make_group([2])
    empty = BiSet(gx, gy, np.zeros((gy.order, gx.order), bool))
    assert d_hor(empty) == empty and d_ver(empty) == empty
    full = BiSet(gx, gy, np.ones((gy.order, gx.order), bool))
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
        a_t = BiSet(gy, gx, a.matrix.T)
        assert np.array_equal(d_ver(a).matrix.T, d_hor(a_t).matrix)


def test_d_hor_rows_symmetric_with_zero():
    rng = derive_rng(67)
    gx, gy = bg.make_group([12]), bg.make_group([5])
    a = BiSet(gx, gy, rng.random((5, 12)) < 0.3)
    d = d_hor(a)
    for y in range(5):
        row = GroupSubset(gx, d.matrix[y])
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
    full = BiSet(gx, gy, np.ones((gy.order, gx.order), bool))
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


def _mixed_rows(group, rng):
    """Empty, singleton, full and random rows, rows of floor(|G|/2) + 1
    points, and an index-2 subgroup when |G| is even, shuffled.  Returns the
    rows and the subgroup row (None for odd |G|)."""
    n = group.order
    rows = [np.zeros(n, dtype=bool)] * 2 + [np.ones(n, dtype=bool)]
    rows += [np.arange(n) == x for x in rng.choice(n, size=min(n, 3), replace=False)]
    for _ in range(3):
        row = np.zeros(n, dtype=bool)
        row[rng.choice(n, size=n // 2 + 1, replace=False)] = True
        rows.append(row)
    rows += [rng.random(n) < density for density in (0.2, 0.5, 0.8)]
    even = [i for i, q in enumerate(group.moduli) if q % 2 == 0]
    subgroup = None
    if even:  # the points with an even coordinate on an even axis
        subgroup = group.coords_matrix[:, even[0]] % 2 == 0
        rows.append(subgroup)
    return np.array(rows)[rng.permutation(len(rows))], subgroup


@pytest.mark.parametrize(
    "moduli", [[1], [2], [7], [2, 4], [2, 3, 3]], ids=["Z1", "Z2", "Z7", "Z2xZ4", "Z2xZ3xZ3"]
)
def test_row_differences_match_pair_oracle(moduli):
    g = bg.make_group(moduli)
    rng = derive_rng(83)
    for _ in range(3):
        rows, subgroup = _mixed_rows(g, rng)
        expected = row_differences(g, rows)
        assert np.array_equal(bilinear._row_differences(g, rows), expected)
        h = bg.make_group([len(rows)])
        assert np.array_equal(d_hor(BiSet(g, h, rows)).matrix, expected)
        assert np.array_equal(d_ver(BiSet(h, g, rows.T)).matrix.T, expected)
    if subgroup is not None:  # exactly half of G, and S - S = S, not G
        assert 2 * np.count_nonzero(subgroup) == g.order
        assert np.array_equal(bilinear._row_differences(g, subgroup[None])[0], subgroup)


def test_difference_rounding_margin_is_checked(monkeypatch):
    gx, gy = bg.make_group([4, 6]), bg.make_group([5])
    a = BiSet(gx, gy, derive_rng(79).random((5, 24)) < 0.3)
    kernel = bilinear._convolution_counts
    sent = []

    def recording(group, rows):
        sent.append(len(rows))
        return kernel(group, rows)

    monkeypatch.setattr(bilinear, "_convolution_counts", recording)
    expected = d_hor(a), d_ver(a)
    assert len(sent) == 2 and min(sent) > 0  # counting leaves both passes rows to transform
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
    kernel = bilinear._convolution_counts
    calls = []

    def counting(group, rows):
        sizes = np.count_nonzero(rows, axis=1)
        # only the rows that counting leaves open reach the kernel
        assert np.all((sizes > 0) & (2 * sizes <= group.order))
        calls.append(rows.shape)
        return kernel(group, rows)

    monkeypatch.setattr(bilinear, "_convolution_counts", counting)
    gx, gy = bg.make_group([4, 2]), bg.make_group([6])
    full = BiSet(gx, gy, np.ones((gy.order, gx.order), bool))
    assert iterated_difference(full, "hvvhvhh") == full
    assert calls == []
    mat = np.ones((6, 8), dtype=bool)
    mat[0, 0] = False  # row 0 is G minus a point; its differences are all of G
    assert iterated_difference(BiSet(gx, gy, mat), "hvvhvhh") == full
    assert calls == []  # every row holds more than half of G, so counting decides it
    row_mat = np.zeros((6, 8), dtype=bool)
    row_mat[0, :] = True  # G x {0} is fixed by both operators but never full
    row = BiSet(gx, gy, row_mat)
    assert iterated_difference(row, "hvvhvhh") == row
    # each 'h' has one full row and empty ones; each 'v' sends all 8 singleton columns
    assert calls == [(8, 6)] * 3


def test_is_freiman_linear():
    gy = bg.make_group([16])
    dual = bg.make_group([16]).dual
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 3)])
    zero = linear_map_on_progression(c, dual, [dual.element([0])])
    assert is_freiman_linear(zero)
    genuine = linear_map_on_progression(c, dual, [dual.element([3])])
    assert is_freiman_linear(genuine)
    const_values = np.where(c.enumerate().mask, dual.element([5]).index, -1)
    const = FreimanMap(c, dual, const_values)
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
    assert variety_contained_in(v, BiSet(gx, gy, np.ones((gy.order, gx.order), bool)))
    assert not variety_contained_in(v, BiSet(gx, gy, np.zeros((gy.order, gx.order), bool)))


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
    of Gamma and one per map, with the radius compared in Python integers
    and each property decided in ``Fraction``s: a row or pair fails when its
    deviation exceeds eta |G|, and a property holds when the failing
    fraction is at most eta."""
    rho_i, eta = Fraction(rho_i), Fraction(eta)
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
    sizes = np.sort(row_masks.sum(axis=1))
    median = Fraction(int(sizes[(sizes.size - 1) // 2] + sizes[sizes.size // 2]), 2)
    f = row_masks.astype(np.int64)
    inter = (f @ f.T).reshape(-1)  # every ordered pair

    def fail_fraction(values, centre):
        # the share of values further than eta |G| from centre
        vals, counts = np.unique(values, return_counts=True)
        far = [abs(v - centre) > eta * group_x.order for v in vals.tolist()]
        return Fraction(int(counts[far].sum()), values.size)

    fail_i = fail_fraction(sizes, median)
    fail_ii = fail_fraction(inter, median * median / b0)
    return bilinear.QRCheck(
        float(median) / b0, fail_i <= eta, fail_ii <= eta, float(fail_ii)
    )


def test_qr_check_matches_numerator_loop_oracle():
    rng = derive_rng(131)
    shapes = [([16], [16]), ([12], [4, 6]), ([2, 8], [9]), ([27], [3, 9]), ([8], [2200])]
    big = wide = 0
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
        big += cell.size > 1 << 10  # more than 2^20 pairs, all counted
        wide += rho.denominator * e >= 1 << 62
    assert big == 8 and wide
    # a tie in property (ii): on Z8 x Z8 with L(y) = 2y on [-2, 2], rho = 1/8
    # and eta = 1/4, delta^2 b0 = 2 and 8 of the 25 pair intersections are 4,
    # exactly eta |G| away, so they do not fail and the property holds
    gx, gy = bg.make_group([8]), bg.make_group([8])
    cell = CosetProgression.symmetric(gy, [(gy.element([1]), 2)])
    lmap = linear_map_on_progression(cell, gx.dual, [gx.dual.element([2])])
    res = qr_property_check(cell, [], [lmap], Fraction(1, 8), Fraction(1, 4), gx)
    assert res == _qr_check_oracle(cell, [], [lmap], Fraction(1, 8), Fraction(1, 4), gx)
    assert res.pass_ii and res.fail_fraction_ii == 1 / 25


def test_qr_check_counts_every_pair():
    # Z8 x Z2200, C = [-530, 530], L(y) = 2y, rho = 1/4, eta = 9/29: 31.29% of
    # the 1061^2 ordered pairs fail property (ii), above eta = 31.03%; 10,000
    # sampled pairs read 30.94% and certified the cell
    gx, gy = bg.make_group([8]), bg.make_group([2200])
    cell = CosetProgression.symmetric(gy, [(gy.element([1]), 530)])
    lmap = linear_map_on_progression(cell, gx.dual, [gx.dual.element([2])])
    rho, eta = Fraction(1, 4), Fraction(9, 29)
    res = qr_property_check(cell, [], [lmap], rho, eta, gx)
    assert res.pass_i and res.pass_ii is False
    assert res == _qr_check_oracle(cell, [], [lmap], rho, eta, gx)
    assert res.fail_fraction_ii > eta


def test_qr_check_memory_is_one_block():
    import tracemalloc

    # 1061^2 intersections unblocked take over 16 MiB as float64 and int64
    gx, gy = bg.make_group([8]), bg.make_group([2200])
    cell = CosetProgression.symmetric(gy, [(gy.element([1]), 530)])
    lmap = linear_map_on_progression(cell, gx.dual, [gx.dual.element([2])])
    args = (cell, [], [lmap], Fraction(1, 4), Fraction(9, 29), gx)
    qr_property_check(*args)  # warm: the cell's and the dual's cached tables
    tracemalloc.start()
    try:
        qr_property_check(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_regularity_rejects_eta_outside_unit_interval():
    gx, gy = bg.make_group([64]), bg.make_group([64])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])
    lmap = linear_map_on_progression(c, gx.dual, [gx.dual.element([16])])
    for eta in (Fraction(0), Fraction(2)):
        with pytest.raises(PreconditionError):
            regularity_partition(c, [], [lmap], Fraction(1, 4), eta, 12, gx)


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
    res = linear_cover(y, dual, zeros, rounds_cap=4)
    assert len(res.maps) == 1 and res.rounds == 0
    # U_y = {0, y}: the identity covers all of U in one round, then nothing gains
    u = _value_mask(h, dual, {i: [dual.element([0]), dual.element([i])] for i in range(16)})
    res = linear_cover(y, dual, u, rounds_cap=8)
    assert res.rounds == 1 and res.maps[1].values.tolist() == list(range(16))
    capped = linear_cover(y, dual, u, rounds_cap=0)
    assert capped.rounds == 0 and len(capped.maps) == 1
    nowhere = GroupSubset(h, np.zeros(h.order, bool))
    empty = linear_cover(nowhere, dual, zeros & False, rounds_cap=2)
    assert empty.maps == () and empty.rounds == 0
    # U is a (|H|, |dual|) mask, and every U_y of Y holds 0
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, zeros[:, :8], rounds_cap=2)
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, zeros.T[:, :, None], rounds_cap=2)
    lacking = zeros.copy()
    lacking[5, 0] = False
    with pytest.raises(PreconditionError):
        linear_cover(y, dual, lacking, rounds_cap=2)
    assert linear_cover(GroupSubset.from_indices(h, [0, 1]), dual, lacking, rounds_cap=2).rounds == 0


def _brute_homomorphisms(y_set, dual, value_sets):
    """Every homomorphism L: H -> dual whose value at each unit vector e of
    H lies in U_e when e is in Y, as a value table: every tuple of values on
    the unit vectors, extended by L(y) = sum_i y_i L(e_i) and kept when
    L(a + b) = L(a) + L(b) for all a, b, in GroupElement arithmetic.
    Tuples run over the dual in index order, the last unit vector fastest."""
    h = y_set.group
    units = [h.element(tuple(int(i == j) for j in range(h.rank))) for i in range(h.rank)]
    elems = list(h.elements())
    tables = []
    for ws in itertools.product(list(dual.elements()), repeat=h.rank):
        if any(e.index in y_set and w.index not in value_sets[e.index] for e, w in zip(units, ws)):
            continue
        table = [sum((c * w for c, w in zip(y.coords, ws)), dual.zero) for y in elems]
        if all(table[(a + b).index] == table[a.index] + table[b.index] for a in elems for b in elems):
            tables.append([val.index for val in table])
    return tables


def _finder_cases(rng):
    """(H, dual of G, Y, U_y as index sets): a tie between two planted maps
    on Z12, then seeded cases on cyclic and non-cyclic H with Y holding some
    unit vectors and missing others, each U_y holding 0, a planted
    homomorphism's value and noise."""
    h = bg.make_group([12])
    yield h, h.dual, GroupSubset.full(h), {y: {0, 5 * y % 12, 7 * y % 12} for y in range(12)}
    shapes = []
    for h_moduli, g_moduli in (([12], [12]), ([4, 2], [2, 6]), ([2, 2, 2], [2, 4]), ([3, 3], [9]), ([6], [4, 3])):
        h, dual = bg.make_group(h_moduli), bg.make_group(g_moduli).dual
        shapes.append((h, dual, _brute_homomorphisms(GroupSubset.from_indices(h, []), dual, {})))
    for case in range(15):
        h, dual, homs = shapes[case % len(shapes)]
        y_idx = rng.choice(h.order, size=int(rng.integers(h.order // 2, h.order + 1)), replace=False)
        y_set = GroupSubset.from_indices(h, y_idx)
        planted = homs[int(rng.integers(0, len(homs)))]
        value_sets = {
            int(y): {0, planted[y], *rng.integers(0, dual.order, size=2).tolist()} for y in y_idx
        }
        yield h, dual, y_set, value_sets


def test_hom_finder_and_cover_rounds_match_bruteforce():
    rng = derive_rng(109)
    ties = early_stops = capped = inside = outside = 0
    for case, (h, dual, y_set, value_sets) in enumerate(_finder_cases(rng)):
        want = _brute_homomorphisms(y_set, dual, value_sets)
        u = _value_mask(h, dual, {y: [dual.element_from_index(v) for v in vals] for y, vals in value_sets.items()})
        assert exhaustive_hom_finder(y_set, dual, u).tolist() == want, case
        units = [int(e) for e in h.index_of_coords(np.eye(h.rank, dtype=np.int64))]
        inside += sum(e in y_set for e in units)
        outside += sum(e not in y_set for e in units)
        # each round adds the first map with the most uncovered points of U
        rounds_cap = (4, 1)[case % 2]
        res = linear_cover(y_set, dual, u, rounds_cap=rounds_cap)
        covered = {y: {0} for y in value_sets}

        def gains():
            return [
                sum(1 for y, vals in value_sets.items() if t[y] in vals - covered[y])
                for t in want
            ]

        for fmap in res.maps[1:]:
            g = gains()
            assert max(g) > 0 and fmap.values.tolist() == want[g.index(max(g))], case
            ties += g.count(max(g)) > 1
            for y in value_sets:
                covered[y] |= {fmap.values[y]} & value_sets[y]
        # the loop stops at the cap, or at the first round with no gain
        assert res.rounds == len(res.maps) - 1 <= rounds_cap, case
        if res.rounds < rounds_cap:
            assert not any(gains()), case
            early_stops += 1
        else:
            capped += any(gains())
    assert ties and early_stops and capped and inside and outside


def test_hom_finder_returns_nothing_above_the_cap(monkeypatch):
    # Z2^4 into the dual of Z2^4 with no unit vector in Y: every one of the
    # 16 characters is allowed at each of the four, 16^4 > _HOM_CAP maps
    h = bg.make_group([2, 2, 2, 2])
    dual = h.dual
    y_set = GroupSubset.from_indices(h, [0, 3, 5, 15])
    u = np.zeros((16, 16), dtype=bool)
    u[:, 0] = True
    assert 16**4 > bilinear._HOM_CAP
    assert exhaustive_hom_finder(y_set, dual, u).shape == (0, 16)
    # at the cap the maps are returned; one below it, none
    small = bg.make_group([2, 2])
    y_small = GroupSubset.from_indices(small, [0])
    want = _brute_homomorphisms(y_small, small.dual, {})
    assert len(want) == 16
    monkeypatch.setattr(bilinear, "_HOM_CAP", 16)
    assert exhaustive_hom_finder(y_small, small.dual, u[:4, :4]).tolist() == want
    monkeypatch.setattr(bilinear, "_HOM_CAP", 15)
    assert exhaustive_hom_finder(y_small, small.dual, u[:4, :4]).shape == (0, 4)


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
        res = linear_cover(y_set, dual, _value_mask(h, dual, value_sets), rounds_cap=3)
        return res.rounds, [m.values.tolist() for m in res.maps]

    def spectra():
        return [hits.tolist() for hits in fourier._bogolyubov_spectra(g, rows)]

    def experiment():  # the ladder runs: D is not all of G x H at this size
        out = main_theorem_experiment(z24, z24, 0.02, 5, word="hv")
        assert not out.difference_set.matrix.all()
        return {k: v for k, v in out.report.items() if k != "elapsed_ms"}

    runs = (
        lambda: a.sumset(b),
        lambda: groups._convolution_counts(g, a.mask, b.mask).tolist(),
        spectra,
        experiment,
        lambda: fourier.quadruple_count_all(a.group, a.mask).tolist(),
    )
    expected = [run() for run in runs]
    # the cover makes no kernel call: the subgroup check of its zero map's
    # domain, all of H, is decided by counting
    kernel_calls = []

    def counted(*args, real=groups._convolution_counts):
        kernel_calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        for module in (groups, bilinear, progressions):
            patch.setattr(module, "_convolution_counts", counted)
        cover_result = cover()
    assert kernel_calls == [] and cover_result[0] >= 1
    exact = groups._exact_counts  # both kernels' float counts enter their rounding here

    def shifted(offset):
        return lambda counts: exact(counts + offset)

    for offset, fails in ((0.2, False), (0.3, True)):
        for module in (groups, fourier):
            monkeypatch.setattr(module, "_exact_counts", shifted(offset))
        assert cover() == cover_result
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


# SHA-256 of the stripped report (no elapsed_ms, keys sorted) of one
# containment experiment per size and word, delta = 0.02, seed 5: a change to
# any byte of these reports fails here.
_REPORT_DIGESTS = {
    ("Z24", "hv"): "646ee64fa36b0a24af81bb3b5d39472c7057d6488500a6db0524b54e7d50a45b",
    ("Z24", "vh"): "7570e1e3765d55c848fef1e4fd1e1dfcbab4e65e147bb5a21c4fa3f6d5081d41",
    ("Z24", "hvh"): "1acc4f49e53c7a0369b8d6afc1675cc96ee6478f3fa1f253c20b0e85b5e1cbf7",
    ("Z28", "hv"): "5b39d972f2738c22046c0f12b1b88481cdc70da016eb88be10a66e9963c52110",
    ("Z28", "vh"): "9637871f682ca3000079cf5708c000ea2ba7ec22cc60be9d71c7d7aae9c30363",
    ("Z28", "hvh"): "fba29096cec49689c2361b24e59fcaf02e70f7786742ab344e4ef4199e41186c",
    ("Z32", "hv"): "c9a00e03eda35a9d3791890f514580cd1919b618e706e748fb9314a498bda3e7",
    ("Z32", "vh"): "06247dc02bdf88a6849eba212a09b22dd5f0f0239754fd9e69c8846114da97b9",
    ("Z32", "hvh"): "300a02c92d161060b356485912e1bcd0c9d5b247f3a49d18adeea85b6863b790",
}


def test_containment_reports_match_recorded_digests():
    for (group, word), digest in _REPORT_DIGESTS.items():
        report = run_experiment(group, group, 0.02, 5, word=word)
        report.pop("elapsed_ms")
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (group, word)


# SHA-256 of every CoverResult (rounds, each map's domain and values) that
# the nine Z24/Z28/Z32 x hv/vh/hvh containment experiments at delta = 0.02,
# seeds 0-1, produce: covering maps win 9 of these 18 experiments, and a
# report shows only the winner's map count.  Nine covers stop at the budget
# of 8 rounds, the rest at the first round in which no map gains.
_COVER_DIGEST = "82fb260bdc7ad96b53106e0a6ff684a398866f3bc3bcc48b100a514ce3ab9fb6"


def _record_covers(monkeypatch) -> list:
    """Wrap linear_cover so that each CoverResult is appended to the returned
    list as [rounds, each map's domain and values]."""
    records = []
    real = bilinear.linear_cover

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        records.append([
            res.rounds,
            [[m.domain.enumerate().indices().tolist(), m.values.tolist()] for m in res.maps],
        ])
        return res

    monkeypatch.setattr(bilinear, "linear_cover", recording)
    return records


def test_cover_results_match_recorded_digest(monkeypatch):
    records = _record_covers(monkeypatch)
    for n in (24, 28, 32):
        g = bg.make_group([n])
        for word in ("hv", "vh", "hvh"):
            for seed in (0, 1):
                # recorded at budget 8, above the default
                main_theorem_experiment(g, g, 0.02, seed, search_budget=8, word=word)
    assert len(records) == 18 and sum(len(r[1]) for r in records) > 18  # maps gained
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == _COVER_DIGEST


# The same digest, one hv experiment each, on duals of order 256 and 64 (Z256
# x Z256 at delta 0.02, seed 7, and Z64 x Z64 at delta 0.05, seed 2), the
# largest duals that the tests give the covering loop.
_LARGE_COVER_DIGESTS = {
    (256, 0.02, 7): "7470e0cad41b0eb384ee8f91f232cdc3ebd52908df616458353bbdcde38397a7",
    (64, 0.05, 2): "a7888b9b74aa51a28c2f40790879e0ddd5b705bcd1d27bb7a8dd3a6cff2fd36e",
}


def test_cover_results_on_large_duals_match_recorded_digests(monkeypatch):
    records = _record_covers(monkeypatch)
    for (n, delta, seed), digest in _LARGE_COVER_DIGESTS.items():
        records.clear()
        g = bg.make_group([n])
        main_theorem_experiment(g, g, delta, seed, word="hv")
        assert len(records) == 1 and len(records[0][1]) > 1  # maps gained
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest, n


# SHA-256 of every RegularityResult (steps, certified, the relation rows, and
# each cell's enumerated indices, rho, delta and certified) from demo 05's
# three calls, the Z64 gcd instance at eta = 1/8 and 1/4, and criterion 10 at
# seeds 0-2.
_REGULARITY_DIGEST = "f993deefae9d6c01fce16f17794289cc4a1c051367fb4f8d949b0e14113977bd"


def test_regularity_results_match_recorded_digest(monkeypatch):
    records = []
    real = bilinear.regularity_partition

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        records.append([
            res.steps,
            res.certified,
            [list(row) for row in res.relation_lattice.rows],
            [
                [
                    cell.progression.enumerate().indices().tolist(),
                    str(cell.rho),
                    cell.delta.hex(),
                    cell.certified,
                ]
                for cell in res.cells
            ],
        ])
        return res

    monkeypatch.setattr(suites, "regularity_partition", recording)
    gx, gy = bg.make_group([64]), bg.make_group([64])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])
    rho = Fraction(1, 4)
    for value, eta, step_cap in (
        # demo 05's three calls
        (7, Fraction(1, 4), 12),
        (16, Fraction(1, 8), 20),
        (16, Fraction(1, 4), 12),
        # test_regularity_gcd_instance_engages_loop's two
        (16, Fraction(1, 8), 20),
        (16, Fraction(1, 4), 20),
    ):
        lmap = linear_map_on_progression(c, gx.dual, [gx.dual.element([value])])
        recording(c, [], [lmap], rho, eta, step_cap, gx)
    for seed in (0, 1, 2):
        suites.check_regularity(seed)
    assert len(records) == 65
    assert [r[0] for r in records[:5]] == [0, 3, 2, 3, 2]
    assert max(r[0] for r in records[5:]) == 2  # criterion 10 at seed 2 steps
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == _REGULARITY_DIGEST


def test_covering_stage_wins_a_pinned_experiment():
    # Z32 x Z32, word vh, delta 0.1, seed 1: the largest verified variety
    # is the covering stage's, B(chi; 1/8) over 279 cells for a character
    # chi of the per-row spectra; without the stage the ladder's best holds 96
    g = bg.make_group([32])
    out = main_theorem_experiment(g, g, 0.1, 1, search_budget=DEFAULT_BUDGET, word="vh")
    assert len(out.variety.gamma) == 1 and out.variety.maps == ()
    assert out.report["variety_size"] == 279
    assert variety_membership_bruteforce(out.variety) == out.variety.enumerate()
    assert out.variety.enumerate().is_subset_of(out.difference_set)
    bare = main_theorem_experiment(g, g, 0.1, 1, search_budget=0, word="vh")
    assert bare.variety.maps == () and bare.report["variety_size"] == 96


def test_pinned_experiment_candidate_maps_are_freiman_linear(monkeypatch):
    # every candidate variety of the pinned Z32 vh instance, accepted or not:
    # a cover map is a homomorphism of H, so it is Freiman-linear on every C
    tried = []

    def record(variety, d):
        tried.append(variety)
        return variety_contained_in(variety, d)

    monkeypatch.setattr(bilinear, "variety_contained_in", record)
    g = bg.make_group([32])
    main_theorem_experiment(g, g, 0.1, 1, search_budget=DEFAULT_BUDGET, word="vh")
    maps = [m for v in tried for m in v.maps]
    assert len(maps) == 50
    assert all(is_freiman_linear(m) for m in maps)


def test_cover_scoring_matches_per_source_oracle(monkeypatch):
    # the batched scores of every source and radius, the verified candidates
    # and the experiment's winner equal the one-source-at-a-time loop's, on
    # the contain-sparse batch at seed 1, Z2xZ4xZ4 and Z4xZ8 instances that
    # the covering stage wins, and the Z256 instance of the large cover
    # digests; then again with one source per scoring block
    sparse = perfbench_run.batch_inputs("contain-sparse", 1)
    instances = [([n], w, delta, seed) for n, w, delta, seed in sparse] + [
        ([2, 4, 4], "vh", 0.1, 1),
        ([4, 8], "hv", 0.1, 0),
        ([256], "hv", 0.02, 7),
    ]
    real_cover, real_score = bilinear._cover_varieties, bilinear._score_sources
    calls, scores = [], []

    def recording_cover(*args):
        scores.clear()
        out = real_cover(*args)
        calls.append((args, list(scores), out))
        return out

    def recording_score(*args):
        scores.append(real_score(*args))
        return scores[-1]

    def reports():
        out = []
        for moduli, word, delta, seed in instances:
            g = bg.make_group(moduli)
            report = main_theorem_experiment(g, g, delta, seed, word=word).report
            out.append({k: v for k, v in report.items() if k != "elapsed_ms"})
        return out

    monkeypatch.setattr(bilinear, "_score_sources", recording_score)
    for block in (bilinear._SOURCE_BLOCK, 1):
        monkeypatch.setattr(bilinear, "_SOURCE_BLOCK", block)
        monkeypatch.setattr(bilinear, "_cover_varieties", recording_cover)
        calls.clear()
        batched = reports()
        assert len(calls) == len(instances)
        winners = 0
        for args, got, accepted in calls:
            fits, counts, want = cover_varieties_loop(*args)
            assert np.array_equal(np.stack([f for f, _ in got]), fits)
            assert np.array_equal(np.stack([c for _, c in got]), counts)
            assert [v.describe() for v in accepted] == [v.describe() for v in want]
            winners += bool(want) and max(v.size for v in want) > args[4]
        assert winners == 29  # of 48 stages, these find a variety above the earlier rungs
        monkeypatch.setattr(
            bilinear, "_cover_varieties", lambda *args: cover_varieties_loop(*args)[2]
        )
        assert reports() == batched


_PLANTED = [
    ([2, 2, 2, 2], 1),
    ([2, 2, 2, 2, 2], 1),
    ([3, 3, 3], 1),
    ([2, 2, 2, 2, 2], 2),
    ([3, 3, 3], 2),
    ([4, 4], 1),
    ([4, 4], 2),
]


def test_planted_zero_sets_are_recovered(monkeypatch):
    # A is the zero set of one or two bilinear forms on Z_q^n, fed to the
    # experiment in place of its sample at delta = |A| / |G|^2; D = A, and
    # the cover's homomorphisms rebuild all of A on every instance.  On Z3^3
    # (two forms, seeds 0 and 2) the cover's second map is a multiple of its
    # first, and on Z4 x Z4 (two forms, seed 1) its first map alone spans
    # one form; the loop goes on while a map gains, and reaches the other
    for moduli, forms in _PLANTED:
        for seed in (0, 1, 2):
            a = planted_zero_set(moduli, forms, seed)
            monkeypatch.setattr(bilinear, "sample_biset", lambda *args, a=a: a)
            g = a.group_x
            out = main_theorem_experiment(g, g, a.size / g.order**2, seed, word="hv")
            assert out.difference_set == a, (moduli, forms, seed)
            assert out.report["variety_size"] == a.size, (moduli, forms, seed)


# variety_size of the 45 contain-sparse benchmark experiments at seed 1,
# recorded while the covering loop also stopped on a sampled estimate of its
# triple condition (1,301 cells)
_SPARSE_SIZES_BEFORE = [
    15, 26, 26, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 26,
    30, 28, 30, 30, 30, 28, 28, 28, 28, 28, 28, 30, 30, 28, 30,
    34, 38, 34, 34, 38, 32, 32, 32, 32, 32, 34, 38, 34, 32, 34,
]


def test_cover_varieties_do_not_shrink_on_the_benchmark_batch():
    batch = perfbench_run.batch_inputs("contain-sparse", 1)
    assert len(batch) == len(_SPARSE_SIZES_BEFORE)
    for (n, word, delta, seed), before in zip(batch, _SPARSE_SIZES_BEFORE):
        g = bg.make_group([n])
        out = main_theorem_experiment(g, g, delta, seed, word=word)
        assert out.report["variety_size"] >= before, (n, word, seed)
    g = bg.make_group([32])
    assert main_theorem_experiment(g, g, 0.1, 1, word="vh").report["variety_size"] >= 144


def test_experiments_leave_numpy_ma_unimported():
    # the first plain np.unique of a process imports numpy.ma (about 13 ms
    # and 1.6 MiB), which the benchmark's set-up time and peak RSS would show
    n, word, delta, seed = perfbench_run.batch_inputs("contain-sparse", 1)[0]
    code = (
        "import sys\n"
        "import bogolib as bg\n"
        "from bogolib.bilinear import main_theorem_experiment as run\n"
        f"g = bg.make_group([{n}])\n"
        f"run(g, g, {delta!r}, {seed}, word={word!r})\n"
        "g = bg.make_group([32])\n"
        "run(g, g, 0.1, 1, word='vh')\n"
        "print('numpy.ma' in sys.modules)\n"
        "from bogolib.suites import run_suite\n"
        "run_suite('all', 1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(bg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


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
        if want is not None:
            # m < ord(g), so the arm through 0 is proper
            arm = Arm(h.element_from_index(want[0]), 0, want[1])
            trivial = GroupSubset.from_indices(h, [0])
            assert CosetProgression(h, h.zero, (arm,), trivial).is_proper(), case
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
    # at the coarser eta = 1/4 the same instance certifies after two steps,
    # in six cells
    res4 = regularity_partition(c, [], [lmap], Fraction(1, 4), Fraction(1, 4), 20, gx)
    assert res4.certified


def test_regularity_cells_report_delta_at_their_own_radius(monkeypatch):
    # a cell's delta is qr_property_check's at the cell's own rho, flagged
    # cells (which keep rho) included: demo 05's three calls, then
    # criterion 10 at seed 0
    calls = []
    real = bilinear.regularity_partition

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(suites, "regularity_partition", recording)
    gx, gy = bg.make_group([64]), bg.make_group([64])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])
    for value, eta, step_cap in ((7, Fraction(1, 4), 12), (16, Fraction(1, 8), 20), (16, Fraction(1, 4), 12)):
        lmap = linear_map_on_progression(c, gx.dual, [gx.dual.element([value])])
        recording(c, [], [lmap], Fraction(1, 4), eta, step_cap, gx)
    suites.check_regularity(0)
    flagged = 0
    for (_, gamma, maps, rho, eta, _, group_x), res in calls:
        for cell in res.cells:
            check = qr_property_check(cell.progression, gamma, maps, cell.rho, eta, group_x)
            assert cell.delta == check.delta
            assert cell.certified == (check.pass_i and check.pass_ii)
            if not cell.certified:
                assert cell.rho == rho  # a flagged cell keeps rho
                flagged += 1
    assert flagged >= 8  # demo 05's eta = 1/8 call flags 8 of its 11 cells
