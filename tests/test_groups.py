"""Group core: exact arithmetic, spans, bases, subsets."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bogolib as bg
from bogolib import groups
from bogolib.bilinear import BiSet
from bogolib.groups import (
    GroupSubset,
    annihilator_subgroup,
    fold_multiples,
    is_subgroup,
    subgroup_generated,
    subgroup_generators,
)
from bogolib.progressions import CosetProgression, FreimanMap
from bogolib.rng import derive_rng


def test_make_group_basics():
    g = bg.make_group([4, 2])
    assert g.order == 8
    assert bg.make_group([1]).order == 1
    g6 = bg.make_group([2, 3])
    assert g6.order == 6 and g6.exponent == 6


def test_make_group_ceiling():
    with pytest.raises(bg.GroupTooLargeError):
        bg.make_group([1 << 13, 1 << 13])


def test_index_encoding_roundtrip():
    g = bg.make_group([4, 3, 2])
    for i in range(g.order):
        assert g.element_from_index(i).index == i
    # factor 0 fastest-varying
    assert g.element_from_index(1).coords == (1, 0, 0)
    assert g.element_from_index(4).coords == (0, 1, 0)


def test_negative_indices_are_rejected():
    g = bg.make_group([4, 3])
    fmap = FreimanMap(CosetProgression.whole_group(g), g, np.arange(g.order))
    takes = (
        g.element_from_index,
        lambda i: GroupSubset.from_indices(g, [0, i]),
        lambda i: BiSet.from_flat_indices(g, g, [0, i]),
        fmap.at,
        lambda i: fmap.at(np.array([0, i])),
    )
    for take in takes:  # -1 would wrap to the last element
        with pytest.raises(ValueError):
            take(-1)


def test_char_eval_examples():
    g4 = bg.make_group([4])
    assert bg.char_eval(g4.dual.element([1]), g4.element([1])) == Fraction(1, 4)
    assert bg.char_eval(g4.dual.element([0]), g4.element([3])) == 0
    g = bg.make_group([2, 3])
    assert bg.char_eval(g.dual.element([1, 1]), g.element([1, 2])) == Fraction(1, 6)


def test_char_eval_group_mismatch():
    g4 = bg.make_group([4])
    other = bg.make_group([4])
    with pytest.raises(bg.GroupMismatchError):
        bg.char_eval(other.dual.element([1]), g4.element([1]))


def test_char_numerators_rows_match_single_characters():
    g = bg.make_group([4, 6])
    e = g.exponent
    rows = g.char_numerators(np.arange(g.dual.order), g.dual)
    assert rows.shape == (g.dual.order, g.order)
    for chi_idx in range(g.dual.order):
        chi = g.dual.element_from_index(chi_idx)
        assert np.array_equal(rows[chi_idx], g.char_numerators(np.asarray([chi_idx]), g.dual)[0])
        for x_idx in range(g.order):
            value = bg.char_eval(chi, g.element_from_index(x_idx))
            assert Fraction(int(rows[chi_idx, x_idx]), e) == value
    with pytest.raises(bg.GroupMismatchError):
        g.char_numerators(np.arange(3), bg.make_group([4, 6]).dual)


def test_torus_dist():
    assert bg.torus_dist(Fraction(0)) == 0
    assert bg.torus_dist(Fraction(3, 4)) == Fraction(1, 4)
    assert bg.torus_dist(Fraction(1, 2)) == Fraction(1, 2)


@given(
    st.integers(2, 12),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_char_additivity(q, a, b):
    g = bg.make_group([q, 3])
    x = g.element([a, a])
    y = g.element([b, b + 1])
    chi = g.dual.element([a % q, b % 3])
    left = bg.char_eval(chi, x + y)
    right = (bg.char_eval(chi, x) + bg.char_eval(chi, y)) % 1
    assert left == right


@given(st.fractions(0, 1), st.fractions(0, 1))
@settings(max_examples=100, deadline=None)
def test_torus_dist_triangle(s, t):
    assert bg.torus_dist(s + t) <= bg.torus_dist(s) + bg.torus_dist(t)


def test_bounded_span_examples():
    g8 = bg.make_group([8])
    assert sorted(bg.bounded_span(g8, [], 3).indices()) == [0]
    assert sorted(bg.bounded_span(g8, [g8.element([2])], 1).indices()) == [0, 2, 6]
    g4 = bg.make_group([4])
    assert bg.bounded_span(g4, [g4.element([1])], 2).size == 4


def test_bounded_span_monotone_and_symmetric():
    g = bg.make_group([5, 4])
    gens = [g.element([1, 2]), g.element([3, 1])]
    prev = bg.bounded_span(g, gens, 0)
    for r in range(1, 4):
        cur = bg.bounded_span(g, gens, r)
        assert prev.is_subset_of(cur)
        assert cur == cur.negate()
        prev = cur
    flipped = bg.bounded_span(g, [-gens[0], gens[1]], 2)
    assert flipped == bg.bounded_span(g, gens, 2)


def _fold_by_translates(acc, g, lo, hi):
    """The per-multiple translate loop that fold_multiples replaced."""
    cur = acc.translate(lo * g)
    out = cur.mask.copy()
    for _ in range(hi - lo):
        cur = cur.translate(g)
        out |= cur.mask
    return GroupSubset(acc.group, out)


def test_fold_multiples_matches_translate_loop():
    rng = derive_rng(43)
    moduli_pool = [[12], [4, 6], [2, 3, 5], [2, 2, 8], [9, 3], [7, 1, 4]]
    long_ranges = 0
    for case in range(300):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        kind = case % 4
        if kind == 0:
            acc = GroupSubset.from_indices(g, [int(rng.integers(0, g.order))])
        elif kind == 1:
            acc = GroupSubset.full(g)
        else:
            acc = GroupSubset(g, rng.random(g.order) < rng.uniform(0.05, 0.5))
        x = g.element_from_index(int(rng.integers(0, g.order)))
        lo = int(rng.integers(-2 * g.order, g.order))
        hi = lo + int(rng.integers(0, 2 * x.order + 2))
        long_ranges += hi - lo + 1 > x.order
        got = fold_multiples(acc, x, lo, hi)
        assert got == _fold_by_translates(acc, x, lo, hi), (g, x, lo, hi)
    assert long_ranges >= 50, long_ranges
    g = bg.make_group([4, 6])
    with pytest.raises(ValueError):
        fold_multiples(GroupSubset.full(g), g.element([1, 1]), 3, 2)
    with pytest.raises(bg.GroupMismatchError):
        fold_multiples(GroupSubset.full(g), bg.make_group([4, 6]).element([1, 1]), 0, 2)


def test_invariant_factors_examples():
    g = bg.make_group([2, 3])
    factors, basis = bg.invariant_factors(g)
    assert factors == [6]
    assert basis[0].coords == (1, 1)
    assert bg.invariant_factors(bg.make_group([4]))[0] == [4]
    assert bg.invariant_factors(bg.make_group([2, 2]))[0] == [2, 2]


@pytest.mark.parametrize("moduli", [[2, 3], [4], [2, 2], [12, 18], [8, 4, 6], [1, 5]])
def test_invariant_factors_are_a_basis(moduli):
    g = bg.make_group(moduli)
    factors, basis = bg.invariant_factors(g)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert np.prod([1] + factors) == g.order
    assert [x.order for x in basis] == factors
    assert bg.is_basis(g, basis)


def test_is_basis_examples():
    g4 = bg.make_group([4])
    assert bg.is_basis(g4, [g4.element([1])])
    assert not bg.is_basis(g4, [g4.element([2])])
    g22 = bg.make_group([2, 2])
    assert bg.is_basis(g22, [g22.element([1, 0]), g22.element([1, 1])])


def _is_basis_by_fold(group, elements):
    """The basis test as the injectivity of the coefficient box."""
    for g in elements:
        if g.group is not group:
            raise bg.GroupMismatchError("basis candidate from a different group")
    orders = [g.order for g in elements]
    if np.prod([1] + orders) != group.order:
        return False
    acc = GroupSubset.from_indices(group, [0])
    for g, n in zip(elements, orders):
        acc = fold_multiples(acc, g, 0, n - 1)
    return acc.size == group.order


def test_is_basis_matches_fold_oracle():
    from bogolib.progressions import change_basis

    rng = derive_rng(83)
    moduli_pool = [[4, 6], [2, 2, 8], [12, 18], [8, 4, 6], [9, 3], [2, 2], [1, 5], [64]]
    moved = full_product_nonbasis = 0
    for case in range(160):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        factors, basis = bg.invariant_factors(g)
        if case % 2 == 0 and len(basis) >= 2:
            # a basis moved by a few random basis changes
            for _ in range(int(rng.integers(1, 5))):
                i, j = (int(t) for t in rng.choice(len(basis), size=2, replace=False))
                kind = "upper" if i < j else "lower"
                basis = change_basis(g, basis, (kind, i, j, int(rng.integers(-3, 4))))
            elements = basis
            moved += 1
        else:
            # random tuples, kept to those whose order product is |G|
            k = int(rng.integers(1, 4))
            for _ in range(200):
                elements = [g.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)]
                if np.prod([1] + [x.order for x in elements]) == g.order:
                    break
        want = _is_basis_by_fold(g, elements)
        assert bg.is_basis(g, elements) == want, (g, [x.coords for x in elements])
        full_product_nonbasis += (
            not want and np.prod([1] + [x.order for x in elements]) == g.order
        )
    assert moved >= 60 and full_product_nonbasis >= 10, (moved, full_product_nonbasis)
    # order product |G| without generating: the Hermite form is not the identity
    for moduli, coords in [
        ([2, 2], [(1, 0), (1, 0)]),
        ([4, 2], [(1, 0), (2, 0)]),
        ([6, 6], [(1, 1), (5, 5)]),
        ([2, 2, 2], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    ]:
        g = bg.make_group(moduli)
        elements = [g.element(c) for c in coords]
        assert not _is_basis_by_fold(g, elements) and not bg.is_basis(g, elements)
    for moduli in ([1], [1, 1]):
        trivial = bg.make_group(moduli)
        assert bg.is_basis(trivial, []) and _is_basis_by_fold(trivial, [])
        assert bg.is_basis(trivial, [trivial.zero]) and _is_basis_by_fold(trivial, [trivial.zero])
    g, twin = bg.make_group([4, 6]), bg.make_group([4, 6])
    with pytest.raises(bg.GroupMismatchError):
        bg.is_basis(g, [g.element([1, 0]), twin.element([0, 1])])


def test_translate_matches_roll():
    rng = derive_rng(97)
    moduli_pool = [[64], [4, 6, 5], [16, 16], [2, 3, 1, 5], [7, 1], [12, 2, 2, 3], [1]]
    zero_axes = 0
    for case in range(140):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        subset = GroupSubset(g, rng.random(g.order) < rng.uniform(0.05, 0.9))
        coords = [int(rng.integers(0, q)) for q in g.moduli]
        if case % 3 == 0:
            coords = [0 if rng.random() < 0.5 else c for c in coords]
        if case % 7 == 0:
            coords = [0] * g.rank
        x = g.element(coords)
        zero_axes += any(c == 0 for c in x.coords) and not x.is_zero
        # the old path: one multi-axis np.roll of the mask tensor
        shifts = tuple(reversed(x.coords))
        rolled = np.roll(
            subset.mask.reshape(g.tensor_shape), shift=shifts, axis=tuple(range(g.rank))
        ).reshape(-1)
        got = subset.translate(x)
        assert np.array_equal(got.mask, rolled), (g, x.coords)
        assert (subset + x) == got and (subset - (-x)) == got
    assert zero_axes >= 30, zero_axes
    with pytest.raises(bg.GroupMismatchError):
        GroupSubset.empty(bg.make_group([4])).translate(bg.make_group([4]).element([1]))


def test_basis_reexpression_bijection():
    g = bg.make_group([4, 6])
    factors, basis = bg.invariant_factors(g)
    seen = set()
    ranges = [range(n) for n in factors]
    import itertools

    for coeffs in itertools.product(*ranges):
        x = g.zero
        for c, b in zip(coeffs, basis):
            x = x + c * b
        seen.add(x.index)
    assert len(seen) == g.order


def test_subset_algebra():
    g = bg.make_group([6])
    a = GroupSubset.from_indices(g, [0, 1, 2])
    b = GroupSubset.from_indices(g, [2, 3])
    assert sorted((a | b).indices()) == [0, 1, 2, 3]
    assert sorted((a & b).indices()) == [2]
    assert sorted(a.setminus(b).indices()) == [0, 1]
    assert sorted((a + g.element([2])).indices()) == [2, 3, 4]
    assert sorted(a.negate().indices()) == [0, 4, 5]
    assert sorted((a + b).indices()) == [2, 3, 4, 5]
    assert sorted((a - b).indices()) == [0, 3, 4, 5]


def test_sumset_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = bg.make_group([int(rng.integers(2, 7)), int(rng.integers(2, 7))])
        a_idx = rng.choice(g.order, size=rng.integers(1, g.order), replace=False)
        b_idx = rng.choice(g.order, size=rng.integers(1, g.order), replace=False)
        a = GroupSubset.from_indices(g, a_idx)
        b = GroupSubset.from_indices(g, b_idx)
        expect = set()
        for i in a_idx:
            for j in b_idx:
                expect.add(
                    (g.element_from_index(int(i)) + g.element_from_index(int(j))).index
                )
        assert set(int(v) for v in (a + b).indices()) == expect


def test_subgroup_helpers():
    g = bg.make_group([8])
    evens = subgroup_generated(g, [g.element([2])])
    assert sorted(evens.indices()) == [0, 2, 4, 6]
    assert is_subgroup(evens)
    assert not is_subgroup(GroupSubset.from_indices(g, [0, 2, 4]))
    gens = subgroup_generators(evens)
    assert subgroup_generated(g, gens) == evens
    ann = annihilator_subgroup(evens)
    assert sorted(ann.indices()) == [0, 4]


def test_parse_group_spec():
    assert bg.parse_group_spec("Z4xZ2") == [4, 2]
    assert bg.parse_group_spec("Z1") == [1]
    assert bg.parse_group_spec(" Z4 x Z2 x Z9 ") == [4, 2, 9]
    with pytest.raises(bg.GroupSpecSyntaxError):
        bg.parse_group_spec("Z0")
    with pytest.raises(bg.GroupSpecSyntaxError):
        bg.parse_group_spec("4xZ2")
    with pytest.raises(bg.GroupSpecSyntaxError):
        bg.parse_group_spec("Z4yZ2")
    with pytest.raises(bg.GroupSpecSyntaxError):
        bg.parse_group_spec("")


def test_parse_group_spec_ascii_digits_only():
    # str.isdigit() holds for these, but int() rejects the first
    for spec in ("Z\u00b2", "Z4xZ\u00b3", "Z\u0661\u0662"):
        with pytest.raises(bg.GroupSpecSyntaxError):
            bg.parse_group_spec(spec)


def test_coefficient_grid_and_combinations_match_loops():
    # the array tables against itertools.product and GroupElement sums
    rng = derive_rng(137)
    for moduli in ([12], [4, 6], [2, 3, 5], [9, 27]):
        g = bg.make_group(moduli)
        for _ in range(6):
            k = int(rng.integers(0, 4))
            ranges = [range(lo, lo + int(rng.integers(1, 5))) for lo in rng.integers(-3, 4, k).tolist()]
            grid = groups._coefficient_grid(ranges)
            assert grid.dtype == np.int64
            assert grid.tolist() == [list(row) for row in itertools.product(*ranges)]
            elements = [g.element_from_index(i) for i in rng.integers(0, g.order, k).tolist()]
            base = g.element_from_index(int(rng.integers(0, g.order)))
            want = []
            for row in itertools.product(*ranges):
                x = base
                for c, e in zip(row, elements):
                    x = x + c * e
                want.append(x.index)
            assert groups._combination_indices(g, grid, elements, base).tolist() == want
            assert groups._combination_indices(g, grid.tolist(), elements).tolist() == [
                (x - base).index for x in map(g.element_from_index, want)
            ]
