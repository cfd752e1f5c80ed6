"""Lattice utilities: annihilator boxes, spans, bounded coefficients."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib import intmat
from bogolib.bohr import large_spectrum_certify, spectrum_cutoff
from bogolib.errors import PreconditionError
from bogolib.lattices import (
    IntegerLattice,
    _hermite_frame,
    annihilator_points,
    box_preimages,
    bounded_representation,
    chain_monitor,
    in_z_span,
    span_cover,
)
from bogolib.rng import derive_rng
from oracles import greedy_frame_pivots


def test_annihilator_points_examples():
    g4 = bg.make_group([4])
    pts = annihilator_points([g4.element([2])], 2)
    assert pts.tolist() == [[-2], [0], [2]]
    pts = annihilator_points([g4.element([0])], 2)
    assert pts.tolist() == [[-2], [-1], [0], [1], [2]]
    g = bg.make_group([11])
    s = g.element([1])
    pts = annihilator_points([s, s], 3)
    assert sorted(map(tuple, pts.tolist())) == [(-3, 3), (-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2), (3, -3)]


def test_annihilator_points_closure():
    rng = derive_rng(31)
    for _ in range(10):
        g = bg.make_group([int(rng.integers(2, 20))])
        elems = [
            g.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(int(rng.integers(1, 3)))
        ]
        radius = int(rng.integers(1, 5))
        pts = set(map(tuple, annihilator_points(elems, radius).tolist()))
        assert tuple([0] * len(elems)) in pts
        for p in pts:
            assert tuple(-c for c in p) in pts
        for p, q in itertools.product(list(pts)[:20], repeat=2):
            s = tuple(a + b for a, b in zip(p, q))
            if all(abs(c) <= radius for c in s):
                assert s in pts


def test_annihilator_matches_bruteforce():
    g = bg.make_group([6, 4])
    elems = [g.element([1, 2]), g.element([3, 1])]
    radius = 4
    pts = set(map(tuple, annihilator_points(elems, radius).tolist()))
    expect = set()
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a * elems[0] + b * elems[1]).is_zero:
                expect.add((a, b))
    assert pts == expect


def _box_oracle(g, elems, bounds):
    """Every vector of the box ``bounds[i] = (lo, hi)`` in lex order
    (``itertools.product``) and the group index of its combination."""
    k = len(elems)
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    vecs = np.asarray(list(itertools.product(*ranges)), dtype=np.int64).reshape(
        math.prod(map(len, ranges)), k
    )
    coords = np.asarray([e.coords for e in elems], dtype=np.int64).reshape(k, g.rank)
    return vecs, g.index_of_coords(vecs @ coords)


_ORACLE_MODULI = [[1], [2], [3], [5], [7], [12], [29], [2, 2], [2, 6], [3, 3], [2, 3, 4]]


def _oracle_cases(seed, count):
    """Seeded (group, elements, bounds) with k = 0..4 and zero elements, in
    three kinds taking turns: a shared radius ``(-R, R)`` (0, or at least
    the element orders), the one-sided ``(0, ord - 1)`` of partial
    projectivity (k <= 3), and asymmetric ranges; boxes of at most 29^3."""
    rng = derive_rng(seed)
    for case in range(count):
        g = bg.make_group(_ORACLE_MODULI[case % len(_ORACLE_MODULI)])
        kind = case % 3
        k = min(case % 5, 3) if kind == 1 else case % 5
        elems = [g.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)]
        if k and case % 4 == 0:
            elems[int(rng.integers(0, k))] = g.zero
        if kind == 0:
            radius = [0, 1, 2, 3, 6][int(rng.integers(0, 5 if k <= 3 else 3))]
            bounds = [(-radius, radius)] * k
        elif kind == 1:
            bounds = [(0, e.order - 1) for e in elems]
        else:
            los = rng.integers(-4, 2, size=k)
            bounds = [(int(lo), int(lo + w)) for lo, w in zip(los, rng.integers(0, 7, size=k))]
        yield g, elems, bounds


def test_box_search_matches_product_oracle():
    wide = 0  # cases with a range longer than its element's period
    for case, (g, elems, bounds) in enumerate(_oracle_cases(71, 330)):
        vecs, sums = _box_oracle(g, elems, bounds)
        wide += any(1 < e.order < hi - lo + 1 for e, (lo, hi) in zip(elems, bounds))
        if elems and case % 3 == 0:
            radius = bounds[0][1]
            assert annihilator_points(elems, radius).tolist() == vecs[sums == 0].tolist()
        # every target at once: grouped by target, lex order within one
        which, got = box_preimages(g, elems, bounds, np.arange(g.order), first=False)
        order = np.argsort(sums, kind="stable")
        assert which.tolist() == sums[order].tolist()
        assert got.tolist() == vecs[order].tolist()
        # lex-smallest preimage of every group element, or none on both sides
        which, got = box_preimages(g, elems, bounds, np.arange(g.order), first=True)
        assert dict(zip(which.tolist(), got.tolist())) == _lex_preimages(g, elems, bounds)
    assert wide >= 40, wide


def test_large_spectrum_certify_matches_product_oracle():
    rng = derive_rng(73)
    eta, rho = Fraction(1), Fraction(0)
    found = missing = 0
    for case in range(90):
        g = bg.make_group(_ORACLE_MODULI[case % len(_ORACLE_MODULI)])
        k = case % 4
        freqs = [g.dual.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)]
        if k > 1 and case % 3 == 0:
            freqs[1] = freqs[0]  # a repeat, deduplicated by the certifier
        if k and case % 5 == 0:
            freqs[0] = g.dual.zero
        distinct = list(dict.fromkeys(freqs))
        # eta * eps = 22 k / K pins the cutoff K in 1..3
        want_cutoff = int(rng.integers(1, 4))
        eps = Fraction(22 * len(distinct), want_cutoff) if distinct else Fraction(1)
        cutoff = spectrum_cutoff(len(distinct), eta, eps)
        assert cutoff == (want_cutoff if distinct else 0)
        vecs, sums = _box_oracle(g.dual, distinct, [(-cutoff, cutoff)] * len(distinct))
        for chi in g.dual.elements():
            rep = large_spectrum_certify(g, freqs, rho, eta, eps, chi)
            if not np.any(sums == chi.index):
                assert rep is None
                missing += 1
                continue
            assert rep is not None and len(rep) == len(distinct)
            assert max(map(abs, rep), default=0) <= cutoff
            combo = g.dual.zero
            for a, gamma in zip(rep, distinct):
                combo = combo + a * gamma
            assert combo == chi
            found += 1
    assert found >= 250 and missing >= 250, (found, missing)


def test_in_z_span_examples():
    assert in_z_span([0], [[2]])
    assert not in_z_span([3], [[2]])
    assert in_z_span([4, 3], [[2, 0], [0, 3]])


def test_in_z_span_rejects_dimension_mismatch():
    for vec, gens in [([1, 5], [[1]]), ([0, 5], [[1]]), ([1], [[1, 0]])]:
        with pytest.raises(ValueError):
            in_z_span(vec, gens)


def test_in_z_span_matches_bruteforce():
    rng = derive_rng(37)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        n_gen = int(rng.integers(1, 4))
        gens = rng.integers(-3, 4, size=(n_gen, dim)).tolist()
        vec = rng.integers(-6, 7, size=dim).tolist()
        brute = False
        for coeffs in itertools.product(range(-10, 11), repeat=n_gen):
            if all(
                sum(c * g[k] for c, g in zip(coeffs, gens)) == vec[k]
                for k in range(dim)
            ):
                brute = True
                break
        # brute force only sees the box; membership outside it is possible
        got = in_z_span(vec, gens)
        if brute:
            assert got
        elif not got:
            assert not brute


def test_bounded_representation_examples():
    lam = bounded_representation([4, 2], [[2, 1], [1, 1]], 2, 4)
    assert lam == [2, 0]
    assert bounded_representation([0, 0], [[2, 0], [0, 3]], 3, 1) == [0, 0]
    lam = bounded_representation([4, 3], [[2, 0], [0, 3]], 3, 4)
    assert lam == [2, 1]
    assert max(map(abs, lam)) <= math.factorial(2) * 3**3 * (4 + 2)


def test_bounded_representation_errors():
    with pytest.raises(PreconditionError):
        bounded_representation([3, 0], [[2, 0]], 2, 3)
    with pytest.raises(PreconditionError):
        bounded_representation([1, 0], [[9, 0]], 2, 1)  # norm gate


def test_bounded_representation_random():
    rng = derive_rng(41)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        k1 = int(rng.integers(1, 4))
        zs = rng.integers(-k1, k1 + 1, size=(r, dim)).tolist()
        coeffs = rng.integers(-3, 4, size=r)
        w = [int(sum(c * z[k] for c, z in zip(coeffs, zs))) for k in range(dim)]
        k2 = max(1, max(abs(x) for x in w))
        lam = bounded_representation(w, zs, k1, k2)
        rebuilt = [sum(c * z[k] for c, z in zip(lam, zs)) for k in range(dim)]
        assert rebuilt == w
        bound = math.factorial(dim) * k1 ** (dim + 1) * (k2 + r)
        assert max(map(abs, lam)) <= bound


def test_hermite_frame_matches_greedy_rank_oracle():
    rng = derive_rng(83)
    dependent = gapped = 0  # gapped: a row or column skipped before the last kept
    for _ in range(1200):
        n_rows, n_cols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        base = rng.integers(-4, 5, size=(int(rng.integers(1, n_cols + 1)), n_cols))
        # every row a combination of the base rows, so rows repeat their
        # relations; some columns are zero or copies of an earlier column
        rows = rng.integers(-2, 3, size=(n_rows, base.shape[0])) @ base
        for c in range(1, n_cols):
            if rng.integers(0, 4) == 0:
                rows[:, c] = rows[:, int(rng.integers(0, c))] * int(rng.integers(-2, 3))
        rows = rows.tolist()
        frame = _hermite_frame(rows)
        assert (frame.independent, frame.columns) == greedy_frame_pivots(rows)
        dependent += len(frame.independent) < n_rows
        gapped += frame.independent + frame.columns != [*range(len(frame.independent))] * 2
    assert dependent >= 600 and gapped >= 200, (dependent, gapped)


def test_chain_monitor():
    assert chain_monitor(1, 1) >= 2
    assert chain_monitor(2, 2) >= 3
    # strictly increasing chains of index-2 sublattices of Z^2 are short
    chain = [[[2, 0], [0, 2]], [[1, 0], [0, 2]], [[1, 0], [0, 1]]]
    assert len(chain) <= chain_monitor(2, 2)


def test_integer_lattice_member():
    lat = IntegerLattice(2, ((2, 0), (0, 3)))
    assert lat.member([4, 3])
    assert not lat.member([1, 0])
    assert lat.with_row((1, 0)).member([1, 0])
    assert IntegerLattice(2).member([0, 0])
    assert not IntegerLattice(2).member([1, 0])


def test_integer_lattice_rejects_row_of_other_dimension():
    for row in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError):
            IntegerLattice(2).with_row(row)


def test_span_cover_examples():
    g = bg.make_group([100])
    b = [g.element([5])]
    cover = span_cover(g, b, [g.element([1])], 5)
    assert [e.coords for e in cover.generators] == [(5,)]
    assert cover.coefficient_bound == 1
    # {2, 3} inside <1>_3: greedy picks 2 then 3
    cover = span_cover(g, [g.element([2]), g.element([3])], [g.element([1])], 3)
    assert [e.coords for e in cover.generators] == [(2,), (3,)]
    assert cover.coefficient_bound == 1


def test_span_cover_full_span():
    g = bg.make_group([64])
    gens = [g.element([1]), g.element([6])]
    full = bg.bounded_span(g, gens, 3)
    members = [g.element_from_index(int(i)) for i in full.indices()]
    cover = span_cover(g, members, gens, 3)
    assert len(cover.generators) <= cover.budget
    for b in members:
        lam = cover.coefficients[b.index]
        combo = g.zero
        for c, gen in zip(lam, cover.generators):
            combo = combo + c * gen
        assert combo == b
        assert max((abs(c) for c in lam), default=0) <= cover.coefficient_bound


def _lex_preimages(g, ambient, bounds):
    """Element index -> lexicographically smallest box vector onto it."""
    vecs, sums = _box_oracle(g, ambient, bounds)
    first = {}
    for t, v in zip(sums.tolist(), vecs.tolist()):
        first.setdefault(t, v)
    return first


def test_span_cover_matches_per_member_representation():
    rng = derive_rng(67)
    moduli_pool = [[101], [60], [4, 6], [2, 3, 5], [9, 3], [2, 2, 8]]
    q_dependent = 0
    for case in range(60):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        k = int(rng.integers(1, 4))
        radius = int(rng.integers(1, 4))
        ambient = [g.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)]
        pre = _lex_preimages(g, ambient, [(-radius, radius)] * k)
        idx = sorted(pre)
        size = int(rng.integers(1, min(25, len(idx)) + 1))
        members = [
            g.element_from_index(int(v)) for v in rng.choice(idx, size=size, replace=False)
        ]
        cover = span_cover(g, members, ambient, radius)
        ordered = sorted(members, key=lambda e: e.index)
        # the from-scratch greedy loop: one in_z_span call per member
        chosen = []
        for b in ordered:
            if not in_z_span(pre[b.index], [pre[c.index] for c in chosen]):
                chosen.append(b)
        assert cover.generators == chosen
        chosen_vecs = [pre[c.index] for c in chosen]
        for b in ordered:
            want = bounded_representation(pre[b.index], chosen_vecs, radius, radius)
            assert cover.coefficients[b.index] == want
        hermite, _ = intmat.row_hermite(chosen_vecs)
        q_dependent += len(chosen) > len(hermite)
    assert q_dependent >= 10, q_dependent


def test_span_cover_outside_member():
    g = bg.make_group([100])
    with pytest.raises(PreconditionError):
        span_cover(g, [g.element([50])], [g.element([1])], 3)
