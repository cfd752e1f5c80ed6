"""Coset progressions, Freiman homomorphisms and their refinements."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib import progressions
from bogolib.bilinear import _grid_cells, _QState
from bogolib.errors import GroupMismatchError, PreconditionError
from bogolib.groups import GroupSubset, is_subgroup, subgroup_generated
from bogolib.progressions import (
    Arm,
    CosetProgression,
    FreimanMap,
    _cell_progression,
    change_basis,
    extract_subprogression,
    grow_progression_inside,
    injectivity_partition,
    intersect_refine,
    is_freiman_homomorphism,
    is_freiman_subgroup,
    partial_projectivity,
    popular_difference_progression,
    popular_difference_set,
    stabilizer,
    subgroup_basis,
)
from bogolib.rng import derive_rng


def interval(g, gen, lo, hi, base=0):
    return CosetProgression(
        g,
        g.element([base]),
        (Arm(g.element([gen]), lo, hi),),
        GroupSubset.from_indices(g, [0]),
    )


def test_is_proper_examples():
    g100 = bg.make_group([100])
    assert interval(g100, 1, 0, 9).is_proper()
    g10 = bg.make_group([10])
    assert not interval(g10, 2, 0, 9).is_proper()
    sub = subgroup_generated(g100, [g100.element([20])])
    assert CosetProgression.from_subgroup(sub).is_proper()


def test_enumeration_matches_formula():
    g = bg.make_group([12, 5])
    sub = subgroup_generated(g, [g.element([6, 0])])
    c = CosetProgression(
        g,
        g.element([1, 1]),
        (Arm(g.element([1, 0]), -2, 2), Arm(g.element([0, 1]), 0, 1)),
        sub,
    )
    assert c.formal_size == 5 * 2 * 2
    assert c.size == c.formal_size  # proper here
    coords = c.coordinates()
    assert len(coords) == c.size


def test_is_freiman_subgroup_examples():
    g = bg.make_group([100])
    b = bg.bounded_span(g, [g.element([1])], 4)
    assert is_freiman_subgroup(b, b)
    a = GroupSubset.from_indices(g, [0, 3])
    assert not is_freiman_subgroup(a, b)
    a_sym = GroupSubset.from_indices(g, [0, 3, 97])
    assert is_freiman_subgroup(a_sym, b)
    evens = GroupSubset.from_indices(g, [0, 2, 4, 96, 98])
    assert is_freiman_subgroup(evens, b)
    with pytest.raises(PreconditionError):
        is_freiman_subgroup(GroupSubset.from_indices(g, [50]), b)


def test_extract_subprogression_full_set():
    g = bg.make_group([50])
    c = CosetProgression.symmetric(g, [(g.element([1]), 10)])
    res = extract_subprogression(c.enumerate(), c, Fraction(1))
    assert all(ell <= 20 for ell in res.ells)
    assert res.progression.enumerate().is_subset_of(c.enumerate())


def test_extract_subprogression_evens():
    g = bg.make_group([100])
    c = CosetProgression.symmetric(g, [(g.element([1]), 10)])
    evens = GroupSubset.from_indices(
        g, [i for i in list(range(0, 11, 2)) + list(range(90, 100, 2))]
    )
    res = extract_subprogression(evens, c, Fraction(11, 21))
    assert res.ells == (2,)
    assert res.progression.arms[0].hi == 5  # M = floor(10 / 2)
    assert res.progression.enumerate().is_subset_of(evens)


def test_extract_subprogression_subgroup_only():
    g = bg.make_group([8])
    h = subgroup_generated(g, [g.element([2])])
    c = CosetProgression.from_subgroup(h)
    a = subgroup_generated(g, [g.element([4])])  # index 2 in h
    res = extract_subprogression(a, c, Fraction(1, 2))
    assert res.progression.subgroup == a


def test_change_basis_examples():
    g = bg.make_group([2, 4])
    _, basis = bg.invariant_factors(g)
    same = change_basis(g, basis, ("upper", 0, 1, 0))
    assert [b.coords for b in same] == [b.coords for b in basis]
    moved = change_basis(g, basis, ("upper", 0, 1, 1))
    assert bg.is_basis(g, moved)
    assert [b.order for b in moved] == [2, 4]
    with pytest.raises(PreconditionError):
        change_basis(g, basis, ("unit", 1, 2))  # gcd(2, 4) != 1


def test_change_basis_random_moves():
    rng = derive_rng(43)
    for moduli in ([4, 6], [8], [3, 9], [2, 2, 4]):
        g = bg.make_group(moduli)
        factors, basis = bg.invariant_factors(g)
        for _ in range(30):
            r = len(basis)
            kind = rng.choice(["upper", "lower", "unit"]) if r > 1 else "unit"
            if kind == "upper":
                i = int(rng.integers(0, r - 1))
                j = int(rng.integers(i + 1, r))
                move = ("upper", i, j, int(rng.integers(-3, 4)))
            elif kind == "lower":
                j = int(rng.integers(0, r - 1))
                i = int(rng.integers(j + 1, r))
                move = ("lower", i, j, int(rng.integers(-3, 4)))
            else:
                i = int(rng.integers(0, r))
                lam = 1 + 2 * int(rng.integers(0, 3))
                while np.gcd(lam, factors[i]) != 1:
                    lam += 2
                move = ("unit", i, lam)
            basis = change_basis(g, basis, move)  # validates internally
        assert [b.order for b in basis] == factors


def test_subgroup_basis():
    rng = derive_rng(47)
    for moduli in ([8], [4, 6], [2, 2, 9], [12, 10]):
        g = bg.make_group(moduli)
        for _ in range(5):
            gens = [
                g.element_from_index(int(rng.integers(0, g.order)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            sub = subgroup_generated(g, gens)
            orders, basis = subgroup_basis(g, sub)
            assert int(np.prod([1] + orders)) == sub.size
            for a, b in zip(orders, orders[1:]):
                assert b % a == 0
            assert [x.order for x in basis] == orders
            assert subgroup_generated(g, basis) == sub


def test_partial_projectivity_trivial_kernel():
    g = bg.make_group([2])
    h = bg.make_group([4])
    k0 = GroupSubset.from_indices(h, [0])
    res = partial_projectivity(g, h, k0, lambda x: h.element([2 * x.coords[0]]), 2)
    assert res.progression.rank == 0
    assert res.progression.size == g.order


def test_partial_projectivity_z2_to_z4():
    g = bg.make_group([2])
    h = bg.make_group([4])
    k = GroupSubset.from_indices(h, [0, 2])
    res = partial_projectivity(g, h, k, lambda x: h.element([x.coords[0]]), 2)
    assert res.progression.size == 1
    assert res.lift(0).is_zero
    assert res.progression.size * k.size >= g.order
    assert 2 ** len(res.heavy_indices) <= k.size


def test_partial_projectivity_random():
    rng = derive_rng(53)
    done = 0
    while done < 10:
        g = bg.make_group([int(rng.integers(2, 9)), int(rng.integers(2, 5))])
        h = bg.make_group([int(rng.integers(2, 9)), int(rng.integers(2, 5))])
        kgen = h.element_from_index(int(rng.integers(0, h.order)))
        k = subgroup_generated(h, [kgen])
        if k.size > 8:
            continue
        orders, basis = bg.invariant_factors(g)
        reps = []
        for n in orders:
            cands = [
                e
                for e in h.elements()
                if (n * e) in k
            ]
            reps.append(cands[int(rng.integers(0, len(cands)))])
        lookup = {}
        import itertools

        for coeffs in itertools.product(*[range(n) for n in orders]):
            x = g.zero
            v = h.zero
            for c, b, r in zip(coeffs, basis, reps):
                x = x + c * b
                v = v + c * r
            lookup[x.index] = v
        res = partial_projectivity(g, h, k, lambda x: lookup[x.index], 2)
        assert is_freiman_homomorphism(res.lift, 2)
        done += 1


def test_injectivity_partition_projection():
    g = bg.make_group([4, 2])
    h = bg.make_group([4])
    sub = subgroup_generated(g, [g.element([0, 1])])
    c = CosetProgression(g, g.zero, (Arm(g.element([1, 0]), 0, 3),), sub)
    phi = FreimanMap(c, h, g.coords_matrix[:, 0], 2)  # (a, b) -> a in Z4
    res = injectivity_partition(phi, Fraction(1, 2))
    assert res.refinement.enumerate().is_subset_of(sub)
    assert 2**res.refinement.rank <= 2
    assert res.refinement.size >= Fraction(1, 4) * sub.size
    assert res.cell_count <= 8 * 1 * 2


def test_injectivity_partition_injective_map():
    g = bg.make_group([9])
    h = bg.make_group([9])
    c = interval(g, 1, 0, 8)
    phi = FreimanMap(c, h, 2 * np.arange(9) % 9, 2)
    res = injectivity_partition(phi, Fraction(1))
    assert res.cell_count >= 1


def test_popular_difference_examples():
    g8 = bg.make_group([8])
    h = subgroup_generated(g8, [g8.element([2])])
    pop = popular_difference_progression(h, Fraction(1))
    assert pop.enumerate() == h
    single = GroupSubset.from_indices(g8, [0])
    assert popular_difference_progression(single, Fraction(1)).size == 1
    g100 = bg.make_group([100])
    ap = GroupSubset.from_indices(g100, range(16))
    k = Fraction(ap.sumset(ap).size, ap.size)
    pop = popular_difference_progression(ap, k)
    assert pop.is_symmetric and pop.is_proper() and pop.size > 1


def test_popular_difference_threshold_direct():
    rng = derive_rng(59)
    from bogolib.fourier import quadruple_count_all

    for _ in range(10):
        g = bg.make_group([int(rng.integers(8, 40))])
        size = int(rng.integers(2, min(16, g.order)))
        a = GroupSubset.from_indices(g, rng.choice(g.order, size=size, replace=False))
        k = Fraction(a.sumset(a).size, a.size)
        pop = popular_difference_progression(a, k)
        counts = quadruple_count_all(a)
        thr = Fraction(a.size**3, 64) / k
        for idx in pop.enumerate().indices():
            assert counts[int(idx)] >= thr


def test_popular_difference_doubling_gate():
    g = bg.make_group([64])
    a = GroupSubset.from_indices(g, [0, 1, 5, 30])
    with pytest.raises(PreconditionError):
        popular_difference_progression(a, Fraction(1))


def _grow_by_trials(
    allowed,
    *,
    candidate_order=None,
    rank_cap=3,
    candidate_cap=512,
    use_stabilizer=True,
):
    """The trial-by-trial loop that grow_progression_inside replaced: every
    candidate half builds a whole progression and enumerates it."""
    group = allowed.group
    if use_stabilizer:
        sub = stabilizer(allowed)
        sub = sub if is_subgroup(sub) else GroupSubset.from_indices(group, [0])
    else:
        sub = GroupSubset.from_indices(group, [0])
    prog = CosetProgression(group, group.zero, (), sub)
    order = (
        [int(i) for i in candidate_order]
        if candidate_order is not None
        else [int(i) for i in allowed.indices()]
    )
    for raw in order[:candidate_cap]:
        if prog.rank >= rank_cap:
            break
        v = group.element_from_index(raw)
        if v.is_zero:
            continue
        best = None
        half = 1
        while half <= v.order // 2 + 1:
            trial = CosetProgression(
                group, group.zero, prog.arms + (Arm(v, -half, half),), prog.subgroup
            )
            if trial.is_proper() and trial.enumerate().is_subset_of(allowed):
                best = trial
                half += 1
            else:
                break
        if best is not None:
            prog = best
    return prog


def _random_allowed(rng, g):
    """A set containing 0: noise, a symmetric interval, or a union of cosets."""
    kind = int(rng.integers(0, 3))
    mask = rng.random(g.order) < rng.uniform(0.1, 0.8)
    if kind >= 1:
        v = g.element_from_index(int(rng.integers(0, g.order)))
        n = int(rng.integers(1, 8))
        mask |= bg.bounded_span(g, [v], n).mask
    if kind == 2:
        h = subgroup_generated(g, [g.element_from_index(int(rng.integers(0, g.order)))])
        mask = GroupSubset(g, mask).sumset(h).mask.copy()
    mask[0] = True
    return GroupSubset(g, mask)


def test_grow_progression_matches_trial_loop(monkeypatch):
    rng = derive_rng(61)
    moduli_pool = [[24], [4, 6], [2, 3, 5], [2, 2, 8], [9, 3], [64]]
    grown_arms = long_arms = nontrivial_sub = blocked = 0
    for case in range(180):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        allowed = _random_allowed(rng, g)
        kwargs = {
            "rank_cap": int(rng.integers(1, 4)),
            "use_stabilizer": bool(case % 2),
        }
        order_kind = case % 3
        if order_kind == 1:
            kwargs["candidate_order"] = rng.permutation(allowed.indices()).tolist()
        elif order_kind == 2:
            # any element, repeats allowed, 0 and points outside the set included
            kwargs["candidate_order"] = rng.integers(0, g.order, size=20).tolist()
            kwargs["candidate_cap"] = int(rng.integers(1, 21))
        # blocks of 1-3 candidates in three cases of four, so accepted arms
        # fall at every position inside a block and across its boundary
        per_block = case % 4
        if per_block:
            monkeypatch.setattr(progressions, "_GROW_BLOCK", per_block * g.order)
        got = grow_progression_inside(allowed, **kwargs)
        monkeypatch.undo()
        want = _grow_by_trials(allowed, **kwargs)
        assert got.arms == want.arms, (g, kwargs, per_block)
        assert got.subgroup == want.subgroup
        assert got.enumerate() == want.enumerate()
        assert got.is_proper() and got.enumerate().is_subset_of(allowed)
        grown_arms += len(got.arms)
        long_arms += sum(arm.hi >= 2 for arm in got.arms)
        nontrivial_sub += got.subgroup.size > 1
        blocked += per_block > 0 and len(got.arms) >= 1
    assert grown_arms >= 150 and long_arms >= 50 and nontrivial_sub >= 15 and blocked >= 80, (
        grown_arms,
        long_arms,
        nontrivial_sub,
        blocked,
    )
    g = bg.make_group([4, 6])
    with pytest.raises(ValueError):
        grow_progression_inside(GroupSubset.full(g), candidate_order=[1, g.order])


def test_public_constructor_verifies_subgroup():
    g = bg.make_group([4, 6])
    with pytest.raises(PreconditionError):
        CosetProgression(g, g.zero, (), GroupSubset.from_indices(g, [0, 1]))
    with pytest.raises(PreconditionError):
        CosetProgression.symmetric(
            g, [(g.element([1, 0]), 1)], GroupSubset.from_indices(g, [1])
        )


def test_derived_progressions_share_the_verified_subgroup():
    g = bg.make_group([4, 6])
    sub = subgroup_generated(g, [g.element([2, 0])])
    c = CosetProgression.symmetric(g, [(g.element([0, 1]), 2)], sub)
    t = g.element([1, 1])
    shifted = c.translate(t)
    assert shifted.subgroup is sub
    assert shifted.enumerate() == CosetProgression(g, t, c.arms, sub).enumerate()
    assert _cell_progression(c, (1,), (2,)).subgroup is sub
    q = _QState([2], [1], sub)
    assert q.progression(c).subgroup is sub
    cells = _grid_cells(c, q)
    assert cells and all(cell.subgroup is sub for cell in cells)


def test_derived_progressions_reject_foreign_parts():
    g = bg.make_group([4, 6])
    other = bg.make_group([4, 6])
    sub = subgroup_generated(g, [g.element([2, 0])])
    c = CosetProgression.symmetric(g, [(g.element([0, 1]), 2)], sub)
    with pytest.raises(GroupMismatchError):
        c.translate(other.element([1, 0]))
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, other.zero, c.arms, sub)
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, g.zero, (Arm(other.element([1, 0]), -1, 1),), sub)
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, g.zero, (), GroupSubset.from_indices(other, [0]))
    with pytest.raises(GroupMismatchError):
        _QState([1], [1], GroupSubset.from_indices(other, [0])).progression(c)
    with pytest.raises(ValueError):
        CosetProgression._derived(g, g.zero, (Arm(g.element([1, 0]), 1, 0),), sub)


def test_intersect_refine_examples():
    g = bg.make_group([100])
    c1 = interval(g, 1, 0, 39)
    c2 = interval(g, 1, 0, 39, base=20)
    x12 = c1.enumerate() & c2.enumerate()
    res = intersect_refine([c1, c2], x12)
    inter = c1.enumerate() & c2.enumerate()
    assert res.progression.enumerate().is_subset_of(inter)
    assert res.overlap == (res.progression.enumerate() & x12).size
    solo = intersect_refine([c1], c1.enumerate())
    assert solo.overlap >= solo.progression.size
    with pytest.raises(PreconditionError):
        c3 = interval(g, 1, 0, 9, base=60)
        intersect_refine([c1, c3], GroupSubset.from_indices(g, [0]))


def test_freiman_map_verification():
    g = bg.make_group([16])
    h = bg.make_group([16])
    c = interval(g, 1, 0, 7)
    values = np.where(np.arange(16) < 8, 3 * np.arange(16) % 16, -1)
    linear = FreimanMap(c, h, values, 2)
    assert is_freiman_homomorphism(linear, 2)
    values[5] = 1
    broken = FreimanMap(c, h, values, 2)
    assert not is_freiman_homomorphism(broken, 2)
    # an arm of 200 points, past the old exhaustive cutoff of 128
    g256 = bg.make_group([256])
    c = interval(g256, 1, 0, 199)
    values = np.where(np.arange(256) < 200, 3 * np.arange(256) % 256, -1)
    for s in (2, 3):
        assert is_freiman_homomorphism(FreimanMap(c, g256, values, s), s)
    values[150] = 0
    assert not is_freiman_homomorphism(FreimanMap(c, g256, values, 2), 2)


def _freiman_oracle(fmap, s):
    """Brute force: every s-tuple of domain points, summed coordinatewise;
    each sum must carry a single value."""
    g, h = fmap.domain.group, fmap.codomain
    dom = [int(i) for i in fmap.domain.enumerate().indices()]
    xs = {i: g.element_from_index(i).coords for i in dom}
    vs = {i: h.element_from_index(int(fmap.values[i])).coords for i in dom}
    seen = {}
    for tup in itertools.product(dom, repeat=s):
        x = tuple(sum(c) % q for c, q in zip(zip(*(xs[i] for i in tup)), g.moduli))
        v = tuple(sum(c) % q for c, q in zip(zip(*(vs[i] for i in tup)), h.moduli))
        if seen.setdefault(x, v) != v:
            return False
    return True


def _arm_map(g, h, base, gen, length, b, w, order):
    """base + k gen -> b + k w on k = 0..length-1, the k taken in Z."""
    dom = CosetProgression(g, base, (Arm(gen, 0, length - 1),), GroupSubset.from_indices(g, [0]))
    values = np.full(g.order, -1, dtype=np.int64)
    for k in range(length):
        values[(base + k * gen).index] = (b + k * w).index
    return FreimanMap(dom, h, values, order)


def test_freiman_homomorphism_matches_bruteforce():
    rng = derive_rng(67)
    outcomes = []
    for case in range(80):
        g = bg.make_group([[32], [4, 8], [24], [2, 2, 6]][case % 4])
        h = bg.make_group([[3], [6], [9], [24], [2, 4]][int(rng.integers(0, 5))])
        gen = g.element_from_index(int(rng.integers(1, g.order)))
        length = int(rng.integers(1, min(gen.order, 16) + 1))
        base = g.element_from_index(int(rng.integers(0, g.order)))
        b, w = (h.element_from_index(int(i)) for i in rng.integers(0, h.order, size=2))
        s = 2 + case % 2
        fmap = _arm_map(g, h, base, gen, length, b, w, s)
        if case % 4 >= 2:  # one point moved by a nonzero value
            values = fmap.values.copy()
            p = (base + int(rng.integers(0, length)) * gen).index
            shift = h.element_from_index(int(rng.integers(1, h.order)))
            values[p] = (h.element_from_index(int(values[p])) + shift).index
            fmap = FreimanMap(fmap.domain, h, values, s)
        want = _freiman_oracle(fmap, s)
        assert is_freiman_homomorphism(fmap, s) == want
        assert is_freiman_homomorphism(fmap) == want  # s from the map's order
        outcomes.append(want)
    assert 20 <= sum(outcomes) <= 60
    # Z32, arm 0..11: 2-fold sums stay below 32, but 3-fold sums wrap, so a
    # map linear in k with 32 w != 0 is a Freiman 2- and not a 3-homomorphism;
    # a sampled check passed these five
    g = bg.make_group([32])
    for m, gen, w, b in ((9, 1, 2, 6), (48, 1, 46, 5), (6, 1, 1, 1), (3, 5, 1, 2), (24, 5, 22, 23)):
        h = bg.make_group([m])
        fmap = _arm_map(g, h, g.zero, g.element([gen]), 12, h.element([b]), h.element([w]), 3)
        assert is_freiman_homomorphism(fmap, 2) and _freiman_oracle(fmap, 2)
        assert not is_freiman_homomorphism(fmap, 3) and not _freiman_oracle(fmap, 3)
