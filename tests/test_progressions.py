"""Coset progressions, Freiman homomorphisms and their refinements."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib import progressions
from bogolib.bilinear import _grid_cells
from bogolib.errors import GroupMismatchError, PreconditionError
from bogolib.groups import GroupSubset, is_subgroup, subgroup_generated
from bogolib.lattices import box_preimages
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
    assert CosetProgression(g100, g100.zero, (), sub).is_proper()


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
    elements, coefficients, subgroup = c.coordinates()
    assert sorted(elements.tolist()) == c.enumerate().indices().tolist()
    # row i is base + sum_j coefficients[i, j] v_j + subgroup[i], in
    # itertools.product order of the coefficients
    rows = [
        (lam, int(h)) for lam in itertools.product(range(-2, 3), range(2)) for h in sub.indices()
    ]
    assert [(tuple(lam), int(h)) for lam, h in zip(coefficients.tolist(), subgroup)] == rows
    for e, (lam, h) in zip(elements, rows):
        x = c.base + g.element_from_index(h)
        for k, arm in zip(lam, c.arms):
            x = x + k * arm.generator
        assert x.index == e
    with pytest.raises(PreconditionError):
        interval(bg.make_group([10]), 2, 0, 9).coordinates()


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
    c = CosetProgression(g, g.zero, (), h)
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
    res = partial_projectivity(g, h, k0, h.index_of_coords(2 * g.coords_matrix))
    assert res.progression.rank == 0
    assert res.progression.size == g.order
    # phi_rep is a value array over the whole group, one codomain index each
    for bad in (np.zeros(3, dtype=np.int64), np.asarray([0, h.order]), np.asarray([0, -1])):
        with pytest.raises(PreconditionError):
            partial_projectivity(g, h, k0, bad)


def test_partial_projectivity_z2_to_z4():
    g = bg.make_group([2])
    h = bg.make_group([4])
    k = GroupSubset.from_indices(h, [0, 2])
    res = partial_projectivity(g, h, k, h.index_of_coords(g.coords_matrix))
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
        lookup = np.full(g.order, -1, dtype=np.int64)
        for coeffs in itertools.product(*[range(n) for n in orders]):
            x = g.zero
            v = h.zero
            for c, b, r in zip(coeffs, basis, reps):
                x = x + c * b
                v = v + c * r
            lookup[x.index] = v.index
        res = partial_projectivity(g, h, k, lookup)
        assert is_freiman_homomorphism(res.lift, 2)
        done += 1


def test_partial_projectivity_rewrites_by_the_last_witness_first():
    # the two heavier witnesses share multiples, so the rewrite depends on
    # the search order: the smallest coefficient on the last witness first
    g, h = bg.make_group([2, 2, 4]), bg.make_group([2, 4, 8])
    k = subgroup_generated(h, [h.element([0, 2, 3]), h.element([1, 2, 2])])
    orders, basis = bg.invariant_factors(g)
    assert orders == [2, 2, 4] and [b.coords for b in basis] == [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    reps = np.asarray([(0, 0, 6), (1, 0, 3), (1, 1, 5)])
    grid = np.asarray(list(itertools.product(*[range(n) for n in orders])))
    x = g.index_of_coords(grid @ np.asarray([b.coords for b in basis]))
    lookup = np.full(g.order, -1, dtype=np.int64)
    lookup[x] = h.index_of_coords(grid @ reps)
    res = partial_projectivity(g, h, k, lookup)
    assert res.heavy_indices == (1, 2)
    assert [e.coords for e in res.subgroup_values] == [(0, 0, 0)]


def _subgroup_combination_oracle(group, generators, target):
    """The dict DP over the generated subgroup: one state per element,
    keyed by index, with the coefficients of its first reach."""
    every = np.arange(group.order)
    states = {0: ()}
    for g in generators:
        new_states = {}
        for lam in range(g.order):
            # the element lam g added to every index
            plus = group.add_indices(every, np.full(group.order, (lam * g).index)).tolist()
            for idx, coeffs in states.items():
                nxt = plus[idx]
                if nxt not in new_states:
                    new_states[nxt] = coeffs + (lam,)
        states = new_states
    return list(states[target.index]) if target.index in states else None


def test_subgroup_combination_matches_dict_oracle():
    rng = derive_rng(59)
    reached = missed = 0
    for _ in range(400):
        rank, count = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        g = bg.make_group([int(m) for m in rng.integers(2, 9, size=rank)])
        gens = [g.element_from_index(int(i)) for i in rng.integers(0, g.order, size=count)]
        if rng.integers(0, 2):
            target = g.element_from_index(int(rng.integers(0, g.order)))
        else:
            target = g.zero
            for x in gens:
                target = target + int(rng.integers(0, x.order)) * x
        # partial projectivity's search: the generators from the last one
        # down, each coefficient in 0..ord - 1, the smallest vector kept
        found, vecs = box_preimages(
            g,
            gens[::-1],
            [(0, x.order - 1) for x in gens[::-1]],
            np.asarray([target.index]),
            first=True,
        )
        got = vecs[0, ::-1].tolist() if found.size else None
        assert got == _subgroup_combination_oracle(g, gens, target)
        if got is None:
            missed += 1
        else:
            total = g.zero
            for lam, x in zip(got, gens):
                total = total + lam * x
            assert total == target and all(0 <= lam < x.order for lam, x in zip(got, gens))
            reached += 1
    assert reached > 0 and missed > 0


def test_injectivity_partition_projection():
    g = bg.make_group([4, 2])
    h = bg.make_group([4])
    sub = subgroup_generated(g, [g.element([0, 1])])
    c = CosetProgression(g, g.zero, (Arm(g.element([1, 0]), 0, 3),), sub)
    phi = FreimanMap(c, h, g.coords_matrix[:, 0])  # (a, b) -> a in Z4
    res = injectivity_partition(phi, Fraction(1, 2))
    assert res.refinement.enumerate().is_subset_of(sub)
    assert 2**res.refinement.rank <= 2
    assert res.refinement.size >= Fraction(1, 4) * sub.size
    assert res.cell_count <= 8 * 1 * 2


def test_injectivity_partition_injective_map():
    g = bg.make_group([9])
    h = bg.make_group([9])
    c = interval(g, 1, 0, 8)
    phi = FreimanMap(c, h, 2 * np.arange(9) % 9)
    res = injectivity_partition(phi, Fraction(1))
    assert res.cell_count >= 1


def test_popular_difference_examples():
    g8 = bg.make_group([8])
    h = subgroup_generated(g8, [g8.element([2])])
    pop = popular_difference_progression(h)
    assert pop.enumerate() == h
    single = GroupSubset.from_indices(g8, [0])
    assert popular_difference_progression(single).size == 1
    g100 = bg.make_group([100])
    ap = GroupSubset.from_indices(g100, range(16))
    pop = popular_difference_progression(ap)
    assert pop.is_symmetric and pop.is_proper() and pop.size > 1


def test_popular_difference_threshold_direct():
    rng = derive_rng(59)
    from bogolib.fourier import quadruple_count_all

    for _ in range(10):
        g = bg.make_group([int(rng.integers(8, 40))])
        size = int(rng.integers(2, min(16, g.order)))
        a = GroupSubset.from_indices(g, rng.choice(g.order, size=size, replace=False))
        k = Fraction(a.sumset(a).size, a.size)
        pop = popular_difference_progression(a)
        counts = quadruple_count_all(g, a.mask)
        thr = Fraction(a.size**3, 64) / k
        for idx in pop.enumerate().indices():
            assert counts[int(idx)] >= thr


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
            monkeypatch.setattr(progressions, "_CANDIDATE_CAP", int(rng.integers(1, 21)))
        # blocks of 1-3 candidates in three cases of four, so accepted arms
        # fall at every position inside a block and across its boundary
        per_block = case % 4
        if per_block:
            monkeypatch.setattr(progressions, "_GROW_BLOCK", per_block * g.order)
        got = grow_progression_inside(allowed, **kwargs)
        want = _grow_by_trials(allowed, candidate_cap=progressions._CANDIDATE_CAP, **kwargs)
        monkeypatch.undo()
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
        CosetProgression(
            g, g.zero, (Arm(g.element([1, 0]), -1, 1),), GroupSubset.from_indices(g, [1])
        )


def test_derived_progressions_share_the_verified_subgroup():
    g = bg.make_group([4, 6])
    sub = subgroup_generated(g, [g.element([2, 0])])
    c = CosetProgression(g, g.zero, (Arm(g.element([0, 1]), -2, 2),), sub)
    t = g.element([1, 1])
    shifted = c.translate(t)
    assert shifted.subgroup is sub
    assert shifted.enumerate() == CosetProgression(g, t, c.arms, sub).enumerate()
    assert _cell_progression(c, (1,), (2,)).subgroup is sub
    # Q_s at stride 2: arm (2 v, -1, 1) over C's generator v
    q = CosetProgression._derived(g, g.zero, (Arm(2 * c.arms[0].generator, -1, 1),), sub)
    cells = _grid_cells(c, [2], q)
    assert cells and all(cell.subgroup is sub for cell in cells)


def test_derived_progressions_reject_foreign_parts():
    g = bg.make_group([4, 6])
    other = bg.make_group([4, 6])
    sub = subgroup_generated(g, [g.element([2, 0])])
    c = CosetProgression(g, g.zero, (Arm(g.element([0, 1]), -2, 2),), sub)
    with pytest.raises(GroupMismatchError):
        c.translate(other.element([1, 0]))
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, other.zero, c.arms, sub)
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, g.zero, (Arm(other.element([1, 0]), -1, 1),), sub)
    with pytest.raises(GroupMismatchError):
        CosetProgression._derived(g, g.zero, (), GroupSubset.from_indices(other, [0]))
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


def _refine_cells_oracle(progs, x_set):
    """intersect_refine's cell assignment as the per-x loop it replaced:
    coordinates summed one GroupElement at a time, cells kept in a dict and
    margin blocks skipped.  Returns (best cell key, its points, widths), the
    key None when every point of X falls in a margin."""
    group = x_set.group
    delta = Fraction(x_set.size, group.order)
    r = len(progs)
    d = max(1, max(c.rank for c in progs))
    tables, widths, margins = [], [], []
    for c in progs:
        table = {}
        for lam in itertools.product(*[range(arm.lo, arm.hi + 1) for arm in c.arms]):
            offset = c.base
            for k, arm in zip(lam, c.arms):
                offset = offset + k * arm.generator
            for h in c.subgroup.indices():
                table[(offset + group.element_from_index(int(h))).index] = lam
        tables.append(table)
        per_w, per_m = [], []
        for arm in c.arms:
            m = math.ceil(delta * arm.length / (100 * d * r))
            margin = -(-arm.length // m) >= 50 * d * r / delta
            per_w.append(m if margin else 1)
            per_m.append(margin)
        widths.append(per_w)
        margins.append(per_m)

    def key_of(xi):
        key = []
        for table, c, ws, ms in zip(tables, progs, widths, margins):
            cell = []
            for k, arm, w, margin in zip(table[xi], c.arms, ws, ms):
                block = (k - arm.lo) // w
                if margin and not 4 <= block <= -(-arm.length // w) - 4:
                    return None
                cell.append(block)
            key.append(tuple(cell))
        return tuple(key)

    assignments = {}
    for xi in x_set.indices():
        key = key_of(int(xi))
        if key is not None:
            assignments.setdefault(key, []).append(int(xi))
    if not assignments:
        return None, [], widths
    best = max(assignments, key=lambda k: (len(assignments[k]), k))
    return best, assignments[best], widths


def test_intersect_refine_cells_match_loop_oracle(monkeypatch):
    cells, routes = [], []
    real_cell = progressions._cell_progression
    real_popular = progressions.popular_difference_progression

    def cell_progression(c, cell, widths):
        cells.append((cell, list(widths)))
        return real_cell(c, cell, widths)

    def popular(subset, *args, **kwargs):
        routes.append(subset.indices().tolist())
        return real_popular(subset, *args, **kwargs)

    monkeypatch.setattr(progressions, "_cell_progression", cell_progression)
    monkeypatch.setattr(progressions, "popular_difference_progression", popular)
    # Z1024, one arm [0, 900], X = [0, 900] less a seeded 30% of 24..863:
    # blocks of width 6, the margin drops blocks 0-3 and 148-150, and the
    # fully kept blocks 144-147 tie, so the largest, 147, wins (149 without
    # the margin)
    z1024 = bg.make_group([1024])
    drop = derive_rng(127).choice(np.arange(24, 864), size=252, replace=False)
    points = np.setdiff1d(np.arange(901), drop)
    long_arm = interval(z1024, 1, 0, 900)
    cases = [
        ([long_arm], GroupSubset.from_indices(z1024, points)),
        # two progressions, both with margins
        (
            [long_arm, interval(z1024, 1, 0, 900, base=60)],
            GroupSubset.from_indices(z1024, points[points >= 60]),
        ),
    ]
    rng = derive_rng(131)
    g = bg.make_group([6, 10])
    sub = subgroup_generated(g, [g.element([3, 0])])
    shapes = [
        [CosetProgression(g, g.element([1, 2]), (Arm(g.element([0, 1]), -2, 3),), sub)],
        [
            CosetProgression(
                g,
                g.zero,
                (Arm(g.element([1, 0]), 0, 2), Arm(g.element([0, 1]), -3, 4)),
                GroupSubset.from_indices(g, [0]),
            ),
            CosetProgression(g, g.zero, (Arm(g.element([0, 1]), 0, 9),), sub),
        ],
        [CosetProgression(g, g.zero, (), sub)],  # rank 0: one cell holds all of X
    ]
    for progs in shapes:
        inter = progs[0].enumerate()
        for c in progs[1:]:
            inter = inter & c.enumerate()
        for _ in range(4):
            idx = inter.indices()
            chosen = rng.choice(idx, size=int(rng.integers(1, idx.size + 1)), replace=False)
            cases.append((progs, GroupSubset.from_indices(g, chosen)))
    for case, (progs, x_set) in enumerate(cases):
        cells.clear()
        routes.clear()
        res = intersect_refine(progs, x_set)
        best, members, widths = _refine_cells_oracle(progs, x_set)
        assert best is not None, case
        assert routes[0] == members, case
        assert cells == ([(best[0], widths[0])] if len(progs) == 1 else []), case
        for c in progs:
            assert res.progression.enumerate().is_subset_of(c.enumerate()), case
        if case == 0:
            assert cells == [((147,), [6])]


def test_freiman_map_verification():
    g = bg.make_group([16])
    h = bg.make_group([16])
    c = interval(g, 1, 0, 7)
    values = np.where(np.arange(16) < 8, 3 * np.arange(16) % 16, -1)
    linear = FreimanMap(c, h, values)
    assert is_freiman_homomorphism(linear, 2)
    values[5] = 1
    broken = FreimanMap(c, h, values)
    assert not is_freiman_homomorphism(broken, 2)
    # an arm of 200 points, past the old exhaustive cutoff of 128
    g256 = bg.make_group([256])
    c = interval(g256, 1, 0, 199)
    values = np.where(np.arange(256) < 200, 3 * np.arange(256) % 256, -1)
    for s in (2, 3):
        assert is_freiman_homomorphism(FreimanMap(c, g256, values), s)
    values[150] = 0
    assert not is_freiman_homomorphism(FreimanMap(c, g256, values), 2)


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


def _arm_map(g, h, base, gen, length, b, w):
    """base + k gen -> b + k w on k = 0..length-1, the k taken in Z."""
    dom = CosetProgression(g, base, (Arm(gen, 0, length - 1),), GroupSubset.from_indices(g, [0]))
    values = np.full(g.order, -1, dtype=np.int64)
    for k in range(length):
        values[(base + k * gen).index] = (b + k * w).index
    return FreimanMap(dom, h, values)


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
        fmap = _arm_map(g, h, base, gen, length, b, w)
        if case % 4 >= 2:  # one point moved by a nonzero value
            values = fmap.values.copy()
            p = (base + int(rng.integers(0, length)) * gen).index
            shift = h.element_from_index(int(rng.integers(1, h.order)))
            values[p] = (h.element_from_index(int(values[p])) + shift).index
            fmap = FreimanMap(fmap.domain, h, values)
        want = _freiman_oracle(fmap, s)
        assert is_freiman_homomorphism(fmap, s) == want
        if s == 2:
            assert is_freiman_homomorphism(fmap) == want  # the default order
        outcomes.append(want)
    assert 20 <= sum(outcomes) <= 60
    # Z32, arm 0..11: 2-fold sums stay below 32, but 3-fold sums wrap, so a
    # map linear in k with 32 w != 0 is a Freiman 2- and not a 3-homomorphism;
    # a sampled check passed these five
    g = bg.make_group([32])
    for m, gen, w, b in ((9, 1, 2, 6), (48, 1, 46, 5), (6, 1, 1, 1), (3, 5, 1, 2), (24, 5, 22, 23)):
        h = bg.make_group([m])
        fmap = _arm_map(g, h, g.zero, g.element([gen]), 12, h.element([b]), h.element([w]))
        assert is_freiman_homomorphism(fmap, 2) and _freiman_oracle(fmap, 2)
        assert not is_freiman_homomorphism(fmap, 3) and not _freiman_oracle(fmap, 3)
