"""Bohr sets: enumeration, bounds, size formula, spectrum, sums, coverage."""

import math
from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib.bohr import (
    BohrSet,
    bohr_mask,
    char_distances,
    max_distance,
    pinned_bohr_set,
    subgroup_bohr_set,
    within_radius,
    bohr_enumerate,
    bohr_in_progression,
    bohr_size_estimate,
    dense_difference_cover,
    find_min_r,
    formula_coefficients,
    large_spectrum_certify,
    size_bounds,
    size_formula_cutoff,
    verify_bohr_sum,
    weak_regular_radius_search,
)
from bogolib.errors import DensityShortfallError, NoWeaklyRegularRadiusError, PreconditionError
from bogolib.fourier import dft
from bogolib.groups import GroupSubset, char_eval, subgroup_generated, torus_dist
from bogolib.lattices import annihilator_points
from bogolib.progressions import CosetProgression
from bogolib.rng import derive_rng
from oracles import annulus_size, is_weakly_regular


def random_instance(rng, max_order=512, max_freqs=2):
    order = int(rng.integers(4, max_order + 1))
    if rng.random() < 0.3:
        q1 = int(rng.integers(2, 9))
        moduli = [q1, max(1, order // q1)]
    else:
        moduli = [order]
    g = bg.make_group(moduli)
    k = int(rng.integers(1, max_freqs + 1))
    freqs = [
        g.dual.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)
    ]
    return g, freqs


def test_bohr_enumerate_examples():
    g5 = bg.make_group([5])
    assert bohr_enumerate(g5, [], Fraction(1, 7)).size == 5
    chi = g5.dual.element([1])
    assert bohr_enumerate(g5, [chi], Fraction(1, 2)).size == 5
    assert sorted(bohr_enumerate(g5, [chi], Fraction(1, 5)).indices()) == [0, 1, 4]


def _bohr_mask_oracle(group, frequencies, radius):
    """The per-character AND: one level mask per frequency, compared in
    Python integers."""
    e = group.exponent
    num, den = radius.numerator, radius.denominator
    mask = np.ones(group.order, dtype=bool)
    for chi in frequencies:
        n = group.char_numerators(np.asarray([chi.index]), group.dual)[0]
        mask &= np.minimum(n, e - n).astype(object) * den <= num * e
    return mask


def _bohr_contains(frequencies, radius, x):
    """x in B(frequencies; radius), one character evaluation at a time."""
    return all(torus_dist(char_eval(chi, x)) <= radius for chi in frequencies)


def test_bohr_mask_matches_per_character_and():
    rng = derive_rng(89)
    shapes = [[97], [60], [4, 6, 5], [2, 2, 8], [3, 9], [64, 64]]
    blocks_crossed = fallbacks = 0
    for case in range(72):
        g = bg.make_group(shapes[case % len(shapes)])
        e = g.exponent
        k = [0, 1, 2, 5, 40][case % 5]
        freqs = [g.dual.element_from_index(int(i)) for i in rng.integers(0, g.order, size=k)]
        if case % 24 == 5:
            # 150 characters of Z64 x Z64 span three blocks of 64 level masks;
            # one nonzero character, in the last block or anywhere, decides
            k = 150
            freqs = [g.dual.zero] * k
            spot = k - 1 if case < 24 else int(rng.integers(0, k))
            freqs[spot] = g.dual.element_from_index(int(rng.integers(1, g.order)))
        level = Fraction(int(rng.integers(0, e // 2 + 1)), e)
        # exact levels, levels just below them, and Python-integer denominators
        radius = [
            level,
            level - Fraction(1, 2**80) if level else level,
            Fraction(int(rng.integers(0, 1 << 20)), (1 << 21) + 1),
            level + Fraction(1, 3 * 2**70),
        ][case % 4]
        fallbacks += radius.denominator * e >= 1 << 62
        blocks_crossed += k > (1 << 18) // g.order
        mask = bohr_mask(g, freqs, radius)
        assert np.array_equal(mask, _bohr_mask_oracle(g, freqs, radius))
        indices = np.asarray([chi.index for chi in freqs], dtype=np.int64)
        assert np.array_equal(bohr_mask(g, indices, radius), mask)
        for x in rng.integers(0, g.order, size=12):
            assert mask[x] == _bohr_contains(freqs, radius, g.element_from_index(int(x)))
        if k == 0:
            assert mask.all()
    assert blocks_crossed and fallbacks
    with pytest.raises(ValueError):
        bohr_mask(bg.make_group([8]), [], Fraction(-1, 8))


def test_distance_kernel_matches_scalar_oracle():
    """``char_distances``, ``max_distance``, ``within_radius`` and ``bohr_mask``
    against ``char_eval``/``torus_dist`` on every element of seeded groups,
    with no characters, exact levels, levels just off them and radii whose
    denominators times e pass 2^62."""
    rng = derive_rng(113)
    shapes = [[12], [5], [4, 6], [2, 2, 8], [3, 9], [7, 7]]
    wide = 0
    for case in range(36):
        g = bg.make_group(shapes[case % len(shapes)])
        e = g.exponent
        k = [0, 1, 3, 8][case % 4]
        idx = rng.integers(0, g.order, size=k).astype(np.int64)
        chars = [g.dual.element_from_index(int(i)) for i in idx]
        dists = np.asarray(
            [[torus_dist(char_eval(chi, x)) for x in g.elements()] for chi in chars],
            dtype=object,
        ).reshape(k, g.order)
        assert np.array_equal(char_distances(g, idx), dists * e)
        expected_max = dists.max(axis=0) * e if k else np.zeros(g.order, dtype=np.int64)
        assert np.array_equal(max_distance(g, idx), expected_max)
        assert np.array_equal(max_distance(g, chars), expected_max)
        level = Fraction(int(rng.integers(0, e // 2 + 1)), e)
        for radius in (
            level,
            level - Fraction(1, 2**80) if level else level,
            Fraction(int(rng.integers(0, 1 << 20)), (1 << 21) + 1),
            level + Fraction(1, 3 * 2**70),
            Fraction(3, 4),
        ):
            wide += radius.denominator * e >= 1 << 62
            levels = within_radius(g, char_distances(g, idx), radius)
            assert levels.dtype == bool and levels.shape == (k, g.order)
            assert np.array_equal(levels, dists <= radius)
            mask = bohr_mask(g, chars, radius)
            assert mask.dtype == bool
            assert np.array_equal(mask, levels.all(axis=0))
            assert np.array_equal(within_radius(g, max_distance(g, idx), radius), mask)
    assert wide
    with pytest.raises(ValueError):
        within_radius(bg.make_group([8]), np.zeros(8, dtype=np.int64), Fraction(-1, 8))
    with pytest.raises(bg.GroupMismatchError):
        max_distance(bg.make_group([8]), [bg.make_group([8]).dual.element([1])])


def test_pinned_and_subgroup_bohr_sets():
    rng = derive_rng(127)
    for moduli in ([12], [4, 6], [2, 2, 8], [3, 9]):
        g = bg.make_group(moduli)
        assert pinned_bohr_set(g).enumerate().indices().tolist() == [0]
        for _ in range(4):
            gens = [g.element_from_index(int(i)) for i in rng.integers(0, g.order, size=2)]
            sub = subgroup_generated(g, gens)
            assert np.array_equal(subgroup_bohr_set(sub).enumerate().mask, sub.mask)
    # repeats are dropped, a character of another group is rejected
    g, other = bg.make_group([8]), bg.make_group([8])
    chi = g.dual.element([3])
    assert BohrSet(g, (chi, chi), Fraction(1, 8)).frequencies == (chi,)
    with pytest.raises(bg.GroupMismatchError):
        BohrSet(g, (chi, other.dual.element([3])), Fraction(1, 8))


def test_bohr_monotonicity():
    g = bg.make_group([36])
    chi1, chi2 = g.dual.element([1]), g.dual.element([10])
    small = bohr_enumerate(g, [chi1, chi2], Fraction(1, 9))
    large = bohr_enumerate(g, [chi1, chi2], Fraction(1, 6))
    assert small.is_subset_of(large)
    assert bohr_enumerate(g, [chi1, chi2], Fraction(1, 6)).is_subset_of(
        bohr_enumerate(g, [chi1], Fraction(1, 6))
    )


def test_bohr_contains_zero_and_symmetric():
    rng = derive_rng(11)
    for _ in range(10):
        g, freqs = random_instance(rng, 128)
        b = bohr_enumerate(g, freqs, Fraction(1, int(rng.integers(3, 9))))
        assert 0 in b
        assert b == b.negate()


def test_size_bounds_examples():
    g5 = bg.make_group([5])
    chi = g5.dual.element([1])
    sb = size_bounds(g5, [chi], Fraction(1, 5))
    assert sb.size == 3 and sb.lower_bound == 1
    assert sb.doubled_size == 5 and sb.doubling_bound == 12
    full = size_bounds(g5, [], Fraction(1, 5))
    assert full.size == 5 and full.lower_bound == 5


def test_weak_regular_search_examples():
    g5 = bg.make_group([5])
    chi = g5.dual.element([1])
    rho = weak_regular_radius_search(
        g5, [chi], Fraction(1, 4), Fraction(7, 20), Fraction(1, 25), Fraction(1, 5)
    )
    assert annulus_size(g5, [chi], rho, Fraction(1, 25)) == 0
    # empty frequency set: annulus always empty, first grid point works
    rho = weak_regular_radius_search(
        g5, [], Fraction(1, 8), Fraction(1, 4), Fraction(1, 16), Fraction(1, 3)
    )
    assert rho == Fraction(1, 8)
    # epsilon = 1 accepts rho_lo
    rho = weak_regular_radius_search(
        g5, [chi], Fraction(1, 8), Fraction(1, 4), Fraction(1, 16), Fraction(1)
    )
    assert rho == Fraction(1, 8)


def test_weak_regular_search_failure():
    g = bg.make_group([2])
    chi = g.dual.element([1])
    # B jumps from {0} to everything at 1/2; a huge eta sees the jump on
    # every grid point while epsilon forbids it
    with pytest.raises(NoWeaklyRegularRadiusError):
        weak_regular_radius_search(
            g, [chi], Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)
        )


def test_weak_regular_search_never_raises_with_eta_at_most_step():
    # the docstring's pigeonhole guarantee: with eta <= the grid step the
    # steps + 1 annuli are disjoint, so one holds under epsilon |G| points
    rng = derive_rng(47)
    moduli_pool = [[4, 6, 5], [2, 2, 8], [3, 9], [12, 2], [97], [512], [60]]
    at_step = 0
    for case in range(200):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        rho_lo = Fraction(int(rng.integers(0, 40)), 160)
        rho_hi = rho_lo + Fraction(int(rng.integers(1, 60)), 160)
        eps = Fraction(1, int(rng.integers(1, 41)))
        step = (rho_hi - rho_lo) / math.ceil(2 / eps)
        if case % 4 == 0:
            eta = step
            at_step += 1
        else:
            eta = step * Fraction(int(rng.integers(1, 100)), 100)
        rho = weak_regular_radius_search(g, freqs, rho_lo, rho_hi, eta, eps)
        assert annulus_size(g, freqs, rho, eta) <= eps * g.order
    assert at_step == 50


def _trapezoid(rho, eta, xs):
    out = np.zeros_like(xs)
    dist = np.minimum(xs % 1.0, 1.0 - (xs % 1.0))
    out[dist <= rho] = 1.0
    ramp = (dist > rho) & (dist <= rho + eta)
    out[ramp] = (rho + eta - dist[ramp]) / eta
    return out


def test_formula_coefficients_examples():
    c = formula_coefficients(Fraction(1, 4), Fraction(1, 2), 4)
    assert abs(c[4] - 1.0) < 1e-12  # c_0 = 2 rho + eta
    assert abs(c[5]) < 1e-12  # c_1 vanishes since e(1/2) = e(-1/2)
    assert np.array_equal(c, c[::-1])  # even
    assert np.all(np.abs(c) <= 1 + 1e-12)
    # 2 rho + eta <= 1 is decided exactly: 1e-13 past it, below any float
    # slack of 1e-12, is refused
    with pytest.raises(PreconditionError):
        formula_coefficients(Fraction(1, 4), Fraction(1, 2) + Fraction(1, 10**13), 4)


def test_formula_coefficients_match_quadrature():
    # independent oracle: numerical integration of the trapezoid cutoff
    rho, eta = Fraction(1, 6), Fraction(1, 10)
    cutoff = 5
    c = formula_coefficients(rho, eta, cutoff)
    xs = np.linspace(0.0, 1.0, 400_001)
    f = _trapezoid(float(rho), float(eta), xs)
    for a in range(-cutoff, cutoff + 1):
        integrand = f * np.cos(-2 * np.pi * a * xs)
        approx = np.trapezoid(integrand, xs)
        assert abs(c[a + cutoff] - approx) < 1e-6


def test_bohr_size_estimate_examples():
    g5 = bg.make_group([5])
    chi = g5.dual.element([1])
    # weakly regular: the annulus (0.21, 0.26] is empty in Z/5
    est = bohr_size_estimate(
        g5, [chi], Fraction(21, 100), Fraction(1, 20), Fraction(1, 5)
    )
    assert abs(est - 3) <= 2 * (1 / 5) * 5
    assert bohr_size_estimate(g5, [], Fraction(1, 5), Fraction(1, 20), Fraction(1, 5)) == 5.0
    # zero character: annihilator box is everything, estimate ~ |G|
    zero = g5.dual.element([0])
    est = bohr_size_estimate(
        g5, [zero], Fraction(21, 100), Fraction(1, 20), Fraction(1, 5)
    )
    assert abs(est - 5) <= 2 * (1 / 5) * 5


def _grid_search_oracle(g, freqs, rho_lo, rho_hi, eta, eps):
    """The radius search as a loop over ``is_weakly_regular`` on the grid."""
    steps = math.ceil(2 / eps)
    for j in range(steps + 1):
        rho = rho_lo + j * (rho_hi - rho_lo) / steps
        if is_weakly_regular(g, freqs, rho, eta, eps):
            return rho
    return None


def test_weak_regular_search_matches_grid_oracle():
    rng = derive_rng(41)
    moduli_pool = [[4, 6, 5], [2, 2, 8], [3, 9], [12, 2], [7, 7], [24], [60]]
    found = raised = boundary = 0
    for case in range(240):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        e = g.exponent
        k = int(rng.integers(0, 4))
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        kind = case % 3
        if kind == 0:
            # the criterion 2/3 grid
            rho_lo, rho_hi = Fraction(1, 8), Fraction(3, 8)
            eta, eps = Fraction(1, 10), Fraction(1, 20)
        elif kind == 1:
            # every grid radius and rho + eta on the lattice (1/e) Z, where
            # the closed boundary ||chi(x)|| <= rho decides membership
            eps = Fraction(1, int(rng.integers(2, 9)))
            steps = math.ceil(2 / eps)
            rho_lo = Fraction(int(rng.integers(0, e // 4 + 1)), e)
            rho_hi = rho_lo + Fraction(steps * int(rng.integers(1, 3)), e)
            eta = Fraction(int(rng.integers(1, 4)), e)
        else:
            # wide eta, small epsilon: often no grid radius qualifies
            rho_lo = Fraction(int(rng.integers(0, 20)), 97)
            rho_hi = rho_lo + Fraction(int(rng.integers(1, 20)), 97)
            eta = Fraction(int(rng.integers(1, 30)), 97)
            eps = Fraction(1, int(rng.integers(4, 40)))
        expected = _grid_search_oracle(g, freqs, rho_lo, rho_hi, eta, eps)
        if expected is None:
            with pytest.raises(NoWeaklyRegularRadiusError):
                weak_regular_radius_search(g, freqs, rho_lo, rho_hi, eta, eps)
            raised += 1
            continue
        got = weak_regular_radius_search(g, freqs, rho_lo, rho_hi, eta, eps)
        assert got == expected, (g, freqs, rho_lo, rho_hi, eta, eps)
        found += 1
        boundary += (got * e).denominator == 1
    assert raised >= 20 and found >= 100 and boundary >= 50, (raised, found, boundary)
    # epsilon = 1/1000 gives 2,001 grid radii.  On Z97 with eta = 1/97 every
    # annulus holds one distance level until rho reaches the last level
    # 48/97, so the first hit is j = 1980, and a grid ending below it has none
    z97 = bg.make_group([97])
    freqs = [z97.dual.element([1])]
    eta, eps = Fraction(1, 97), Fraction(1, 1000)
    for rho_hi, want in ((Fraction(1, 2), Fraction(1980, 4000)), (Fraction(2, 5), None)):
        assert _grid_search_oracle(z97, freqs, Fraction(0), rho_hi, eta, eps) == want
        if want is None:
            with pytest.raises(NoWeaklyRegularRadiusError):
                weak_regular_radius_search(z97, freqs, Fraction(0), rho_hi, eta, eps)
        else:
            assert weak_regular_radius_search(z97, freqs, Fraction(0), rho_hi, eta, eps) == want
    # grids whose scaled values pass 2^62: an offset of 1/3^40 on rho, eta
    # or epsilon tips floor(r e) or the epsilon |G| boundary
    tiny = Fraction(1, 3**40)
    wide = found = raised = tipped = 0
    for case in range(120):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        e = g.exponent
        k = int(rng.integers(1, 4))
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        sign = 1 if rng.random() < 0.5 else -1
        eps = Fraction(1, int(rng.integers(2, 9)))
        steps = math.ceil(2 / eps)
        rho_lo = Fraction(int(rng.integers(1, e // 4 + 2)), e)
        rho_hi = rho_lo + Fraction(steps * int(rng.integers(1, 3)), e)
        eta = Fraction(int(rng.integers(1, e // 3 + 2)), e)
        kind = case % 3
        if kind == 2:
            eps = Fraction(int(rng.integers(1, 6)), g.order)
        plain = _grid_search_oracle(g, freqs, rho_lo, rho_hi, eta, eps)
        if kind == 0:
            eta += sign * tiny
        elif kind == 1:
            rho_lo, rho_hi = rho_lo + sign * tiny, rho_hi + sign * tiny
        else:
            eps += sign * tiny
        step = (rho_hi - rho_lo) / math.ceil(2 / eps)
        den = math.lcm(rho_lo.denominator, step.denominator, eta.denominator)
        wide += den * e >= 1 << 62 or eps.denominator * g.order >= 1 << 62
        expected = _grid_search_oracle(g, freqs, rho_lo, rho_hi, eta, eps)
        # the offset moved the answer to another grid point, or to none
        tipped += (expected is None) != (plain is None) or (
            expected is not None and expected - plain not in (0, sign * tiny)
        )
        if expected is None:
            with pytest.raises(NoWeaklyRegularRadiusError):
                weak_regular_radius_search(g, freqs, rho_lo, rho_hi, eta, eps)
            raised += 1
            continue
        got = weak_regular_radius_search(g, freqs, rho_lo, rho_hi, eta, eps)
        assert got == expected, (g, freqs, rho_lo, rho_hi, eta, eps)
        found += 1
    assert wide == 120 and raised >= 8 and found >= 80 and tipped >= 20, (
        wide,
        raised,
        found,
        tipped,
    )


def _box_oracle(g, freqs, rho, eta, eps):
    """The size formula summed over the listed annihilator box points."""
    freqs = list(dict.fromkeys(freqs))
    cutoff = size_formula_cutoff(len(freqs), eta, eps)
    pts = annihilator_points(freqs, cutoff)
    prods = np.prod(formula_coefficients(rho, eta, cutoff)[pts + cutoff], axis=1)
    return float(prods.sum() * g.order)


def test_size_estimate_matches_box_oracle():
    rng = derive_rng(43)
    eta = Fraction(1, 10)
    # epsilon only sets the cutoff K; it is raised with k to keep the box small
    eps_for_k = {1: Fraction(1, 10), 2: Fraction(1, 2), 3: Fraction(4)}
    moduli_pool = [[97], [60], [4, 6, 5], [2, 2, 8], [3, 9], [16]]
    checked = 0
    for case in range(36):
        g = bg.make_group(moduli_pool[case % len(moduli_pool)])
        k = 1 + case % 3
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        if case % 4 == 1:
            freqs[0] = g.dual.zero
        if case % 4 == 2 and k > 1:
            # a repeat (deduplicated) or a multiple of the first frequency
            freqs[1] = freqs[0] * int(rng.integers(1, 4))
        rho = Fraction(int(rng.integers(0, 41)), 100)
        eps = eps_for_k[k]
        est = bohr_size_estimate(g, freqs, rho, eta, eps)
        box = _box_oracle(g, freqs, rho, eta, eps)
        assert math.isclose(est, box, rel_tol=1e-9), (g, freqs, rho, est, box)
        checked += 1
    # small-order characters: the multiples a * gamma collide in the box
    g = bg.make_group([2, 2, 8])
    freqs = [g.dual.element([1, 0, 4]), g.dual.element([0, 1, 2]), g.dual.element([1, 1, 0])]
    for rho in (Fraction(0), Fraction(1, 8), Fraction(2, 5)):
        est = bohr_size_estimate(g, freqs, rho, eta, eps_for_k[3])
        box = _box_oracle(g, freqs, rho, eta, eps_for_k[3])
        assert math.isclose(est, box, rel_tol=1e-9)


def test_large_spectrum_examples():
    g5 = bg.make_group([5])
    chi = g5.dual.element([1])
    assert large_spectrum_certify(
        g5, [chi], Fraction(1, 5), Fraction(1, 20), Fraction(3, 10), g5.dual.element([0])
    ) == (0,)
    rep = large_spectrum_certify(
        g5, [chi], Fraction(1, 5), Fraction(1, 20), Fraction(3, 10), chi
    )
    assert rep == (1,)
    g = bg.make_group([2, 17])
    gamma = g.dual.element([0, 1])
    stranger = g.dual.element([1, 0])
    assert (
        large_spectrum_certify(
            g, [gamma], Fraction(1, 17), Fraction(1, 20), Fraction(3, 10), stranger
        )
        is None
    )


def test_large_spectrum_exhaustive_small():
    # every large coefficient of a weakly regular Bohr set is certified
    rng = derive_rng(13)
    eta, eps = Fraction(1, 10), Fraction(1, 10)
    done = 0
    while done < 5:
        g, freqs = random_instance(rng, 96)
        try:
            rho = weak_regular_radius_search(
                g, freqs, Fraction(1, 8), Fraction(3, 8), eta, eps / 2
            )
        except NoWeaklyRegularRadiusError:
            continue
        done += 1
        b = bohr_enumerate(g, freqs, rho)
        coeffs = np.abs(dft(g, b.mask))
        for chi_idx in np.flatnonzero(coeffs >= float(eps)):
            rep = large_spectrum_certify(
                g, freqs, rho, eta, eps, g.dual.element_from_index(int(chi_idx))
            )
            assert rep is not None
            deduped = list(dict.fromkeys(f.coords for f in freqs))
            combo = g.dual.element_from_index(0)
            for a, coords in zip(rep, deduped):
                combo = combo + a * g.dual.element(coords)
            assert combo.index == chi_idx


def test_verify_bohr_sum_examples():
    g = bg.make_group([9])
    assert verify_bohr_sum(g, [], Fraction(1, 8), [], Fraction(1, 8), 1)
    g16 = bg.make_group([16])
    chi = g16.dual.element([1])
    assert verify_bohr_sum(g16, [chi], Fraction(1, 8), [chi], Fraction(1, 8), 1)
    assert not verify_bohr_sum(g16, [chi], Fraction(1, 8), [chi], Fraction(1, 8), 0)
    assert find_min_r(g16, [chi], Fraction(1, 8), [chi], Fraction(1, 8)) == 1


def test_find_min_r_random():
    rng = derive_rng(17)
    for _ in range(5):
        g, freqs = random_instance(rng, 128, max_freqs=1)
        rho = Fraction(1, int(rng.integers(6, 12)))
        r = find_min_r(g, freqs, rho, freqs, rho)
        assert verify_bohr_sum(g, freqs, rho, freqs, rho, r)


def test_dense_difference_cover():
    g16 = bg.make_group([16])
    chi = g16.dual.element([1])
    b = bohr_enumerate(g16, [chi], Fraction(1, 8))
    assert dense_difference_cover(b, [chi], Fraction(1, 8))
    # below the density bound the predicate is not applicable
    half = GroupSubset.from_indices(g16, list(b.indices())[: b.size // 2])
    with pytest.raises(DensityShortfallError):
        dense_difference_cover(half, [chi], Fraction(1, 8))


def test_dense_difference_cover_random():
    rng = derive_rng(19)
    for _ in range(10):
        g, freqs = random_instance(rng, 256, max_freqs=2)
        rho = Fraction(1, int(rng.integers(4, 10)))
        b = bohr_enumerate(g, freqs, rho)
        k = len(dict.fromkeys(f.coords for f in freqs))
        removable = int(b.size / 4 ** (k + 1))
        idx = list(b.indices())
        drop = rng.choice(len(idx), size=min(removable, len(idx)), replace=False)
        keep = [int(idx[i]) for i in range(len(idx)) if i not in set(drop.tolist())]
        a = GroupSubset.from_indices(g, keep)
        assert dense_difference_cover(a, freqs, rho)


def test_bohr_in_progression_examples():
    g8 = bg.make_group([8])
    evens = subgroup_generated(g8, [g8.element([2])])
    b = bohr_in_progression(CosetProgression(g8, g8.zero, (), evens))
    assert b.enumerate() == evens
    g64 = bg.make_group([64])
    c = CosetProgression.symmetric(g64, [(g64.element([1]), 15)])
    b = bohr_in_progression(c)
    assert b.enumerate().size > 0
    assert b.enumerate().is_subset_of(c.enumerate())
    assert b.enumerate().size < c.size
    full = bohr_in_progression(CosetProgression.whole_group(g64))
    assert full.enumerate().size == 64


def test_bohr_in_progression_large_spectrum():
    # a spectrum of more than 64 frequencies is used as it is, at radius 1/4
    g = bg.make_group([16, 16])
    c = CosetProgression.symmetric(g, [(g.element([1, 0]), 4), (g.element([0, 1]), 4)])
    b = bohr_in_progression(c)
    assert len(b.frequencies) > g.rank  # the spectrum, not a pinning fallback
    assert b.radius == Fraction(1, 4)
    assert 0 in b.enumerate()
    assert b.enumerate().is_subset_of(c.enumerate())
