"""Fourier analysis: transforms, convolution, counts, spectra, Bogolyubov."""

from fractions import Fraction

import numpy as np

import bogolib as bg
from bogolib import fourier
from bogolib.bohr import bohr_mask
from bogolib.fourier import (
    GroupFunction,
    bogolyubov_bohr_in_2A2A,
    convolve,
    dft,
    idft,
    quadruple_count,
    quadruple_count_all,
    spectrum,
)
from bogolib.groups import GroupSubset, subgroup_generated

TOL = 1e-9


def brute_quadruple_count(subset, x):
    """Pair-sum multiplicity oracle: sum_s r(s) r(s - x) with r from A + A."""
    g = subset.group
    idx = [g.element_from_index(int(i)) for i in subset.indices()]
    r = {}
    for a in idx:
        for b in idx:
            r[(a + b).index] = r.get((a + b).index, 0) + 1
    total = 0
    for s, cnt in r.items():
        target = g.element_from_index(s) - x
        total += cnt * r.get(target.index, 0)
    return total


def test_dft_examples():
    g = bg.make_group([6])
    ones = GroupFunction.constant(g, 1.0)
    spec = dft(ones).values
    assert abs(spec[0] - 1) < TOL and np.abs(spec[1:]).max() < TOL
    delta = np.zeros(6, dtype=complex)
    delta[0] = 6.0
    spec = dft(GroupFunction(g, delta)).values
    assert np.abs(spec - 1).max() < TOL
    g2 = bg.make_group([2])
    spec = dft(GroupFunction.indicator(GroupSubset.from_indices(g2, [0]))).values
    assert abs(spec[0] - 0.5) < TOL and abs(spec[1] - 0.5) < TOL


def test_dft_roundtrip_random():
    rng = np.random.default_rng(3)
    for moduli in ([7], [4, 3], [2, 2, 3], [16]):
        g = bg.make_group(moduli)
        f = GroupFunction(g, rng.normal(size=g.order) + 1j * rng.normal(size=g.order))
        back = idft(dft(f))
        assert np.abs(back.values - f.values).max() < TOL


def test_convolution_examples():
    g = bg.make_group([4])
    ones = GroupFunction.constant(g, 1.0)
    assert np.abs(convolve(ones, ones).values - 1).max() < TOL
    delta = np.zeros(4, dtype=complex)
    delta[0] = 4.0
    f = GroupFunction(g, np.array([1.0, 2.0, -1.0, 0.5], dtype=complex))
    conv = convolve(GroupFunction(g, delta), f)
    assert np.abs(conv.values - f.values).max() < TOL
    ind = GroupFunction.indicator(GroupSubset.from_indices(g, [0, 1]))
    assert abs(convolve(ind, ind).values[1] - 0.5) < TOL


def test_convolution_theorem_random():
    rng = np.random.default_rng(4)
    g = bg.make_group([6, 5])
    f = GroupFunction(g, rng.normal(size=30) + 1j * rng.normal(size=30))
    h = GroupFunction(g, rng.normal(size=30) + 1j * rng.normal(size=30))
    lhs = dft(convolve(f, h)).values
    rhs = dft(f).values * dft(h).values
    assert np.abs(lhs - rhs).max() < TOL


def test_quadruple_count_examples():
    g5 = bg.make_group([5])
    single = GroupSubset.from_indices(g5, [0])
    assert quadruple_count(single, g5.zero) == 1
    assert quadruple_count(single, g5.element([2])) == 0
    full = GroupSubset.full(g5)
    assert all(quadruple_count_all(full) == 125)
    assert quadruple_count(GroupSubset.from_indices(g5, [0, 1]), g5.zero) == 6


def test_quadruple_count_matches_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(25):
        moduli = [int(rng.integers(2, 9))]
        if rng.random() < 0.5:
            moduli.append(int(rng.integers(2, 5)))
        g = bg.make_group(moduli)
        size = int(rng.integers(1, min(10, g.order) + 1))
        subset = GroupSubset.from_indices(
            g, rng.choice(g.order, size=size, replace=False)
        )
        counts = quadruple_count_all(subset)
        for xi in rng.choice(g.order, size=min(4, g.order), replace=False):
            x = g.element_from_index(int(xi))
            assert counts[int(xi)] == brute_quadruple_count(subset, x)


def test_spectrum_examples():
    g5 = bg.make_group([5])
    ones = GroupFunction.constant(g5, 1.0)
    assert [c.index for c in spectrum(ones, 0.5)] == [0]
    zero = GroupFunction.constant(g5, 0.0)
    assert spectrum(zero, 0.1) == []
    f = GroupFunction.indicator(GroupSubset.from_indices(g5, [0, 1, 4]))
    assert sorted(c.index for c in spectrum(f, 0.3)) == [0, 1, 4]


def test_bogolyubov_examples():
    g = bg.make_group([12])
    full = GroupSubset.full(g)
    assert bogolyubov_bohr_in_2A2A(full).enumerate() == full
    sub = subgroup_generated(g, [g.element([3])])
    b = bogolyubov_bohr_in_2A2A(sub)
    assert b.enumerate().is_subset_of(sub)
    single = GroupSubset.from_indices(g, [5])
    b = bogolyubov_bohr_in_2A2A(single)
    diff = single.diffset(single)
    assert b.enumerate().is_subset_of(diff.sumset(diff))


def test_bogolyubov_random_always_contained():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = bg.make_group([int(rng.integers(8, 33))])
        size = int(rng.integers(2, g.order))
        a = GroupSubset.from_indices(g, rng.choice(g.order, size=size, replace=False))
        diff = a.diffset(a)
        target = diff.sumset(diff)
        b = bogolyubov_bohr_in_2A2A(a)
        assert b.enumerate().is_subset_of(target)


def _bogolyubov_oracle(subset, start=Fraction(1, 2)):
    """The per-row body: 2A - 2A from two sumsets, the coefficients from
    ``dft``, one ``bohr_mask`` per threshold, starting at alpha^2 * start.
    Returns the hit indices and the number of halvings."""
    g = subset.group
    alpha = Fraction(subset.size, g.order)
    diff = subset.diffset(subset)
    target = diff.sumset(diff)
    coeffs = np.abs(dft(GroupFunction.indicator(subset)).values)
    threshold = float(alpha * alpha * start)
    halvings = 0
    while True:
        hits = np.flatnonzero(coeffs >= threshold - TOL)
        if GroupSubset(g, bohr_mask(g, hits, Fraction(1, 4))).is_subset_of(target):
            return hits, halvings
        threshold /= 2
        halvings += 1


def test_bogolyubov_spectra_match_per_row_oracle(monkeypatch):
    # at the start alpha^2/2 the containment holds at once (it is below
    # alpha^(3/2)), so the halving loop is reached by raising the start
    rng = np.random.default_rng(11)
    halved = 0
    for moduli in ([24], [4, 6], [2, 8]):
        g = bg.make_group(moduli)
        density = rng.random((30, 1)) * 0.6
        rows = rng.random((30, g.order)) < density
        rows[np.arange(30), rng.integers(0, g.order, size=30)] = True  # nonempty
        rows[0] = False
        rows[0, 5] = True  # a single point: every character is hit
        rows[1] = True
        for start in (Fraction(1, 2), Fraction(4), Fraction(64)):
            monkeypatch.setattr(fourier, "_BOGOLYUBOV_START", start)
            oracle = [_bogolyubov_oracle(GroupSubset(g, row), start) for row in rows]
            # the whole batch, then one row at a time
            got = fourier._bogolyubov_spectra(g, rows)
            assert all(np.array_equal(h, want) for h, (want, _) in zip(got, oracle))
            singles = [fourier._bogolyubov_spectra(g, row[None])[0] for row in rows]
            assert all(np.array_equal(h, want) for h, (want, _) in zip(singles, oracle))
            one = bogolyubov_bohr_in_2A2A(GroupSubset(g, rows[2]))
            assert [chi.index for chi in one.frequencies] == oracle[2][0].tolist()
            counts = [n for _, n in oracle]
            if start == Fraction(1, 2):
                assert max(counts) == 0
            halved += sum(n >= 1 for n in counts)
    assert halved >= 20
