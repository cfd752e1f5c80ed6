"""Fourier analysis: the transform of masks, counts, spectra, Bogolyubov."""

from fractions import Fraction

import numpy as np
import pytest

import bogolib as bg
from bogolib import bohr, fourier
from bogolib.bohr import bohr_mask
from bogolib.errors import TheoremViolationError
from bogolib.fourier import (
    bogolyubov_bohr_in_2A2A,
    dft,
    quadruple_count_all,
    spectrum,
)
from bogolib.groups import GroupSubset, subgroup_generated
from bogolib.rng import derive_rng

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


def _character_sums(g, masks):
    """1hat_A(chi) = E_x 1_A(x) e(-chi(x)) as a direct character sum, no FFT:
    row i of the result is mask i's coefficients, by dual index."""
    nums = g.char_numerators(np.arange(g.order), g.dual)  # (chi, x)
    phases = np.exp(-2j * np.pi * nums / g.exponent)
    return masks.astype(np.float64) @ phases.T / g.order


def test_dft_examples():
    g = bg.make_group([6])
    spec = dft(g, np.ones(6, dtype=bool))
    assert spec.shape == (6,) and spec.dtype == np.complex128
    assert abs(spec[0] - 1) < TOL and np.abs(spec[1:]).max() < TOL
    spec = dft(g, GroupSubset.from_indices(g, [0]).mask)
    assert np.abs(spec - 1 / 6).max() < TOL
    g2 = bg.make_group([2])
    spec = dft(g2, GroupSubset.from_indices(g2, [0]).mask)
    assert abs(spec[0] - 0.5) < TOL and abs(spec[1] - 0.5) < TOL
    spec = dft(g2, GroupSubset.from_indices(g2, [1]).mask)
    assert abs(spec[0] - 0.5) < TOL and abs(spec[1] + 0.5) < TOL


def test_dft_batch_matches_character_sums():
    rng = derive_rng(17)
    for moduli in ([1], [7], [24], [97], [4, 6], [2, 2, 3], [3, 9], [2, 4, 8]):
        g = bg.make_group(moduli)
        density = rng.random((12, 1))
        masks = rng.random((12, g.order)) < density
        masks[0] = False
        masks[1] = True
        batch = dft(g, masks)
        assert batch.shape == masks.shape
        assert np.abs(batch - _character_sums(g, masks)).max() < TOL
        # each row bit for bit as a one-mask call, also under two batch axes
        for row, mask in zip(batch, masks):
            assert np.array_equal(row, dft(g, mask))
        assert np.array_equal(dft(g, masks.reshape(3, 4, g.order)), batch.reshape(3, 4, g.order))


def test_quadruple_count_examples():
    g5 = bg.make_group([5])
    single = quadruple_count_all(g5, GroupSubset.from_indices(g5, [0]).mask)
    assert single[g5.zero.index] == 1
    assert single[g5.element([2]).index] == 0
    full = GroupSubset.full(g5)
    assert all(quadruple_count_all(g5, full.mask) == 125)
    assert quadruple_count_all(g5, GroupSubset.from_indices(g5, [0, 1]).mask)[g5.zero.index] == 6


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
        counts = quadruple_count_all(g, subset.mask)
        for xi in rng.choice(g.order, size=min(4, g.order), replace=False):
            x = g.element_from_index(int(xi))
            assert counts[int(xi)] == brute_quadruple_count(subset, x)


def test_quadruple_count_batch_matches_single_masks():
    rng = derive_rng(23)
    for moduli in ([5], [12], [4, 6], [2, 2, 3], [2, 4, 8]):
        g = bg.make_group(moduli)
        density = rng.random((12, 1))
        masks = rng.random((12, g.order)) < density
        masks[0] = False
        masks[1] = True
        batch = quadruple_count_all(g, masks)
        assert batch.shape == masks.shape and batch.dtype == np.int64
        # each row bit for bit as a one-mask call, also under two batch axes
        for row, mask in zip(batch, masks):
            assert np.array_equal(row, quadruple_count_all(g, mask))
        two_axes = quadruple_count_all(g, masks.reshape(3, 4, g.order))
        assert np.array_equal(two_axes, batch.reshape(3, 4, g.order))
        assert quadruple_count_all(g, masks[:0]).shape == (0, g.order)  # an empty batch
        for r in range(2, 12, 3):
            subset = GroupSubset(g, masks[r])
            for xi in rng.choice(g.order, size=min(3, g.order), replace=False):
                x = g.element_from_index(int(xi))
                assert batch[r, int(xi)] == brute_quadruple_count(subset, x)


def test_spectrum_examples():
    g5 = bg.make_group([5])
    assert [c.index for c in spectrum(GroupSubset.full(g5), 0.5)] == [0]
    assert spectrum(GroupSubset(g5, np.zeros(g5.order, bool)), 0.1) == []
    f = GroupSubset.from_indices(g5, [0, 1, 4])
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


def _bogolyubov_oracle(subset):
    """The per-row body: 2A - 2A from two sumsets, the coefficients as direct
    character sums (no FFT, so independent of ``dft``), the spectrum at
    alpha^2/2 and one ``bohr_mask`` containment."""
    g = subset.group
    alpha = Fraction(subset.size, g.order)
    diff = subset.diffset(subset)
    target = diff.sumset(diff)
    coeffs = np.abs(_character_sums(g, subset.mask[None])[0])
    hits = np.flatnonzero(coeffs >= float(alpha * alpha / 2) - TOL)
    assert GroupSubset(g, bohr_mask(g, hits, Fraction(1, 4))).is_subset_of(target)
    return hits


def test_bogolyubov_spectra_match_per_row_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    for moduli in ([24], [4, 6], [2, 8]):
        g = bg.make_group(moduli)
        density = rng.random((30, 1)) * 0.6
        rows = rng.random((30, g.order)) < density
        rows[np.arange(30), rng.integers(0, g.order, size=30)] = True  # nonempty
        rows[0] = False
        rows[0, 5] = True  # a single point: every character is hit
        rows[1] = True
        oracle = [_bogolyubov_oracle(GroupSubset(g, row)) for row in rows]
        # the whole batch, then one row at a time
        got = fourier._bogolyubov_spectra(g, rows)
        assert all(np.array_equal(h, want) for h, want in zip(got, oracle))
        singles = [fourier._bogolyubov_spectra(g, row[None])[0] for row in rows]
        assert all(np.array_equal(h, want) for h, want in zip(singles, oracle))
        one = bogolyubov_bohr_in_2A2A(GroupSubset(g, rows[2]))
        assert [chi.index for chi in one.frequencies] == oracle[2].tolist()
        # a Bohr set that escapes 2A - 2A is caught by the exact check
        diff = GroupSubset(g, rows[0]).diffset(GroupSubset(g, rows[0]))
        assert diff.sumset(diff).size < g.order
        with monkeypatch.context() as m:
            m.setattr(bohr, "bohr_mask", lambda grp, *_: np.ones(grp.order, dtype=bool))
            with pytest.raises(TheoremViolationError):
                fourier._bogolyubov_spectra(g, rows[:1])
            with pytest.raises(TheoremViolationError):
                bogolyubov_bohr_in_2A2A(GroupSubset(g, rows[0]))
