"""Test oracles: direct computations that the library's faster paths are
checked against.  None of them runs in the library's own jobs."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from bogolib.bohr import bohr_mask
from bogolib.groups import Character, FiniteAbelianGroup, GroupSubset
from bogolib.progressions import FreimanMap

_LINEAR_BLOCK = 1 << 20  # pair entries per block of the Freiman-linearity check


def is_freiman_linear(fmap: FreimanMap) -> bool:
    """L(a - b) = L(a) - L(b) whenever a, b, a - b all lie in the domain."""
    dom = fmap.domain.enumerate()
    idx = dom.indices()
    if idx.size == 0:
        return True
    g = fmap.domain.group
    cod = fmap.codomain
    lookup = fmap.values
    vals = lookup[idx]
    neg = g.negation_permutation
    neg_idx = neg[idx]
    rows_per_block = max(1, _LINEAR_BLOCK // idx.size)
    cod_neg = cod.negation_permutation
    for start in range(0, idx.size, rows_per_block):
        block = slice(start, min(start + rows_per_block, idx.size))
        a_rep = np.repeat(idx[block], idx.size)
        av_rep = np.repeat(vals[block], idx.size)
        diffs = g.add_indices(a_rep, np.tile(neg_idx, idx[block].size))
        inside = lookup[diffs] >= 0
        if not np.any(inside):
            continue
        want = cod.add_indices(av_rep[inside], cod_neg[np.tile(vals, idx[block].size)[inside]])
        if np.any(lookup[diffs[inside]] != want):
            return False
    return True


def annulus_size(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
    eta: Fraction,
) -> int:
    """|B(Gamma; rho + eta) \\ B(Gamma; rho)|, exactly."""
    outer = bohr_mask(group, frequencies, Fraction(radius) + Fraction(eta))
    inner = bohr_mask(group, frequencies, Fraction(radius))
    return int(np.count_nonzero(outer & ~inner))


def is_weakly_regular(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
    eta: Fraction,
    epsilon: Fraction,
) -> bool:
    return annulus_size(group, frequencies, radius, eta) <= Fraction(epsilon) * group.order


def _pair_multiplicity_count(g, subset: GroupSubset) -> np.ndarray:
    """Independent oracle: counts via pair-sum multiplicities."""
    idx = subset.indices()
    sums = g.add_indices(np.repeat(idx, idx.size), np.tile(idx, idx.size))
    r = np.bincount(sums, minlength=g.order).astype(np.int64)
    every = np.arange(g.order, dtype=np.int64)
    # shifted[x, y] = y - x
    shifted = g.add_indices(
        np.tile(every, g.order), np.repeat(g.negation_permutation, g.order)
    ).reshape(g.order, g.order)
    return (r[None, :] * r[shifted]).sum(axis=1)
