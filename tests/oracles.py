"""Test oracles: direct computations that the library's faster paths are
checked against.  None of them runs in the library's own jobs."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from bogolib.bilinear import BiSet
from bogolib.bohr import bohr_mask
from bogolib.groups import Character, FiniteAbelianGroup, GroupSubset, make_group
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


def planted_zero_set(moduli: Sequence[int], forms: int, seed: int) -> BiSet:
    """The common zero set in G x G, G = Z_q^n with q = moduli[0], of
    ``forms`` seeded random bilinear forms x . M_i y (mod q).  Row y is the
    subgroup of x annihilated by the characters M_i y, so both difference
    operators fix the set."""
    g = make_group(moduli)
    q = moduli[0]
    m = np.random.default_rng([seed, forms, g.order]).integers(0, q, size=(forms, g.rank, g.rank))
    c = g.coords_matrix
    values = np.einsum("xa,iab,yb->iyx", c, m, c) % q
    return BiSet(g, g, ~np.any(values, axis=0))


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


def row_differences(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """S - S for every row S of a boolean (n, |G|) matrix, from every pair
    of members through ``add_indices``; no FFT and no counting shortcut."""
    out = np.zeros(rows.shape, dtype=bool)
    for i, row in enumerate(rows):
        members = np.flatnonzero(row)
        neg = group.negation_permutation[members]
        diffs = group.add_indices(np.repeat(members, members.size), np.tile(neg, members.size))
        out[i, diffs] = True
    return out


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


def one_sided_statistics_whole() -> tuple[np.ndarray, np.ndarray]:
    """``suites._one_sided_statistics`` over all 2^16 graphs in one pass of
    whole-array float64 temporaries (about 44 MiB)."""
    bits = np.arange(1 << 16, dtype=np.uint32)
    cells = ((bits[:, None] >> np.arange(16, dtype=np.uint32)[None, :]) & 1).astype(
        np.float64
    )
    graphs = cells.reshape(-1, 4, 4)
    dens = graphs.mean(axis=(1, 2))
    degrees = graphs.sum(axis=2)
    e1 = np.abs(degrees - dens[:, None] * 4).mean(axis=1) / 4
    # batched matmuls, not einsum: every entry of `graphs` and `balanced` is
    # a multiple of 1/16, so each sum of four products is an exact multiple
    # of 1/256 and the result is bit-identical whatever the summation order
    codeg = graphs @ graphs.transpose(0, 2, 1)
    e2 = np.abs(codeg - (dens**2)[:, None, None] * 4).mean(axis=(1, 2)) / 4
    balanced = graphs - dens[:, None, None]
    inner = balanced @ balanced.transpose(0, 2, 1) / 4
    box4 = (inner**2).mean(axis=(1, 2))
    return np.maximum(e1, e2), box4**0.25
