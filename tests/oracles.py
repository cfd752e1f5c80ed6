"""Test oracles: direct computations that the library's faster paths are
checked against.  None of them runs in the library's own jobs."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from bogolib import bilinear, intmat
from bogolib.bilinear import (
    BilinearVariety,
    BiSet,
    RegularityCell,
    RegularityResult,
    qr_property_check,
    variety_contained_in,
)
from bogolib.bohr import bohr_mask, char_distances, within_radius
from bogolib.groups import (
    Character,
    FiniteAbelianGroup,
    GroupSubset,
    make_group,
    subgroup_generated,
)
from bogolib.lattices import IntegerLattice, chain_monitor
from bogolib.progressions import (
    Arm,
    CosetProgression,
    FreimanMap,
    extract_subprogression,
    grow_progression_inside,
)

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


def cover_varieties_loop(
    gx: FiniteAbelianGroup,
    d: BiSet,
    found: Sequence[FreimanMap],
    held: np.ndarray,
    top: int,
) -> tuple[np.ndarray, np.ndarray, list[BilinearVariety]]:
    """``bilinear._cover_varieties`` one source and radius at a time, with
    no size bound on C: each source's level sets straight from its map's
    values or its character, its fitting rows and their point counts, and,
    when row 0 fits and the fitting rows together hold more points than the
    best size so far, C grown afresh and the candidate verified.  Returns
    fits, (radii, sources, |H|), the point count of each fitting row (0
    elsewhere), of the same shape, and the verified candidates in the order
    they are tried."""
    gy, dual = d.group_y, gx.dual
    k = len(found)
    tables = [m.values for m in found] + [np.full(gy.order, c) for c in held]
    sources = (
        [(j,) for j in range(k)]
        + list(itertools.combinations(range(k), 2))
        + [(j,) for j in range(k, len(tables))]
    )
    radii = (Fraction(1, 4), Fraction(1, 8))
    fits = np.zeros((len(radii), len(sources), gy.order), dtype=bool)
    counts = np.zeros((len(radii), len(sources), gy.order), dtype=np.int64)
    accepted: list[BilinearVariety] = []
    for s, src in enumerate(sources):
        maps = tuple(found[j] for j in src if j < k)
        gamma = tuple(dual.element_from_index(int(held[j - k])) for j in src if j >= k)
        for r, rho in enumerate(radii):
            rows = np.logical_and.reduce(
                [within_radius(gx, char_distances(gx, tables[j]), rho) for j in src]
            )
            fits[r, s] = ~np.any(rows & ~d.matrix, axis=1)
            counts[r, s, fits[r, s]] = np.count_nonzero(rows[fits[r, s]], axis=1)
            best = max([top] + [v.size for v in accepted])
            if fits[r, s, 0] and counts[r, s].sum() > best:
                prog = grow_progression_inside(GroupSubset(gy, fits[r, s]), rank_cap=2)
                v = BilinearVariety(gx, gamma, rho, prog, maps)
                if variety_contained_in(v, d):
                    accepted.append(v)
    return fits, counts, accepted


def containment_winner_loop(
    gx: FiniteAbelianGroup, d: BiSet, cover_inputs
) -> "BilinearVariety | None":
    """``bilinear.main_theorem_experiment``'s winner with no size bound:
    every stage-one progression is witnessed (``_bohr_inside``) and gated,
    and the covering stage is ``cover_varieties_loop`` on ``cover_inputs``,
    the (found maps, held characters) the experiment passed it, or None when
    the stage did not run.  The first of the largest verified wins."""
    gy = d.group_y
    column, full_rows = d.matrix[:, 0], d.matrix.all(axis=1)
    progs = []
    if full_rows.all():
        progs.append(CosetProgression.whole_group(gy))
    elif column[0]:
        if full_rows[0]:
            progs.append(grow_progression_inside(GroupSubset(gy, full_rows), rank_cap=2))
        arm = bilinear._column_arm(gy, column)
        if arm is not None:
            arms = (Arm(gy.element_from_index(arm[0]), 0, arm[1]),)
            trivial = GroupSubset.from_indices(gy, [0])
            progs.append(CosetProgression(gy, gy.zero, arms, trivial))
        progs.append(grow_progression_inside(GroupSubset(gy, column), rank_cap=2))
    elif column.any():
        progs.append(CosetProgression.singleton(gy.element_from_index(int(column.argmax()))))
    found = []
    for prog in progs:
        witness = bilinear._bohr_inside(gx, d.matrix[prog.enumerate().indices()].all(axis=0))
        v = BilinearVariety(gx, witness.frequencies, witness.radius, prog, ())
        if variety_contained_in(v, d):
            found.append(v)
    if cover_inputs is not None:
        top = max((v.size for v in found), default=0)
        found += cover_varieties_loop(gx, d, *cover_inputs, top)[2]
    return max(found, key=lambda v: v.size) if found else None


def rho_grid(rho: Fraction, eta: Fraction) -> list[Fraction]:
    """The radii ``regularity_partition`` tries, as one list:
    rho - j eta^2 rho / 1000 at 64 evenly spread j in [0, ceil(500 eta^-2)]."""
    j_max = math.ceil(500 / (eta * eta))
    return [rho - (j_max * t // 63) * eta * eta * rho / 1000 for t in range(64)]


def regularity_partition_loop(
    c: CosetProgression,
    gamma: Sequence[Character],
    maps: Sequence[FreimanMap],
    rho: Fraction,
    eta: Fraction,
    step_cap: int,
    group_x: FiniteAbelianGroup,
) -> RegularityResult:
    """``bilinear.regularity_partition`` with every cell tried at each radius
    of ``rho_grid`` by its own from-scratch ``qr_property_check``; the same
    loop of cells, relations and shrinking steps."""
    rho, eta = Fraction(rho), Fraction(eta)
    candidates = rho_grid(rho, eta)
    strides, qprog = [1] * c.rank, c
    lattice = IntegerLattice(len(maps))
    budget = chain_monitor(max(1, len(maps)), bilinear._RELATION_BOX)
    steps = 0
    single_first = True
    while True:
        partition = [c] if single_first else bilinear._grid_cells(c, strides, qprog)
        cells: list[RegularityCell] = []
        for cell in partition:
            for rho_c in candidates:
                res = qr_property_check(cell, gamma, maps, rho_c, eta, group_x)
                if rho_c == rho:
                    flagged = RegularityCell(cell, rho, res.delta, False)
                if res.pass_i and res.pass_ii:
                    cells.append(RegularityCell(cell, rho_c, res.delta, True))
                    break
            else:
                cells.append(flagged)
        if all(cell.certified for cell in cells):
            return RegularityResult(tuple(cells), True, steps, lattice)
        if single_first:
            single_first = False
            continue
        if steps >= step_cap or steps >= budget:
            return RegularityResult(tuple(cells), False, steps, lattice)
        lam = bilinear._extract_relation(qprog, maps, lattice, bilinear._RELATION_BOX)
        if lam is None:
            return RegularityResult(tuple(cells), False, steps, lattice)
        dual = maps[0].codomain
        zs = qprog.enumerate().indices()
        acc = sum(coef * dual.coords_matrix[m.at(zs)] for coef, m in zip(lam, maps))
        vanish = np.all(acc % np.asarray(dual.moduli) == 0, axis=1)
        fset = GroupSubset.from_indices(c.group, zs[vanish])
        ext = extract_subprogression(fset, qprog, Fraction(fset.size, qprog.size))
        strides = [s * ell for s, ell in zip(strides, ext.ells)]
        qprog = ext.progression
        lattice = lattice.with_row(lam)
        steps += 1


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


def bohr_witness_bruteforce(gx: FiniteAbelianGroup, allowed: np.ndarray) -> np.ndarray:
    """The mask of the largest Bohr set inside ``allowed`` that the
    experiment's witness may take, by trying every candidate whole: all of G
    when the mask is; else each <g>, g nonzero in the mask, by index
    (``subgroup_generated``), then each character of index below
    min(|dual|, 4096) at every radius r/e, r = 0..e//2 (``bohr_mask``).  The
    first strictly larger set inside the mask with at least 2 points wins,
    and {0} when none fits."""
    if allowed.all():
        return allowed.copy()
    best = np.arange(gx.order) == 0
    candidates = [
        subgroup_generated(gx, [gx.element_from_index(int(g))]).mask
        for g in np.flatnonzero(allowed)
        if g != 0
    ]
    e = gx.exponent
    for chi in range(1, min(gx.dual.order, 4096)):
        chars = np.asarray([chi], dtype=np.int64)
        candidates += [bohr_mask(gx, chars, Fraction(r, e)) for r in range(e // 2 + 1)]
    for cand in candidates:
        if cand.sum() > best.sum() and not (cand & ~allowed).any():
            best = cand
    return best


def greedy_frame_pivots(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    """The first Q-independent rows, then the first columns independent on
    them, by greedy rank loops: an index is kept when it raises the rank of
    those kept before it, each rank the length of a fresh Hermite form."""

    def rank(mat: list[list[int]]) -> int:
        return len(intmat.row_hermite(mat)[0]) if mat else 0

    independent: list[int] = []
    for i in range(len(rows)):
        if rank([rows[j] for j in independent] + [rows[i]]) > len(independent):
            independent.append(i)
    cols: list[int] = []
    for c in range(len(rows[0]) if independent else 0):
        if len(cols) == len(independent):
            break
        if rank([[rows[i][j] for j in cols + [c]] for i in independent]) > len(cols):
            cols.append(c)
    return independent, cols


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
