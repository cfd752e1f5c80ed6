"""Subsets of G x H, directional difference operators, bilinear Bohr
varieties, the algebraic regularity partition, the linear covering loop and
the headline containment experiment.

Operator-word convention: the string "hvvhvhh" denotes the composition
d_hor . d_ver . d_ver . d_hor . d_ver . d_hor . d_hor applied to A with the
rightmost operator acting first.  Worked example: word "hv" applied to A
computes d_hor(d_ver(A)) -- the 'v' (rightmost letter) acts first.

Each letter first decides rows (or columns) by counting: an empty row gives
the empty set, and a row S with 2|S| > |G| gives all of G.  The rows left
open take one call of the batched real-FFT convolution
(``groups._convolution_counts``) with their negations, which transforms them
a row block at a time, one forward transform times its conjugate each; the
kernel returns exact integer counts, so the float transform never decides
membership unchecked.  Both operators map G x H to itself, so
``iterated_difference`` stops as soon as the set is all of G x H.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bohr import (
    BohrSet,
    char_distances,
    max_distance,
    pinned_bohr_set,
    subgroup_bohr_set,
    within_radius,
)
from .errors import (
    GroupMismatchError,
    PreconditionError,
)
from .fourier import _bogolyubov_spectra
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    _combination_indices,
    _convolution_counts,
)
from .lattices import IntegerLattice, annihilator_points, chain_monitor
from .progressions import (
    Arm,
    CosetProgression,
    FreimanMap,
    extract_subprogression,
    grow_progression_inside,
)
from .rng import check_seed, derive_rng

_PAIR_BLOCK = 1 << 18  # row-pair intersections per block of qr_property_check
_RELATION_BOX = 4  # coefficient box of the relations regularity_partition extracts
_RHO_GRID_CAP = 64  # radii tried per cell by regularity_partition

DEFAULT_WORD = "hvvhvhh"  # the containment experiment's operator word
DEFAULT_BUDGET = 6  # its covering-stage rounds


@dataclass(frozen=True, eq=False)
class BiSet:
    """Subset of G x H as a boolean (|H|, |G|) matrix; flat index y |G| + x."""

    group_x: FiniteAbelianGroup
    group_y: FiniteAbelianGroup
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=bool)
        if mat.shape != (self.group_y.order, self.group_x.order):
            raise ValueError("matrix shape must be (|H|, |G|)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_flat_indices(cls, gx, gy, flat) -> "BiSet":
        flat = np.asarray(flat, dtype=np.int64).reshape(-1)
        if flat.size and flat.min() < 0:
            raise ValueError("element index out of range")
        mat = np.zeros(gx.order * gy.order, dtype=bool)
        mat[flat] = True
        return cls(gx, gy, mat.reshape(gy.order, gx.order))

    @property
    def size(self) -> int:
        return int(self.matrix.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSet)
            and self.group_x is other.group_x
            and self.group_y is other.group_y
            and np.array_equal(self.matrix, other.matrix)
        )

    __hash__ = None

    def is_subset_of(self, other: "BiSet") -> bool:
        return not bool(np.any(self.matrix & ~other.matrix))


def _row_differences(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """S - S for every row S of a boolean (n, |G|) matrix.

    Counting decides two kinds of row: an empty row gives the empty set, and
    a row with 2|S| > |G| gives all of G, since |S & (S + x)| >= 2|S| - |G|
    > 0 for every x.  A row of exactly |G|/2 points is left open, as an
    index-2 subgroup S has S - S = S.  The open rows take one kernel call.
    """
    sizes = np.count_nonzero(rows, axis=1)
    full = 2 * sizes > group.order
    out = np.zeros(rows.shape, dtype=bool)
    out[full] = True
    open_rows = np.flatnonzero((sizes > 0) & ~full)
    if open_rows.size:
        out[open_rows] = _convolution_counts(group, rows[open_rows]) > 0
    return out


def d_hor(a: BiSet) -> BiSet:
    """Per-row difference set: {(x1 - x2, y) : (x1, y), (x2, y) in A}."""
    return BiSet(a.group_x, a.group_y, _row_differences(a.group_x, a.matrix))


def d_ver(a: BiSet) -> BiSet:
    """Per-column difference set: {(x, y1 - y2) : (x, y1), (x, y2) in A}."""
    return BiSet(a.group_x, a.group_y, _row_differences(a.group_y, a.matrix.T).T)


def iterated_difference(a: BiSet, word: str) -> BiSet:
    """Apply the operator word, rightmost letter first (see module docstring).

    The whole word is checked before any letter runs.  Each letter decides
    the empty and more-than-half-full rows by counting and sends the rest to
    one real-FFT pass with a checked 1/4 rounding margin; once the set is all
    of G x H, the remaining letters are skipped, since both operators fix it.
    """
    bad = [ch for ch in word if ch not in "hv"]
    if bad:
        raise ValueError(f"operator word may only contain h/v, got {bad[0]!r}")
    for ch in reversed(word):
        if a.matrix.all():
            break
        a = d_hor(a) if ch == "h" else d_ver(a)
    return a


# -- Freiman-linear maps into the dual ----------------------------------------


def linear_map_on_progression(
    progression: CosetProgression,
    dual: FiniteAbelianGroup,
    arm_values: Sequence[GroupElement],
) -> FreimanMap:
    """Tabulate y = base + sum k_i v_i + h  ->  sum k_i w_i.

    Requires a proper progression, so coordinates are unique (``coordinates``
    raises otherwise); the subgroup part maps to zero.
    """
    elements, coefficients, _ = progression.coordinates()
    values = np.full(progression.group.order, -1, dtype=np.int64)
    values[elements] = _combination_indices(dual, coefficients, arm_values)
    return FreimanMap(progression, dual, values)


# -- bilinear Bohr varieties ---------------------------------------------------


def _check_maps(group_x: FiniteAbelianGroup, group_y: FiniteAbelianGroup, maps) -> None:
    if any(m.codomain is not group_x.dual or m.domain.group is not group_y for m in maps):
        raise GroupMismatchError("variety maps must run from H into the dual of G")


def _distance_table(gx, gamma, maps, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma's row ``max_distance(gx, gamma)`` and the int64 table of rows ys,
    one shared row when there are no maps: entry (i, x) is the max over Gamma
    and L_1(y_i)..L_r(y_i) of e ||chi(x)||, e the exponent, thresholded by ``within_radius``."""
    base = max_distance(gx, gamma)
    table = base[None]
    for fmap in maps:
        uniq, inverse = np.unique(fmap.at(ys), return_inverse=True)
        table = np.maximum(table, char_distances(gx, uniq)[inverse])
    return base, table


@dataclass(frozen=True, eq=False)
class BilinearVariety:
    """Pairs (x, y): y in C and x in B(Gamma cup {L_1(y)..L_r(y)}; rho)."""

    group_x: FiniteAbelianGroup
    gamma: tuple[Character, ...]
    rho: Fraction
    progression: CosetProgression
    maps: tuple[FreimanMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        _check_maps(self.group_x, self.progression.group, self.maps)

    @cached_property
    def _biset(self) -> BiSet:
        gx, gy = self.group_x, self.progression.group
        ys = self.progression.enumerate().indices()
        mat = np.zeros((gy.order, gx.order), dtype=bool)
        mat[ys] = within_radius(gx, _distance_table(gx, self.gamma, self.maps, ys)[1], self.rho)
        return BiSet(gx, gy, mat)

    def enumerate(self) -> BiSet:
        return self._biset

    @property
    def size(self) -> int:
        return self._biset.size

    def describe(self) -> dict:
        return {
            "gamma": [list(chi.coords) for chi in self.gamma],
            "rho": f"{self.rho.numerator}/{self.rho.denominator}",
            "progression": {
                "base": list(self.progression.base.coords),
                "arms": [
                    {"generator": list(a.generator.coords), "lo": a.lo, "hi": a.hi}
                    for a in self.progression.arms
                ],
                "subgroup_size": self.progression.subgroup.size,
            },
            "maps": len(self.maps),
        }


def variety_contained_in(variety: BilinearVariety, d: BiSet) -> bool:
    return variety.enumerate().is_subset_of(d)


def variety_membership_bruteforce(variety: BilinearVariety) -> BiSet:
    """Independent double-loop membership check (for cross-validation)."""
    from .groups import char_eval, torus_dist

    gx = variety.group_x
    gy = variety.progression.group
    cmask = variety.progression.enumerate()
    mat = np.zeros((gy.order, gx.order), dtype=bool)
    for y in gy.elements():
        if y.index not in cmask:
            continue
        chars = list(variety.gamma) + [m(y) for m in variety.maps]
        for x in gx.elements():
            ok = all(
                torus_dist(char_eval(chi, x)) <= variety.rho for chi in chars
            )
            mat[y.index, x.index] = ok
    return BiSet(gx, gy, mat)


# -- quasirandomness certification ---------------------------------------------


@dataclass(frozen=True)
class QRCheck:
    delta: float
    pass_i: bool
    pass_ii: bool


def _cell_checks(
    cell: CosetProgression, gamma, maps, radii: Iterable[Fraction], eta: Fraction, group_x
) -> Iterator[tuple[Fraction, QRCheck]]:
    """(rho, ``qr_property_check`` at rho) for each radius in turn, read off
    the cell's one ``_distance_table`` only when the caller asks for it."""
    ys = cell.enumerate().indices()
    if ys.size == 0:
        raise PreconditionError("empty cell")
    n, order = ys.size, group_x.order
    base, table = _distance_table(group_x, gamma, maps, ys)
    table = np.broadcast_to(table, (n, order))

    def bound(scale: int, top: int) -> int:
        # floor(eta scale) clipped to [-1, top], for a statistic in [0, top]
        return max(-1, min(eta.numerator * scale // eta.denominator, top))

    row_bound, cap_i, cap_ii = bound(2 * order, 2 * order), bound(n, n), bound(n * n, n * n)
    block = max(1, _PAIR_BLOCK // n)  # rows per block of pairs
    for rho in radii:
        row_masks = within_radius(group_x, table, rho)
        b0 = int(np.count_nonzero(within_radius(group_x, base, rho)))
        sizes = np.count_nonzero(row_masks, axis=1)
        m2 = int(np.sort(sizes)[[(n - 1) // 2, n // 2]].sum())  # twice the median
        fails_i = np.abs(2 * sizes - m2) > row_bound
        pair_bound = bound(4 * b0 * order, 4 * order * order)
        f = row_masks.astype(np.float64)
        # one expression per block, so that no block's arrays outlive it (the
        # float product holds exact integers)
        fails_ii = sum(
            int(np.count_nonzero(
                np.abs(4 * b0 * (f[start : start + block] @ f.T).astype(np.int64) - m2 * m2)
                > pair_bound
            ))
            for start in range(0, n, block)
        )
        yield rho, QRCheck(m2 / 2 / b0, int(fails_i.sum()) <= cap_i, fails_ii <= cap_ii)


def qr_property_check(
    cell: CosetProgression,
    gamma: Sequence[Character],
    maps: Sequence[FreimanMap],
    rho_i: Fraction,
    eta: Fraction,
    group_x: FiniteAbelianGroup,
) -> QRCheck:
    """Both regularity properties of a cell at radius rho_i.

    delta is the median m of |B(Gamma cup L(y); rho_i)| over the cell, over
    b0 = |B(Gamma; rho_i)|; property (i) asks a 1 - eta fraction of rows to
    deviate by at most eta |G| from delta b0 = m, property (ii) the analogue
    for all n^2 ordered pairs of the cell's n rows, with delta^2 b0.  The
    rows and b0 are thresholds of the cell's ``_distance_table`` (b0 >= 1:
    0 lies in every Bohr set).  In integers, with m2 = 2 m the sum of the two
    middle sizes: a row fails when |2 size - m2| > floor(2 eta |G|), a pair
    when |4 b0 inter - m2^2| > floor(4 b0 eta |G|), and a property holds when
    at most floor(eta n) of its n rows or n^2 pairs fail.  Each floor is
    taken in Python integers and clipped to its statistic's range, so every
    comparison is exact in int64 for |G| <= 2^30.  Pairs are counted about
    ``_PAIR_BLOCK`` at a time: O(n^2 |G|) time, and memory of one block.
    """
    _check_maps(group_x, cell.group, maps)
    return next(_cell_checks(cell, gamma, maps, [Fraction(rho_i)], Fraction(eta), group_x))[1]


# -- algebraic regularity partition ---------------------------------------------


@dataclass(frozen=True)
class RegularityCell:
    progression: CosetProgression
    rho: Fraction
    delta: float
    certified: bool


@dataclass(frozen=True)
class RegularityResult:
    cells: tuple[RegularityCell, ...]
    certified: bool
    steps: int
    relation_lattice: IntegerLattice


def _rho_candidates(rho: Fraction, eta: Fraction) -> Iterator[Fraction]:
    """Grid rho - j eta^2 rho / 1000 at ``_RHO_GRID_CAP`` evenly spread j in
    [0, j_max], j_max = ceil(500 eta^-2), yielded lazily.  For 0 < eta <= 1,
    j_max >= 500, so the j = j_max t // (cap - 1) are distinct and ascending."""
    j_max, step = math.ceil(500 / (eta * eta)), eta * eta * rho / 1000
    return (rho - (j_max * t // (_RHO_GRID_CAP - 1)) * step for t in range(_RHO_GRID_CAP))


def _grid_cells(
    c: CosetProgression, strides: Sequence[int], q: CosetProgression
) -> list[CosetProgression]:
    """Partition C compatibly with translates of the half-shrunk Q_s.

    Q_s has arms (s_j v_j, -M_j, M_j) over C's generators v_j and subgroup
    part H_s.  Arm positions split by residue modulo the stride s_j and then
    into blocks of at most max(1, M_j) stride steps, so each cell minus
    itself lands inside Q_s; the subgroup part splits into cosets of H_s.
    """
    group = c.group
    per_arm: list[list[tuple[int, int, int]]] = []  # (start, stride, count)
    for arm, s, q_arm in zip(c.arms, strides, q.arms):
        width = max(1, q_arm.hi)
        options = []
        span = arm.hi - arm.lo
        for rem in range(min(s, span + 1)):
            total = (span - rem) // s + 1
            t = 0
            while t < total:
                count = min(width, total - t)
                options.append((arm.lo + rem + s * t, s, count))
                t += count
        per_arm.append(options)
    h0 = c.subgroup
    hs = q.subgroup
    reps: list[int] = []
    covered = np.zeros(group.order, dtype=bool)
    for idx in h0.indices():
        if not covered[int(idx)]:
            reps.append(int(idx))
            covered |= hs.translate(group.element_from_index(int(idx))).mask
    cells = []
    for combo in itertools.product(*per_arm):
        for rep in reps:
            base = c.base + group.element_from_index(rep)
            arms = []
            for (start, stride, count), arm in zip(combo, c.arms):
                base = base + start * arm.generator
                arms.append(Arm(stride * arm.generator, 0, count - 1))
            cells.append(CosetProgression._derived(group, base, tuple(arms), hs))
    return cells


def _extract_relation(
    qprog: CosetProgression,
    maps: Sequence[FreimanMap],
    lattice: IntegerLattice,
    box_radius: int,
) -> Optional[tuple[int, ...]]:
    """Most frequent small coefficient vector annihilating the maps on Q_s,
    outside the known relation lattice."""
    r = len(maps)
    if r == 0:
        return None
    dual = maps[0].codomain
    zs = qprog.enumerate().indices()
    values = np.stack([m.at(zs) for m in maps], axis=1)
    votes: dict[tuple[int, ...], int] = {}
    for row_vals in values:
        chars = [dual.element_from_index(v) for v in row_vals]
        pts = annihilator_points(chars, box_radius)
        for row in pts:
            lam = tuple(int(v) for v in row)
            if not any(lam):
                continue
            votes[lam] = votes.get(lam, 0) + 1
    best = None
    for lam in sorted(votes, key=lambda t: (-votes[t], t)):
        if not lattice.member(lam):
            best = lam
            break
    return best


def regularity_partition(
    c: CosetProgression,
    gamma: Sequence[Character],
    maps: Sequence[FreimanMap],
    rho: Fraction,
    eta: Fraction,
    step_cap: int,
    group_x: FiniteAbelianGroup,
) -> RegularityResult:
    """Partition C into cells that pass both quasirandomness properties.

    Loop: certify cells at some grid radius; on failure extract a new
    vanishing coefficient vector of the maps, shrink Q_s (at first C itself)
    to the progression extracted from its Freiman-subgroup, and repartition.
    eta must lie in (0, 1].  A cell's checks read the ``_rho_candidates``
    grid off one ``_distance_table`` and stop at the first radius that
    passes; a cell passing at none keeps rho and its delta there.  The
    relation lattice grows strictly inside the box [-b, b]^r, b =
    ``_RELATION_BOX``, so the step count obeys the chain-monitor budget;
    cells still failing at the cap are flagged rather than forced.
    """
    if not c.is_symmetric or not c.is_proper():
        raise PreconditionError("C must be a proper symmetric coset progression")
    rho, eta = Fraction(rho), Fraction(eta)
    if not 0 < eta <= 1:
        raise PreconditionError("eta must be in (0, 1]")
    _check_maps(group_x, c.group, maps)
    # Q_s = qprog has arms (strides[j] v_j, -M_j, M_j) over C's generators v_j
    strides, qprog = [1] * c.rank, c
    lattice = IntegerLattice(len(maps))
    budget = chain_monitor(max(1, len(maps)), _RELATION_BOX)
    steps = 0
    single_first = True
    while True:
        partition = [c] if single_first else _grid_cells(c, strides, qprog)
        cells: list[RegularityCell] = []
        for cell in partition:
            checks = _cell_checks(cell, gamma, maps, _rho_candidates(rho, eta), eta, group_x)
            for rho_c, res in checks:
                if rho_c == rho:  # a flagged cell keeps rho, and its delta there
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
        capped = steps >= step_cap or steps >= budget
        lam = None if capped else _extract_relation(qprog, maps, lattice, _RELATION_BOX)
        if lam is None:
            return RegularityResult(tuple(cells), False, steps, lattice)
        # Freiman-subgroup of Q_s where the relation vanishes
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


# -- the linear covering loop ----------------------------------------------------


_HOM_CAP = 4096  # homomorphisms exhaustive_hom_finder enumerates at most


@dataclass(frozen=True)
class CoverResult:
    maps: tuple[FreimanMap, ...]
    rounds: int


def linear_cover(
    y_set: GroupSubset, dual: FiniteAbelianGroup, u: np.ndarray, rounds_cap: int
) -> CoverResult:
    """Cover bounded character sets U_y by values of few homomorphisms.

    Each round adds the homomorphism H -> dual of ``exhaustive_hom_finder``
    whose values cover the most uncovered points of U on Y, the first on a
    tie.  The loop stops after ``rounds_cap`` rounds, or at the first round
    in which no map covers anything new; ``rounds`` counts the maps added.
    The finder's maps depend only on Y and U, so they are built once per
    call.  The zero map is always present.  U is the boolean (|H|, |dual|)
    mask with row y the value set U_y of y in Y (each holding the zero
    character 0).
    """
    h = y_set.group
    y_idx = y_set.indices()
    u = np.asarray(u, dtype=bool)
    if u.shape != (h.order, dual.order) or not u[y_idx, 0].all():
        raise PreconditionError("U must be an (|H|, |dual|) mask with 0 in every U_y")
    if y_idx.size == 0:
        return CoverResult((), 0)
    zero_map = FreimanMap(
        CosetProgression.whole_group(h), dual, np.zeros(h.order, dtype=np.int64)
    )
    maps: list[FreimanMap] = [zero_map]
    covered = np.zeros_like(u)
    covered[y_idx, 0] = True
    tables = exhaustive_hom_finder(y_set, dual, u)
    on_y = tables[:, y_idx]
    in_u = u[y_idx, on_y]  # in_u[j, i]: map j's value at the i-th point of Y is in U
    for _ in range(rounds_cap):
        gains = np.count_nonzero(in_u & ~covered[y_idx, on_y], axis=1)
        if not gains.any():
            break
        best = int(gains.argmax())
        covered[y_idx, on_y[best]] |= in_u[best]
        maps.append(FreimanMap(zero_map.domain, dual, tables[best]))
    return CoverResult(tuple(maps), len(maps) - 1)


def exhaustive_hom_finder(
    y_set: GroupSubset, dual: FiniteAbelianGroup, u: np.ndarray
) -> np.ndarray:
    """Value tables over H of the homomorphisms L: H -> dual that U allows
    on H's unit vectors, one row per map.

    L is fixed by w_i = L(e_i) on the unit vectors e_i of H, and with m_i
    the modulus of e_i it is a homomorphism exactly when m_i w_i = 0.  w_i
    ranges over those characters of U_{e_i} when e_i lies in Y (U as in
    ``linear_cover``), and over all of them otherwise, in ascending index,
    the last unit vector fastest.  Row j holds L_j(y) = sum_i y_i w_i at
    every y, from one ``index_of_coords`` product.  When the choices
    multiply to more than ``_HOM_CAP`` maps, no row is returned.
    """
    h = y_set.group
    units = h.index_of_coords(np.eye(h.rank, dtype=np.int64))
    choices = []
    for e, m in zip(units, h.moduli):
        ok = dual.index_of_coords(m * dual.coords_matrix) == 0
        choices.append(np.flatnonzero(ok & u[e] if y_set.mask[e] else ok))
    if math.prod(c.size for c in choices) > _HOM_CAP:
        return np.zeros((0, h.order), dtype=np.int64)
    w = np.stack(np.meshgrid(*choices, indexing="ij"), axis=-1).reshape(-1, h.rank)
    # (maps, |H|, dual rank) coordinates of sum_i y_i w_i
    return dual.index_of_coords(h.coords_matrix @ dual.coords_matrix[w])


# -- headline containment experiment ---------------------------------------------


@dataclass(frozen=True)
class ExperimentOutcome:
    report: dict
    variety: Optional[BilinearVariety]
    difference_set: BiSet


def group_spec_string(group: FiniteAbelianGroup) -> str:
    return "x".join(f"Z{q}" for q in group.moduli)


def sample_biset(
    gx: FiniteAbelianGroup, gy: FiniteAbelianGroup, delta: float, seed: int
) -> BiSet:
    """Seeded subset of G x H with exactly ceil(delta |G| |H|) points."""
    total = gx.order * gy.order
    n = min(total, math.ceil(delta * total))
    rng = derive_rng(seed, 3)
    flat = rng.choice(total, size=n, replace=False)
    return BiSet.from_flat_indices(gx, gy, flat)


_ARM_BLOCK = 1 << 18  # entries per block: ``_multiples``' coordinates, the witness's distances


def _multiples(group: FiniteAbelianGroup, gens: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """(g, indices of k g for k = 1..exponent) per block of the nonzero ``gens``
    (indices), one row per g, about ``_ARM_BLOCK`` coordinates a block."""
    gens = gens[gens != 0]
    ks = np.arange(1, group.exponent + 1)[None, :, None]
    block = max(1, _ARM_BLOCK // (ks.size * group.rank))
    for start in range(0, gens.size, block):
        g = gens[start : start + block]
        yield g, group.index_of_coords(ks * group.coords_matrix[g][:, None, :])


def _bohr_inside(gx: FiniteAbelianGroup, allowed: np.ndarray) -> BohrSet:
    """The largest Bohr set inside ``allowed`` (a mask over ``gx`` holding 0),
    the first of equal sizes: all of G when the mask is; else each <g> whose
    multiples (``_multiples``) all lie in the mask, of size ord(g); else each
    character chi of index below 4096 at its largest level set
    {x : e ||chi(x)|| < m}, radius (m - 1)/e, m the least distance outside
    the mask (one ``char_distances`` table per block of characters); else
    {0} (``pinned_bohr_set``), as the others need two points.  No candidate is enumerated.
    """
    if allowed.all():
        return BohrSet(gx, (), Fraction(1, 2))
    best, size = pinned_bohr_set(gx), 1
    for _, multiples in _multiples(gx, np.flatnonzero(allowed)):
        order = (multiples == 0).argmax(axis=1) + 1
        fit = np.where(allowed[multiples].all(axis=1), order, 0)
        i = int(fit.argmax())
        if fit[i] > size:
            size = int(fit[i])
            best = subgroup_bohr_set(GroupSubset.from_indices(gx, multiples[i]))  # <g>
    chars = np.arange(1, min(gx.dual.order, 4096), dtype=np.int64)
    block = max(1, _ARM_BLOCK // gx.order)
    for start in range(0, chars.size, block):
        dist = char_distances(gx, chars[start : start + block])
        m = dist[:, ~allowed].min(axis=1)
        count = np.count_nonzero(dist < m[:, None], axis=1)
        i = int(count.argmax())
        if count[i] > size:
            chi = gx.dual.element_from_index(int(chars[start + i]))
            best, size = BohrSet(gx, (chi,), Fraction(int(m[i]) - 1, gx.exponent)), int(count[i])
    return best


def _column_arm(group: FiniteAbelianGroup, column: np.ndarray) -> Optional[tuple[int, int]]:
    """The longest arm g, 2g, ..., mg inside ``column`` (a mask over
    ``group``), as (index of g, m) with m >= 1, or None.

    For each nonzero g in the column, m is the first k >= 1 with k g outside
    the column or k g = 0 (``_multiples``), less one; the first g by index
    with the largest m wins.  m < ord(g), so the arm 0, g, ..., m g is proper.
    """
    best = None
    for g, multiples in _multiples(group, np.flatnonzero(column)):
        runs = (~column[multiples] | (multiples == 0)).argmax(axis=1)
        i = int(runs.argmax())
        if runs[i] >= 1 and (best is None or runs[i] > best[1]):
            best = (int(g[i]), int(runs[i]))
    return best


_SOURCE_BLOCK = 1 << 18  # level-set entries per block of scored cover sources
_COVER_RADII = (Fraction(1, 4), Fraction(1, 8))


def _score_sources(
    level: np.ndarray, at: np.ndarray, pairs: np.ndarray, outside: np.ndarray
) -> np.ndarray:
    """Each cover source's point count per fitting row at one radius.

    Source s takes at each y the level set ``level[at[a, y]] & level[at[b,
    y]]``, (a, b) = pairs[s]; a single map or character repeats its row.
    Row y fits when its set misses ``outside`` (the complement of D, one
    row per y).  Returns the int32 counts, (sources, |H|): the points of
    row y's set when it fits, else 0.  A level set holds x = 0, so a row
    fits exactly when its count is positive.  A block of sources is taken
    at a time (about ``_SOURCE_BLOCK`` entries).
    """
    counts = np.empty((len(pairs), outside.shape[0]), dtype=np.int32)
    block = max(1, _SOURCE_BLOCK // outside.size)
    for start in range(0, len(pairs), block):
        a, b = pairs[start : start + block].T
        rows = level[at[a]] & level[at[b]]
        ok = ~(rows & outside).any(axis=2)
        counts[start : start + block] = np.where(ok, np.count_nonzero(rows, axis=2), 0)
    return counts


def _cover_varieties(
    gx: FiniteAbelianGroup,
    d: BiSet,
    found: Sequence[FreimanMap],
    held: np.ndarray,
    top: int,
) -> list[BilinearVariety]:
    """The covering stage's verified candidates, in the order they are tried.

    Sources: each found map, each pair of them, and Gamma = {chi} for each
    held character chi (dual indices); each is tried at rho = 1/4, then
    1/8.  C is ``grow_progression_inside`` of the rows y whose level set
    B(Gamma cup L(y); rho) fits D, row 0 among them.  Every source is scored
    in one ``_score_sources`` pass per radius before any candidate is built.
    A candidate's size is exact before it is built: the sum of its source's
    row counts over C.  It is built, and gated by ``variety_contained_in``,
    only when that size beats ``top``, the best verified size so far, since
    the first of equal sizes wins; a source whose fitting rows together
    hold at most ``top`` points is not grown at all.  C is grown once per
    distinct set of fitting rows.
    """
    gy, dual = d.group_y, gx.dual
    k = len(found)
    # chars[at[j, y]] is source row j's character at y: a map's value, or
    # one held character on every row
    chars, at = np.unique(
        np.concatenate([m.values for m in found] + [np.repeat(held, gy.order)]),
        return_inverse=True,
    )
    at = at.reshape(-1, gy.order)
    sources = (
        [(j,) for j in range(k)]
        + list(itertools.combinations(range(k), 2))
        + [(j,) for j in range(k, len(at))]
    )
    pairs = np.asarray([(src[0], src[-1]) for src in sources], dtype=np.int64).reshape(-1, 2)
    outside = ~d.matrix
    counts = [  # a fresh distance table per radius, so that none is held across both
        _score_sources(within_radius(gx, char_distances(gx, chars), rho), at, pairs, outside)
        for rho in _COVER_RADII
    ]
    # sources share fitting rows; growing C per source made contain-sparse ~13% slower
    grown: dict[bytes, CosetProgression] = {}
    out: list[BilinearVariety] = []
    passing = np.stack([(c[:, 0] > 0) & (c.sum(axis=1) > top) for c in counts], axis=1)
    for s, r in np.argwhere(passing):
        row = counts[r][s]
        if row.sum() <= top:
            continue
        fits = row > 0
        key = fits.tobytes()
        if key not in grown:
            grown[key] = grow_progression_inside(GroupSubset(gy, fits), rank_cap=2)
        prog = grown[key]
        size = int(row[prog.enumerate().indices()].sum())
        if size <= top:
            continue
        src = sources[s]
        maps = tuple(found[j] for j in src if j < k)
        gamma = tuple(dual.element_from_index(int(held[j - k])) for j in src if j >= k)
        v = BilinearVariety(gx, gamma, _COVER_RADII[r], prog, maps)
        if variety_contained_in(v, d):
            out.append(v)
            top = v.size
    return out


def main_theorem_experiment(
    gx: FiniteAbelianGroup,
    gy: FiniteAbelianGroup,
    delta: float,
    seed: int,
    search_budget: int = DEFAULT_BUDGET,
    word: str = DEFAULT_WORD,
) -> ExperimentOutcome:
    """Sample a set of the given density, take the iterated difference set
    and search for a verified bilinear Bohr variety inside it.  ``seed``
    must lie in [0, 2^64) (``rng.check_seed``).

    The search runs in two stages, and every candidate that is built is
    gated by the exact containment verifier; the largest verified variety
    wins, the first of equal sizes.  So a candidate that an exact size
    bound shows cannot beat ``top``, the best verified size so far, is not
    built.  Stage one: each progression C through 0 in D's zero column (the
    y with (0, y) in D), under its witness ``_bohr_inside``: the exact
    largest Bohr set inside ``allowed``, the rows C has in common, among all
    of G, the cyclic subgroups and the level sets of single characters, or
    ``pinned_bohr_set`` = {0} when none has two points.  The witness lies in
    ``allowed``, so C is skipped, with no witness sought, when |C| |allowed|
    <= top.  The progressions, in order: all of H when every row of D is all
    of G, and then nothing else runs; otherwise the progression grown in the
    full rows (when 0 is in them), the longest arm 0, g, ..., m g in the
    column (``_column_arm``), and the progression grown in the column.  When
    0 is not in the column, the one candidate is its first point y0 alone,
    and when the column is empty no variety fits, since every Bohr row
    contains x = 0.  Stage two covers the per-row Bogolyubov spectra by
    homomorphisms of H.

    The dense rows come from one pass over the row sums, and their
    Bogolyubov spectra from one batched call (``fourier._bogolyubov_spectra``);
    each row's value set is the zero character and at most seven nonzero
    frequencies, one row of the mask U that ``linear_cover`` takes.  The
    cover adds at most ``search_budget`` homomorphisms, and fewer when a
    round's best map covers no new point of U.  Each homomorphism the cover
    finds, each pair of them, and Gamma = {chi} for each nonzero chi that U
    holds is a source of candidates at rho = 1/4 and 1/8
    (``_cover_varieties``), which starts from stage one's ``top``: every
    source is scored in one pass per radius, per row, a source whose
    fitting rows hold at most ``top`` points is not grown, C is grown once
    per distinct set of fitting rows, and a candidate whose exact size, its
    row counts summed over C, is at most ``top`` is not built.
    """
    check_seed(seed)
    start = time.monotonic()
    a = sample_biset(gx, gy, delta, seed)
    d = iterated_difference(a, word)
    column = d.matrix[:, 0]  # D's zero column: the y with (0, y) in D
    full_rows = d.matrix.all(axis=1)
    saturated = bool(full_rows.all())
    progressions: list[CosetProgression] = []
    if saturated:
        progressions.append(CosetProgression.whole_group(gy))
    elif column[0]:
        if full_rows[0]:
            progressions.append(grow_progression_inside(GroupSubset(gy, full_rows), rank_cap=2))
        arm = _column_arm(gy, column)
        if arm is not None:
            arms = (Arm(gy.element_from_index(arm[0]), 0, arm[1]),)
            trivial = GroupSubset.from_indices(gy, [0])
            progressions.append(CosetProgression(gy, gy.zero, arms, trivial))
        progressions.append(grow_progression_inside(GroupSubset(gy, column), rank_cap=2))
    elif column.any():
        y0 = gy.element_from_index(int(column.argmax()))
        progressions.append(CosetProgression.singleton(y0))
    candidates: list[BilinearVariety] = []
    top = 0  # the best verified size so far
    for prog in progressions:
        ys = prog.enumerate().indices()
        allowed = d.matrix[ys].all(axis=0)
        if ys.size * int(np.count_nonzero(allowed)) <= top:
            continue  # the witness lies inside allowed, so |V| cannot beat top
        witness = _bohr_inside(gx, allowed)
        v = BilinearVariety(gx, witness.frequencies, witness.radius, prog, ())
        if variety_contained_in(v, d):
            candidates.append(v)
            top = max(top, v.size)
    # varieties from the cover of the per-row Bogolyubov spectra
    if search_budget > 0 and not saturated:
        row_sizes = a.matrix.sum(axis=1)
        dense_rows = np.flatnonzero((row_sizes * 2 >= delta * gx.order) & (row_sizes > 0))
        dual = gx.dual
        u = np.zeros((gy.order, dual.order), dtype=bool)
        u[dense_rows, 0] = True
        for yi, hits in zip(dense_rows, _bogolyubov_spectra(gx, a.matrix[dense_rows])):
            # the zero character, then at most seven nonzero frequencies
            u[yi, hits[hits != 0][:7]] = True
        if dense_rows.size:
            yset = GroupSubset.from_indices(gy, dense_rows)
            cover = linear_cover(yset, dual, u, rounds_cap=search_budget)
            held = np.flatnonzero(u[dense_rows].any(axis=0))[1:]  # nonzero
            candidates += _cover_varieties(gx, d, cover.maps[1:], held, top)
    best = max(candidates, key=lambda v: v.size) if candidates else None
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "schema_version": 1,
        "group_g": group_spec_string(gx),
        "group_h": group_spec_string(gy),
        "delta": float(delta),
        "seed": int(seed),
        "word": word,
        "d_size": d.size,
        "variety": best.describe() if best else None,
        "variety_size": best.size if best else 0,
        "verified": best is not None,
        "elapsed_ms": elapsed_ms,
    }
    return ExperimentOutcome(report, best, d)
