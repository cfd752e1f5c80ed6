"""Subsets of G x H, directional difference operators, bilinear Bohr
varieties, the algebraic regularity partition, the linear covering loop and
the headline containment experiment.

Operator-word convention: the string "hvvhvhh" denotes the composition
d_hor . d_ver . d_ver . d_hor . d_ver . d_hor . d_hor applied to A with the
rightmost operator acting first.  Worked example: word "hv" applied to A
computes d_hor(d_ver(A)) -- the 'v' (rightmost letter) acts first.

Each letter is one batched real-FFT convolution (``groups._convolution_counts``)
of every row (or column) with its negation, taken from one forward transform
times its conjugate; the kernel returns exact integer counts, so the float
transform never decides membership unchecked.  Both operators map G x H to
itself, so ``iterated_difference`` stops as soon as the set is all of G x H.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .bohr import (
    BohrSet,
    bohr_mask,
    char_distances,
    level_masks,
    pinned_bohr_set,
    subgroup_bohr_set,
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
    subgroup_generated,
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

_PAIR_CUTOFF = 1 << 20  # pairs above which qr_property_check samples (a memory guard)
_PAIR_SAMPLES = 10_000
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
    def empty(cls, gx: FiniteAbelianGroup, gy: FiniteAbelianGroup) -> "BiSet":
        return cls(gx, gy, np.zeros((gy.order, gx.order), dtype=bool))

    @classmethod
    def full(cls, gx: FiniteAbelianGroup, gy: FiniteAbelianGroup) -> "BiSet":
        return cls(gx, gy, np.ones((gy.order, gx.order), dtype=bool))

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

    def row(self, y) -> GroupSubset:
        idx = y.index if isinstance(y, GroupElement) else int(y)
        return GroupSubset(self.group_x, self.matrix[idx].copy())

    def column(self, x) -> GroupSubset:
        idx = x.index if isinstance(x, GroupElement) else int(x)
        return GroupSubset(self.group_y, self.matrix[:, idx].copy())

    def transpose(self) -> "BiSet":
        return BiSet(self.group_y, self.group_x, self.matrix.T.copy())

    def is_subset_of(self, other: "BiSet") -> bool:
        return not bool(np.any(self.matrix & ~other.matrix))

    def contains(self, x: GroupElement, y: GroupElement) -> bool:
        return bool(self.matrix[y.index, x.index])


def d_hor(a: BiSet) -> BiSet:
    """Per-row difference set: {(x1 - x2, y) : (x1, y), (x2, y) in A}."""
    return BiSet(a.group_x, a.group_y, _convolution_counts(a.group_x, a.matrix) > 0)


def d_ver(a: BiSet) -> BiSet:
    """Per-column difference set: {(x, y1 - y2) : (x, y1), (x, y2) in A}."""
    return BiSet(a.group_x, a.group_y, _convolution_counts(a.group_y, a.matrix.T).T > 0)


def iterated_difference(a: BiSet, word: str) -> BiSet:
    """Apply the operator word, rightmost letter first (see module docstring).

    The whole word is checked before any letter runs.  Each letter is one
    real-FFT pass with a checked 1/4 rounding margin; once the set is all of
    G x H, the remaining letters are skipped, since both operators fix it.
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
    return FreimanMap(progression, dual, values, order=2)


# -- bilinear Bohr varieties ---------------------------------------------------


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
        for fmap in self.maps:
            if fmap.codomain is not self.group_x.dual:
                raise GroupMismatchError("variety maps must target the dual of G")

    @cached_property
    def _biset(self) -> BiSet:
        gx = self.group_x
        gy = self.progression.group
        ys = self.progression.enumerate().indices()
        mat = np.zeros((gy.order, gx.order), dtype=bool)
        mat[ys] = bohr_mask(gx, self.gamma, self.rho)
        for fmap in self.maps:
            uniq, inverse = np.unique(fmap.at(ys), return_inverse=True)
            mat[ys] &= level_masks(gx, uniq, self.rho)[inverse]
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
    fail_fraction_i: float
    fail_fraction_ii: float
    sampled: bool


def qr_property_check(
    cell: CosetProgression,
    gamma: Sequence[Character],
    maps: Sequence[FreimanMap],
    rho_i: Fraction,
    eta: Fraction,
    group_x: FiniteAbelianGroup,
) -> QRCheck:
    """Both regularity properties of a cell at radius rho_i.

    delta is the median of |B(Gamma cup L(y); rho_i)| / |B(Gamma; rho_i)|
    over the cell; property (i) asks a 1 - eta fraction of rows to deviate
    by at most eta |G| from delta |B(Gamma)|, property (ii) the analogue
    for pairs with delta^2.  Pair statistics are sampled above ``_PAIR_CUTOFF``.
    The rows B(Gamma cup L(y); rho_i) are the cell's rows of the bilinear
    Bohr variety, and |B(Gamma; rho_i)| is one ``bohr_mask``.
    """
    rho_i = Fraction(rho_i)
    eta_f = float(eta)
    ys = cell.enumerate().indices()
    if ys.size == 0:
        raise PreconditionError("empty cell")
    variety = BilinearVariety(group_x, tuple(gamma), rho_i, cell, tuple(maps))
    row_masks = variety.enumerate().matrix[ys]
    b0 = int(bohr_mask(group_x, gamma, rho_i).sum())
    sizes = row_masks.sum(axis=1)
    delta = float(np.median(sizes)) / b0 if b0 else 1.0
    tol = eta_f * group_x.order + 1e-9
    dev_i = np.abs(sizes - delta * b0)
    fail_i = float(np.mean(dev_i > tol))
    pass_i = fail_i <= eta_f + 1e-12
    n_pairs = ys.size * ys.size
    sampled = n_pairs > _PAIR_CUTOFF
    if not sampled:
        f = row_masks.astype(np.float64)
        inter = f @ f.T
        dev_ii = np.abs(inter - delta * delta * b0)
        fail_ii = float(np.mean(dev_ii > tol))
    else:
        rng = derive_rng(0, 29)
        ia = rng.integers(0, ys.size, size=_PAIR_SAMPLES)
        ib = rng.integers(0, ys.size, size=_PAIR_SAMPLES)
        inter = (row_masks[ia] & row_masks[ib]).sum(axis=1)
        dev_ii = np.abs(inter - delta * delta * b0)
        fail_ii = float(np.mean(dev_ii > tol))
    pass_ii = fail_ii <= eta_f + 1e-12
    return QRCheck(delta, pass_i, pass_ii, fail_i, fail_ii, sampled)


# -- algebraic regularity partition ---------------------------------------------


@dataclass(frozen=True)
class RegularityCell:
    progression: CosetProgression
    rho: Fraction
    delta: float
    eta_achieved: float
    certified: bool
    sampled: bool


@dataclass(frozen=True)
class RegularityResult:
    cells: tuple[RegularityCell, ...]
    certified: bool
    steps: int
    relation_lattice: IntegerLattice


def _rho_candidates(rho: Fraction, eta: Fraction) -> list[Fraction]:
    """Grid rho - j eta^2 rho / 1000 for j in [0, 500 eta^-2], <= _RHO_GRID_CAP points."""
    rho, eta = Fraction(rho), Fraction(eta)
    j_max = math.ceil(500 / (eta * eta))
    if j_max + 1 <= _RHO_GRID_CAP:
        js = list(range(j_max + 1))
    else:
        js = sorted({j_max * t // (_RHO_GRID_CAP - 1) for t in range(_RHO_GRID_CAP)})
    return [rho - j * eta * eta * rho / 1000 for j in js]


@dataclass
class _QState:
    """Shrinking progression Q_s tracked through strides over C's arms."""

    strides: list[int]
    halves: list[int]
    subgroup: GroupSubset  # the subgroup part of a verified progression

    def progression(self, c: CosetProgression) -> CosetProgression:
        arms = tuple(
            Arm(s * arm.generator, -m, m)
            for arm, s, m in zip(c.arms, self.strides, self.halves)
        )
        return CosetProgression._derived(c.group, c.group.zero, arms, self.subgroup)


def _grid_cells(c: CosetProgression, q: _QState) -> list[CosetProgression]:
    """Partition C compatibly with translates of the half-shrunk Q_s.

    Arm positions split by residue modulo the stride and then into blocks
    of at most max(1, M_j) stride steps, so each cell minus itself lands
    inside Q_s; the subgroup part splits into cosets of H_s.
    """
    group = c.group
    per_arm: list[list[tuple[int, int, int]]] = []  # (start, stride, count)
    for arm, s, m in zip(c.arms, q.strides, q.halves):
        width = max(1, m)
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
    vanishing coefficient vector of the maps, shrink Q_s through its
    Freiman-subgroup and repartition.  The relation lattice grows strictly
    inside the box [-b, b]^r, b = ``_RELATION_BOX``, so the step count obeys
    the chain-monitor budget; cells still failing at the cap are flagged
    rather than forced.
    """
    if not c.is_symmetric or not c.is_proper():
        raise PreconditionError("C must be a proper symmetric coset progression")
    rho, eta = Fraction(rho), Fraction(eta)
    candidates = _rho_candidates(rho, eta)
    q = _QState([1] * c.rank, [arm.hi for arm in c.arms], c.subgroup)
    lattice = IntegerLattice(len(maps))
    budget = chain_monitor(max(1, len(maps)), _RELATION_BOX)
    steps = 0
    single_first = True
    while True:
        partition = [c] if single_first else _grid_cells(c, q)
        cells: list[RegularityCell] = []
        all_pass = True
        for cell in partition:
            chosen: Optional[RegularityCell] = None
            last: Optional[QRCheck] = None
            for rho_c in candidates:
                res = qr_property_check(cell, gamma, maps, rho_c, eta, group_x)
                last = res
                if res.pass_i and res.pass_ii:
                    chosen = RegularityCell(
                        cell,
                        rho_c,
                        res.delta,
                        max(res.fail_fraction_i, res.fail_fraction_ii),
                        True,
                        res.sampled,
                    )
                    break
            if chosen is None:
                all_pass = False
                cells.append(
                    RegularityCell(
                        cell,
                        candidates[0],
                        last.delta,
                        max(last.fail_fraction_i, last.fail_fraction_ii),
                        False,
                        last.sampled,
                    )
                )
            else:
                cells.append(chosen)
        if all_pass:
            return RegularityResult(tuple(cells), True, steps, lattice)
        if single_first:
            single_first = False
            continue
        if steps >= step_cap or steps >= budget:
            return RegularityResult(tuple(cells), False, steps, lattice)
        qprog = q.progression(c)
        lam = _extract_relation(qprog, maps, lattice, _RELATION_BOX)
        if lam is None:
            return RegularityResult(tuple(cells), False, steps, lattice)
        # Freiman-subgroup of Q_s where the relation vanishes
        dual = maps[0].codomain
        zs = qprog.enumerate().indices()
        acc = sum(coef * dual.coords_matrix[m.at(zs)] for coef, m in zip(lam, maps))
        vanish = np.all(acc % np.asarray(dual.moduli) == 0, axis=1)
        fset = GroupSubset.from_indices(c.group, zs[vanish])
        alpha = Fraction(fset.size, qprog.size)
        ext = extract_subprogression(fset, qprog, alpha)
        q = _QState(
            [s * ell for s, ell in zip(q.strides, ext.ells)],
            [arm.hi for arm in ext.progression.arms],
            ext.progression.subgroup,
        )
        lattice = lattice.with_row(lam)
        steps += 1


# -- the linear covering loop ----------------------------------------------------


_FINDER_MIN_AGREE = 3  # the map finder's defaults, also used by linear_cover
_FINDER_DIRECTIONS = 64
_PAIR_TABLE = 1 << 20  # entries of each difference table linear_cover keeps


@dataclass(frozen=True)
class CoverResult:
    maps: tuple[FreimanMap, ...]
    rounds: int
    condition_fraction: float
    complete: bool


def linear_cover(
    y_set: GroupSubset,
    dual: FiniteAbelianGroup,
    u: np.ndarray,
    rounds_cap: int = 16,
    seed: int = 0,
    *,
    samples: int = 10_000,
) -> CoverResult:
    """Cover bounded character sets U_y by values of few Freiman maps.

    Iterates while the triple condition
    ``(U_{y+z} - U_z) cap (U_{y+w} - U_w) not subset (U'_{y+z} - U'_z) + (U'_{y+w} - U'_w)``
    holds on an estimated alpha^4/2 fraction of (y, z, w); each round draws
    a random table f(y) in U_y and asks the homomorphism finder for a map
    agreeing with it on uncovered values.  Maps that cover nothing new are
    discarded; the zero map is always present.  U is the boolean
    (|H|, |dual|) mask with row y the value set U_y of y in Y (each holding
    the zero character 0), and the covered sets U' are a mask alike.

    The estimate keeps the samples whose z and w lie in Y, then those whose
    y + z and y + w do, and dedupes the quads (y+z, z, y+w, w) with one 1-D
    ``np.unique`` on an int64 key.  The rows U_a - U_b and U'_a - U'_b of
    the pairs (a, b) that occur come from tables kept across rounds (batched
    exact real-FFT sumsets, ``groups._convolution_counts``): a
    U_a - U_b row depends only on U, so it is computed the first round its
    pair appears, and a U'_a - U'_b row is computed again only after a round
    adds a map that covers a new value of U_a or U_b.  The two covered
    differences are summed only for quads whose left side is not inside
    either of them (both hold 0).  Each round's table f is one draw with an
    array of bounds, the same stream as one draw per y.  The finder's line
    table (``_line_table``) is built once for Y, the first round that fits;
    each round fits its points from the table's columns (``_fit_lines``), as
    ``exhaustive_hom_finder`` would with its default settings.
    """
    h = y_set.group
    y_idx = y_set.indices()
    u = np.asarray(u, dtype=bool)
    if u.shape != (h.order, dual.order) or not u[y_idx, 0].all():
        raise PreconditionError("U must be an (|H|, |dual|) mask with 0 in every U_y")
    if y_idx.size == 0:
        return CoverResult((), 0, 0.0, True)
    zero_map = FreimanMap(
        CosetProgression.whole_group(h), dual, np.zeros(h.order, dtype=np.int64)
    )
    maps: list[FreimanMap] = [zero_map]
    covered = np.zeros_like(u)
    covered[y_idx, 0] = True
    alpha = y_set.size / h.order
    threshold = alpha**4 / 2
    neg = dual.negation_permutation
    u_neg = u[:, neg]  # u_neg[y] is -U_y
    rows_per_block = max(1, (1 << 18) // dual.order)
    lines = None  # the finder's line table for Y, built on first use
    sizes = u[y_idx].sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    options = np.nonzero(u[y_idx])[1]  # U_y for each y of Y in turn, ascending
    # per table: the sorted pair keys a |H| + b and their rows
    kept = {
        name: (np.zeros(0, dtype=np.int64), np.zeros((0, dual.order), dtype=bool))
        for name in ("u", "covered")
    }

    def difference_rows(name: str, pairs: np.ndarray) -> np.ndarray:
        """Row p: X_a - X_b for the sorted pair keys ``pairs`` (X = U or U'),
        from the kept table where it has them; new rows join the table while
        it stays within ``_PAIR_TABLE`` entries."""
        keys, table = kept[name]
        known = np.isin(pairs, keys, assume_unique=True)
        rows = np.empty((pairs.size, dual.order), dtype=bool)
        rows[known] = table[np.searchsorted(keys, pairs[known])]
        todo = pairs[~known]
        if todo.size:
            a, b = np.divmod(todo, h.order)
            left, right = (u, u_neg) if name == "u" else (covered, covered[:, neg])
            rows[~known] = _convolution_counts(dual, left[a], right[b]) > 0
            if (keys.size + todo.size) * dual.order <= _PAIR_TABLE:
                keys = np.concatenate([keys, todo])
                order = np.argsort(keys)
                kept[name] = keys[order], np.concatenate([table, rows[~known]])[order]
        return rows

    def condition_fraction(rng) -> float:
        ys, zs, ws = (rng.integers(0, h.order, size=samples) for _ in range(3))
        in_y = np.flatnonzero(y_set.mask[zs] & y_set.mask[ws])
        ys, zs, ws = ys[in_y], zs[in_y], ws[in_y]
        yz, yw = h.add_indices(ys, zs), h.add_indices(ys, ws)
        keep = y_set.mask[yz] & y_set.mask[yw]
        # a sample's pairs (y+z, z) and (y+w, w) are keyed a |H| + b and
        # ranked; its quad is keyed by the two ranks, so one 1-D unique tests
        # each distinct (y+z, z, y+w, w) once, weighted by its count
        n_quads = int(keep.sum())
        pairs, pair_of = np.unique(
            np.concatenate([yz[keep], yw[keep]]) * h.order
            + np.concatenate([zs[keep], ws[keep]]),
            return_inverse=True,
        )
        quads, weight = np.unique(
            pair_of[:n_quads] * pairs.size + pair_of[n_quads:], return_counts=True
        )
        hits = 0
        step = max(1, rows_per_block // 2)  # a block's pairs fit one table
        for start in range(0, quads.size, step):
            blk = quads[start : start + step]
            ids, slot = np.unique(
                np.concatenate([blk // pairs.size, blk % pairs.size]), return_inverse=True
            )
            left, right = slot[: blk.size], slot[blk.size :]
            cov = difference_rows("covered", pairs[ids])  # row p: U'_a - U'_b
            # both covered differences hold 0, so their sum holds each of them
            # and only the rest of the left side needs the sumset:
            # (U_a - U_b) minus (U'_a - U'_b), on both sides
            rest = difference_rows("u", pairs[ids]) & ~cov
            need = rest[left] & rest[right]
            open_rows = np.flatnonzero(need.any(axis=1))
            if open_rows.size:
                rhs = _convolution_counts(dual, cov[left[open_rows]], cov[right[open_rows]])
                missed = np.any(need[open_rows] & (rhs == 0), axis=1)
                hits += int(weight[start : start + step][open_rows[missed]].sum())
        return hits / samples

    rounds = 0
    frac = 1.0
    for rounds in range(rounds_cap + 1):
        frac = condition_fraction(derive_rng(seed, 1000 + rounds))
        if frac < threshold:
            return CoverResult(tuple(maps), rounds, frac, True)
        if rounds == rounds_cap:
            break
        # one uniform draw from each U_y in turn, the same stream as a draw
        # per y; a covered pick leaves y without a point (-1)
        picks = options[starts + derive_rng(seed, 2000 + rounds).integers(0, sizes)]
        points = np.where(covered[y_idx, picks], -1, picks)  # a value per point of Y
        sel = np.flatnonzero(points >= 0)  # positions in Y of this round's points
        if sel.size == 0:
            continue
        if lines is None:
            lines = _line_table(h, y_idx, _FINDER_DIRECTIONS)
        directions, reps, k_of = lines
        cand = _fit_lines(
            h, dual, directions, reps[:, sel], k_of[:, sel], points[sel], _FINDER_MIN_AGREE
        )
        if cand is None:
            continue
        vals = cand.values[y_idx]
        rows, cols = y_idx[vals >= 0], vals[vals >= 0]
        gained = u[rows, cols] & ~covered[rows, cols]
        if np.any(gained):
            covered[rows[gained], cols[gained]] = True
            # U'_a - U'_b is stale where U'_a or U'_b grew; the other rows stay
            keys, table = kept["covered"]
            a, b = np.divmod(keys, h.order)
            fresh = ~np.isin(a, rows[gained]) & ~np.isin(b, rows[gained])
            kept["covered"] = keys[fresh], table[fresh]
            maps.append(cand)
    return CoverResult(tuple(maps), rounds, frac, False)


def exhaustive_hom_finder(
    group: FiniteAbelianGroup,
    dual: FiniteAbelianGroup,
    points: np.ndarray,
    *,
    min_agree: int = _FINDER_MIN_AGREE,
    direction_cap: int = _FINDER_DIRECTIONS,
) -> Optional[FreimanMap]:
    """Desk-scale Freiman-map finder: affine fits along cyclic lines.

    ``points`` is a value array over ``group`` (-1 where there is no sample).
    Scans directions v (bounded set), buckets the sample points into
    cosets of <v>, and for the best-populated line fits t(anchor + k v) =
    t0 + k w by exhausting w over the dual.  Returns a recentred map on a
    proper progression of length ceil(ord(v)/2), or None when nothing
    reaches ``min_agree`` agreements.

    It is the line table of its points (``_line_table``) followed by the
    fit (``_fit_lines``); ``linear_cover`` builds the table once for all of
    Y and fits each round's points from its columns.
    """
    pts_idx = np.flatnonzero(points >= 0)
    if pts_idx.size == 0:
        return None
    directions, reps, k_of = _line_table(group, pts_idx, direction_cap)
    return _fit_lines(group, dual, directions, reps, k_of, points[pts_idx], min_agree)


def _line_table(
    group: FiniteAbelianGroup, ys: np.ndarray, direction_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The finder's directions and the lines of the points ``ys`` along them.

    Directions: the unit vectors, then the indices 1..direction_cap.  For
    direction d and point j, ``reps[d, j]`` is the line representative of
    y_j, the smallest index of y_j - k v_d over k below the exponent, and
    ``k_of[d, j]`` the first such k: past ord(v) the shifts repeat and
    argmin keeps the first minimum, so k < ord(v).  A block of directions
    keeps its temporaries near 2^18 entries, or one direction's worth when
    that is larger.
    """
    units = [
        group.element(tuple(1 if j == i else 0 for j in range(group.rank))).index
        for i in range(group.rank)
    ]
    directions = units + [
        idx for idx in range(1, min(group.order, direction_cap + 1)) if idx not in units
    ]
    directions = np.asarray([idx for idx in directions if idx != 0], dtype=np.int64)
    ks = np.arange(group.exponent)
    coords = group.coords_matrix[ys]
    reps = np.empty((directions.size, ys.size), dtype=np.int64)
    k_of = np.empty_like(reps)
    block = max(1, (1 << 18) // max(1, ks.size * ys.size * group.rank))
    for start in range(0, directions.size, block):
        vs = directions[start : start + block]
        v_coords = group.coords_matrix[vs][:, None, None]
        # shifts[d, k, j] = y_j - k v_d; its minimum over k is y_j's line
        shifts = group.index_of_coords(coords[None, None] - ks[:, None, None] * v_coords)
        reps[start : start + block] = shifts.min(axis=1)
        k_of[start : start + block] = shifts.argmin(axis=1)
    return directions, reps, k_of


def _fit_lines(
    group: FiniteAbelianGroup,
    dual: FiniteAbelianGroup,
    directions: np.ndarray,
    reps: np.ndarray,
    k_of: np.ndarray,
    values: np.ndarray,
    min_agree: int,
) -> Optional[FreimanMap]:
    """The finder's fit from a line table (``_line_table``) and the value
    of each of its points.

    Every direction of a block is scored at once.  Each direction's line is
    the most populated (``bincount``; the smallest representative on ties),
    anchored at its point of smallest k, and every (direction, w) agreement
    is counted together.  Ties keep the first w, then the first direction
    reaching the maximum.  A block's temporaries stay near 2^18 entries, or
    one direction's worth when that is larger.
    """
    n = values.size
    dual_coords = dual.coords_matrix
    block = max(1, (1 << 18) // (group.order + n * dual.order * dual.rank))
    best = None  # (agreement, v, line_rep, k0, t0, w)
    for start in range(0, directions.size, block):
        vs = directions[start : start + block]
        rep, k_blk = reps[start : start + block], k_of[start : start + block]
        rows = np.arange(vs.size)
        line_size = np.bincount(
            (rows[:, None] * group.order + rep).reshape(-1), minlength=vs.size * group.order
        ).reshape(vs.size, group.order)
        line_rep = line_size.argmax(axis=1)
        on_line = rep == line_rep[:, None]
        anchor = np.where(on_line, k_blk, group.exponent).argmin(axis=1)
        k0, t0 = k_blk[rows, anchor], values[anchor]
        steps = k_blk - k0[:, None]
        # agree[d, w] = #{j on line d : t0 + (k_j - k0) w == value_j}, where
        # t0 + s w == value iff s w == value - t0; the multiples s w come from
        # one table over the distinct steps s
        target = dual.add_indices(values[None, :], dual.negation_permutation[t0][:, None])
        uniq, inv = np.unique(steps, return_inverse=True)
        mult = dual.index_of_coords(uniq[:, None, None] * dual_coords[None])
        hit = mult[inv.reshape(steps.shape)] == target[:, :, None]
        agree = (hit & on_line[:, :, None]).sum(axis=1)
        w = agree.argmax(axis=1)
        top = agree[rows, w]  # at most the line's size, so short lines never pass
        d = int(top.argmax())
        if best is None or top[d] > best[0]:
            v = group.element_from_index(int(vs[d]))
            best = (int(top[d]), v, int(line_rep[d]), int(k0[d]), int(t0[d]), int(w[d]))
    if best is None or best[0] < min_agree:
        return None
    _, v, line_rep, k0, t0, w = best
    length = -(-v.order // 2)  # no wraparound: differences stay decodable
    anchor = group.element_from_index(line_rep) + k0 * v
    # {0} is a subgroup, so the constructor's is_subgroup convolution is skipped
    prog = CosetProgression._derived(
        group, anchor, (Arm(v, 0, length - 1),), GroupSubset.from_indices(group, [0])
    )
    ks = np.arange(length)[:, None]
    values = np.full(group.order, -1, dtype=np.int64)
    values[group.index_of_coords(np.asarray(anchor.coords) + ks * v.coords)] = (
        dual.index_of_coords(dual_coords[t0] + ks * dual_coords[w])
    )
    return FreimanMap(prog, dual, values, order=2)


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


def _bohr_inside(gx: FiniteAbelianGroup, allowed: GroupSubset) -> Optional[BohrSet]:
    """Verified Bohr subset of a symmetric set containing 0, size >= 2.

    Tries cyclic subgroups as Bohr sets (``subgroup_bohr_set``), then level
    sets of the single characters of index below 4096 (``char_distances``);
    returns the largest hit.
    """
    if allowed.size == gx.order:
        return BohrSet(gx, (), Fraction(1, 2))
    best: Optional[BohrSet] = None

    def consider(cand: BohrSet):
        nonlocal best
        enum = cand.enumerate()
        if enum.size >= 2 and enum.is_subset_of(allowed):
            if best is None or enum.size > best.enumerate().size:
                best = cand

    e = gx.exponent
    for xi in allowed.indices()[:16]:
        xi = int(xi)
        if xi == 0:
            continue
        cyc = subgroup_generated(gx, [gx.element_from_index(xi)])
        if cyc.is_subset_of(allowed):
            consider(subgroup_bohr_set(cyc))
    dual = gx.dual
    nonzero = np.asarray([i for i in allowed.indices() if i != 0][:4], dtype=np.int64)
    chars = np.arange(1, min(dual.order, 4096), dtype=np.int64)
    block = max(1, (1 << 16) // (gx.order * max(1, nonzero.size)))
    for start in range(0, chars.size, block):
        # level sets {dist <= dist[xi]} of a block of characters at once
        dist = char_distances(gx, chars[start : start + block])
        radii = dist[:, nonzero]
        levels = dist[:, None, :] <= radii[:, :, None]
        fits = (levels.sum(axis=2) >= 2) & ~np.any(levels & ~allowed.mask, axis=2)
        for row, col in np.argwhere(fits):
            chi = dual.element_from_index(int(chars[start + row]))
            consider(BohrSet(gx, (chi,), Fraction(int(radii[row, col]), e)))
    return best


_ARM_BLOCK = 1 << 18  # coordinate entries of the column arm's multiples per block


def _column_arm(group: FiniteAbelianGroup, column: np.ndarray) -> Optional[tuple[int, int]]:
    """The longest arm g, 2g, ..., mg inside ``column`` (a mask over
    ``group``), as (index of g, m) with m >= 1, or None.

    For each nonzero g in the column, m is the first k >= 1 with k g outside
    the column or k g = 0, less one; the first g (by index) with the largest
    m wins.  All multiples k g, k = 1..exponent, are one index array per
    block of generators (about ``_ARM_BLOCK`` coordinates); k = ord(g)
    always stops.
    """
    gens = np.flatnonzero(column)
    gens = gens[gens != 0]
    ks = np.arange(1, group.exponent + 1)[None, :, None]
    best = None
    block = max(1, _ARM_BLOCK // (ks.size * group.rank))
    for start in range(0, gens.size, block):
        g = gens[start : start + block]
        multiples = group.index_of_coords(ks * group.coords_matrix[g][:, None, :])
        runs = (~column[multiples] | (multiples == 0)).argmax(axis=1)
        i = int(runs.argmax())
        if runs[i] >= 1 and (best is None or runs[i] > best[1]):
            best = (int(g[i]), int(runs[i]))
    return best


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

    The search ladder: the full product, progressions over full or dense
    rows with a Bohr witness on the common row-set, covering maps fitted to
    the per-row Bogolyubov spectra, then a column progression through 0 and
    the pinned single point (0, y0) as floor, y0 the first point of D's
    zero column; when that column is empty no variety fits, since every
    Bohr row contains x = 0.  Every candidate is gated by the
    exact containment verifier, and the largest verified variety wins.

    The dense rows come from one pass over the row sums, and their
    Bogolyubov spectra from one batched call (``fourier._bogolyubov_spectra``);
    each row's value set is the zero character and at most seven nonzero
    frequencies, one row of the mask U that ``linear_cover`` takes.  The
    column arm scores every element of the zero column at once
    (``_column_arm``).
    """
    check_seed(seed)
    start = time.monotonic()
    a = sample_biset(gx, gy, delta, seed)
    d = iterated_difference(a, word)
    pin = pinned_bohr_set(gx)
    trivial_sub = GroupSubset.from_indices(gy, [0])
    candidates: list[BilinearVariety] = []

    def consider(v: BilinearVariety) -> bool:
        if variety_contained_in(v, d):
            candidates.append(v)
            return True
        return False

    # full product
    full_ok = consider(
        BilinearVariety(
            gx, (), Fraction(1, 2), CosetProgression.whole_group(gy), ()
        )
    )
    if not full_ok:
        # rows of D that are all of G
        full_rows = GroupSubset(gy, np.all(d.matrix, axis=1))
        if 0 in full_rows and full_rows.size > 0:
            prog = grow_progression_inside(full_rows, rank_cap=2)
            consider(BilinearVariety(gx, (), Fraction(1, 2), prog, ()))
        # dense-row progression with a Bohr witness on the common rows
        col0 = d.column(gx.zero)
        if 0 in col0 and col0.size >= 1:
            prog = grow_progression_inside(col0, rank_cap=2)
            common = np.ones(gx.order, dtype=bool)
            for yi in prog.enumerate().indices():
                common &= d.matrix[int(yi)]
            witness = _bohr_inside(gx, GroupSubset(gx, common))
            if witness is not None:
                consider(
                    BilinearVariety(
                        gx, witness.frequencies, witness.radius, prog, ()
                    )
                )
        # covering maps fitted to per-row Bogolyubov spectra
        if search_budget > 0:
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
                cover = linear_cover(yset, dual, u, rounds_cap=search_budget, seed=seed)
                for fmap in cover.maps[1:]:
                    dom = fmap.domain
                    # recentre at 0, shifting values by the one at the
                    # smallest domain index
                    base_val = int(fmap.at(dom.enumerate().indices()[0]))
                    recentred = dom.translate(-dom.base)
                    idx = recentred.enumerate().indices()
                    src = gy.add_indices(idx, np.full(idx.size, dom.base.index))
                    values = np.full(gy.order, -1, dtype=np.int64)
                    values[idx] = dual.add_indices(
                        fmap.at(src),
                        np.full(idx.size, dual.negation_permutation[base_val]),
                    )
                    lmap = FreimanMap(recentred, dual, values, order=2)
                    for rho_c in (Fraction(1, 4), Fraction(1, 8)):
                        consider(
                            BilinearVariety(
                                gx,
                                (dual.element_from_index(base_val),),
                                rho_c,
                                recentred,
                                (lmap,),
                            )
                        )
        # column progression through 0 with pinned x = 0
        best_arm = _column_arm(gy, d.matrix[:, 0])
        if best_arm is not None:
            g, m = gy.element_from_index(best_arm[0]), best_arm[1]
            prog = CosetProgression(gy, gy.zero, (Arm(g, 0, m),), trivial_sub)
            if prog.is_proper():
                consider(BilinearVariety(gx, pin.frequencies, pin.radius, prog, ()))
    # floor: the single pinned point (0, y0)
    zero_column = d.column(gx.zero).indices()
    if zero_column.size:
        y0 = gy.element_from_index(zero_column[0])
        consider(
            BilinearVariety(gx, pin.frequencies, pin.radius, CosetProgression.singleton(y0), ())
        )
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
