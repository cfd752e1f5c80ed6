"""Coset progressions and Freiman homomorphisms.

A coset progression is ``base + [lo_1, hi_1] v_1 + ... + [lo_r, hi_r] v_r + H``
with ``H`` a verified subgroup stored as an explicit subset.  It is proper
when the enumeration size matches the formal product, and symmetric when
the base is 0 and every interval is ``[-N, N]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import intmat
from .errors import (
    GroupMismatchError,
    PreconditionError,
    TheoremViolationError,
)
from .fourier import quadruple_count_all
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    _coefficient_grid,
    _combination_indices,
    _convolution_counts,
    fold_multiples,
    invariant_factors,
    is_basis,
    is_subgroup,
    subgroup_generated,
    subgroup_generators,
)

_GROW_BLOCK = 1 << 18  # index-row entries per block of growth candidates
_PAIR_BLOCK = 1 << 22  # pair entries per block of the Freiman-subgroup check
_SUM_BLOCK = 1 << 20  # graph-sum entries per block of the Freiman check
_TRANSLATE_TRIES = 8  # best-overlap translates tried per refinement candidate
_CANDIDATE_CAP = 512  # growth candidates scanned by grow_progression_inside


class Arm(NamedTuple):
    generator: GroupElement
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True, eq=False)
class CosetProgression:
    group: FiniteAbelianGroup
    base: GroupElement
    arms: tuple[Arm, ...]
    subgroup: GroupSubset

    def __post_init__(self):
        self._check_parts()
        if not is_subgroup(self.subgroup):
            raise PreconditionError("subgroup part is not a verified subgroup")

    def _check_parts(self) -> None:
        if self.base.group is not self.group:
            raise GroupMismatchError("base element from a different group")
        for arm in self.arms:
            if arm.generator.group is not self.group:
                raise GroupMismatchError("arm generator from a different group")
            if arm.lo > arm.hi:
                raise ValueError("arm interval is empty")
        if self.subgroup.group is not self.group:
            raise GroupMismatchError("subgroup from a different group")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _derived(
        cls,
        group: FiniteAbelianGroup,
        base: GroupElement,
        arms: tuple[Arm, ...],
        subgroup: GroupSubset,
    ) -> "CosetProgression":
        """Construction from a subgroup object that is already verified.

        Derivations (translates, grown or halved arms, grid cells) reuse
        the subgroup of an existing progression, so the ``is_subgroup``
        convolution of the public constructor is skipped; the groups of
        the base, the arms and the subgroup and the arm intervals are
        still checked.
        """
        prog = object.__new__(cls)
        # bypasses the frozen __setattr__ and __post_init__, not the checks
        vars(prog).update(group=group, base=base, arms=arms, subgroup=subgroup)
        prog._check_parts()
        return prog

    @classmethod
    def whole_group(cls, group: FiniteAbelianGroup) -> "CosetProgression":
        return cls(group, group.zero, (), GroupSubset.full(group))

    @classmethod
    def singleton(cls, x: GroupElement) -> "CosetProgression":
        return cls(x.group, x, (), GroupSubset.from_indices(x.group, [0]))

    @classmethod
    def symmetric(
        cls, group: FiniteAbelianGroup, arms: Sequence[tuple[GroupElement, int]]
    ) -> "CosetProgression":
        """0 + sum [-n_i, n_i] g_i over the pairs (g_i, n_i), with subgroup
        part {0}."""
        return cls(
            group,
            group.zero,
            tuple(Arm(gen, -n, n) for gen, n in arms),
            GroupSubset.from_indices(group, [0]),
        )

    # -- structure ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.arms)

    @property
    def formal_size(self) -> int:
        return math.prod(arm.length for arm in self.arms) * self.subgroup.size

    @property
    def is_symmetric(self) -> bool:
        return self.base.is_zero and all(arm.lo == -arm.hi for arm in self.arms)

    @cached_property
    def _mask(self) -> np.ndarray:
        acc = self.subgroup.translate(self.base)
        for arm in self.arms:
            acc = fold_multiples(acc, arm.generator, arm.lo, arm.hi)
        return acc.mask

    def enumerate(self) -> GroupSubset:
        return GroupSubset(self.group, self._mask)

    @property
    def size(self) -> int:
        return int(self._mask.sum())

    def is_proper(self) -> bool:
        return self.size == self.formal_size

    def translate(self, t: GroupElement) -> "CosetProgression":
        return CosetProgression._derived(
            self.group, self.base + t, self.arms, self.subgroup
        )

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(elements, coefficients, subgroup)`` int64 arrays with
        ``elements[i] = base + sum_j coefficients[i, j] v_j + subgroup[i]``,
        coefficient rows in ``itertools.product`` order, each once per
        subgroup element.

        Only meaningful for proper progressions (raises on a collision, read
        off the cached enumeration: its size falls short of the formal size).
        """
        if not self.is_proper():
            raise PreconditionError("progression is not proper")
        sub_idx = self.subgroup.indices()
        coeffs = _coefficient_grid([range(arm.lo, arm.hi + 1) for arm in self.arms])
        gens = [arm.generator for arm in self.arms]
        offsets = _combination_indices(self.group, coeffs, gens, self.base)
        elements = self.group.add_indices(offsets[:, None], sub_idx).reshape(-1)
        return elements, np.repeat(coeffs, sub_idx.size, axis=0), np.tile(sub_idx, offsets.size)


def is_freiman_subgroup(a: GroupSubset, b: GroupSubset) -> bool:
    """Whenever x, y in A and x - y in B, also x - y in A (exhaustive)."""
    a._check(b)
    if not a.is_subset_of(b):
        raise PreconditionError("A must be a subset of B")
    idx = a.indices()
    if idx.size == 0:
        return True
    group = a.group
    neg = group.negation_permutation
    neg_idx = neg[idx]
    rows_per_block = max(1, _PAIR_BLOCK // idx.size)
    for start in range(0, idx.size, rows_per_block):
        block = idx[start : start + rows_per_block]
        diffs = group.add_indices(
            np.repeat(block, neg_idx.size), np.tile(neg_idx, block.size)
        )
        bad = b.mask[diffs] & ~a.mask[diffs]
        if np.any(bad):
            return False
    return True


@dataclass(frozen=True)
class ExtractionResult:
    progression: CosetProgression
    ells: tuple[int, ...]


def extract_subprogression(
    a: GroupSubset, c: CosetProgression, alpha: Fraction
) -> ExtractionResult:
    """Structured sub-progression of a dense Freiman-subgroup of ``c``.

    Per arm, finds the smallest stride ``l <= 2 ceil(1/alpha)`` with
    ``l v in A`` (guaranteed by the fiber-pigeonhole argument when the arm
    is long); short arms degrade to stride ``floor(20/alpha)`` with a zero
    interval.  The subgroup part is ``A intersect H``.  All conclusion
    clauses are verified before returning.
    """
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise PreconditionError("alpha must be in (0, 1]")
    if not c.is_symmetric:
        raise PreconditionError("progression must be symmetric")
    if not c.is_proper():
        raise PreconditionError("progression must be proper")
    cmask = c.enumerate()
    if not a.is_subset_of(cmask):
        raise PreconditionError("A must sit inside the progression")
    if a.size < alpha * cmask.size:
        raise PreconditionError("A is below the requested density")
    if not is_freiman_subgroup(a, cmask):
        raise PreconditionError("A is not a Freiman-subgroup of the progression")
    group = c.group
    search_cap = 2 * math.ceil(1 / alpha)
    fallback_ell = int(20 / alpha)
    ells: list[int] = []
    new_arms: list[Arm] = []
    for arm in c.arms:
        n = arm.hi
        # the strides l with l v in A, from the multiples l = 1..min(cap, n)
        steps = np.arange(1, min(search_cap, n) + 1)[:, None]
        hits = np.flatnonzero(a.mask[_combination_indices(group, steps, [arm.generator])]) + 1
        ell = int(hits[0]) if hits.size else max(1, fallback_ell)
        m = n // ell if hits.size else 0
        ells.append(ell)
        new_arms.append(Arm(ell * arm.generator, -m, m))
    h_prime = a & c.subgroup
    if not is_subgroup(h_prime):
        raise TheoremViolationError("A intersect H failed to be a subgroup")
    if h_prime.size < alpha * c.subgroup.size:
        raise TheoremViolationError("subgroup part below the guaranteed density")
    result = CosetProgression._derived(group, group.zero, tuple(new_arms), h_prime)
    if any(ell > 20 / alpha for ell in ells):
        raise TheoremViolationError("stride exceeded 20/alpha")
    if not result.enumerate().is_subset_of(a):
        raise TheoremViolationError("extracted progression escaped A")
    return ExtractionResult(result, tuple(ells))


# -- bases -------------------------------------------------------------------


def change_basis(
    group: FiniteAbelianGroup,
    basis: Sequence[GroupElement],
    move: tuple,
) -> list[GroupElement]:
    """Apply a basis move; kinds (0-based indices, orders n_1 | ... | n_r):

    ("upper", i, j, lam): i < j, x_i <- x_i - lam (n_j / n_i) x_j
    ("lower", i, j, lam): i > j, x_i <- x_i - lam x_j
    ("unit", i, lam):     gcd(lam, n_i) = 1, x_i <- lam x_i
    """
    basis = list(basis)
    orders = [x.order for x in basis]
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise PreconditionError("basis orders must form a divisibility chain")
    kind = move[0]
    if kind == "upper":
        _, i, j, lam = move
        if not 0 <= i < j < len(basis):
            raise PreconditionError("upper move needs i < j")
        basis[i] = basis[i] - lam * (orders[j] // orders[i]) * basis[j]
    elif kind == "lower":
        _, i, j, lam = move
        if not 0 <= j < i < len(basis):
            raise PreconditionError("lower move needs i > j")
        basis[i] = basis[i] - lam * basis[j]
    elif kind == "unit":
        _, i, lam = move
        if not 0 <= i < len(basis):
            raise PreconditionError("index out of range")
        if math.gcd(lam, orders[i]) != 1:
            raise PreconditionError("unit move scalar must be coprime to the order")
        basis[i] = lam * basis[i]
    else:
        raise PreconditionError(f"unknown move kind {kind!r}")
    if [x.order for x in basis] != orders:
        raise TheoremViolationError("basis move changed element orders")
    if not is_basis(group, basis):
        raise TheoremViolationError("basis move destroyed the basis property")
    return basis


def subgroup_basis(
    group: FiniteAbelianGroup, subgroup: GroupSubset
) -> tuple[list[int], list[GroupElement]]:
    """Invariant-factor basis of a subgroup given as a subset.

    Lifts the subgroup to a full-rank lattice in Z^d, expresses the
    relation lattice in a lattice basis and reads the decomposition off
    the Smith form.
    """
    if not is_subgroup(subgroup):
        raise PreconditionError("input is not a verified subgroup")
    g = group
    d = g.rank
    gens = subgroup_generators(subgroup)
    rows = [list(e.coords) for e in gens]
    rows += [[g.moduli[i] if j == i else 0 for j in range(d)] for i in range(d)]
    basis_rows, _ = intmat.row_hermite(rows)
    if len(basis_rows) != d:
        raise TheoremViolationError("lifted subgroup lattice is not full rank")
    # relation lattice Q = moduli * Z^d expressed over the lattice basis:
    # with U A V = D, the rows of V^-1 @ basis_rows are a basis of the
    # lifted lattice adapted to Q, and the quotient is the sum of Z/D[i][i]
    rel = []
    for i in range(d):
        target = [g.moduli[i] if j == i else 0 for j in range(d)]
        coeffs = intmat.solve_row_lattice(target, basis_rows)
        if coeffs is None:
            raise TheoremViolationError("relation lattice escaped the lifted lattice")
        rel.append(coeffs)
    dmat, _, vmat = intmat.smith_normal_form(rel)
    v_inv = intmat.unimodular_inverse(vmat)
    factors: list[int] = []
    basis: list[GroupElement] = []
    for i in range(d):
        order = dmat[i][i]
        if order == 1:
            continue
        vec = [0] * d
        for j in range(d):
            coef = v_inv[i][j]
            if coef:
                for t in range(d):
                    vec[t] += coef * basis_rows[j][t]
        factors.append(order)
        basis.append(g.element(vec))
    pairs = sorted(zip(factors, basis), key=lambda p: p[0])
    return [p[0] for p in pairs], [p[1] for p in pairs]


# -- Freiman homomorphisms ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class FreimanMap:
    """Tabulated map on a coset progression.

    ``values`` is an int64 array over the domain's group: the codomain index
    of the image at every domain element, -1 everywhere else.
    """

    domain: CosetProgression
    codomain: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.int64)
        if not np.array_equal(vals >= 0, self.domain.enumerate().mask):
            raise PreconditionError("values must be defined exactly on the progression")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x) -> GroupElement:
        return self.codomain.element_from_index(self.at(x))

    def at(self, x):
        """Codomain indices at element index/indices ``x``; raises outside the domain."""
        x = x.index if isinstance(x, GroupElement) else x
        if np.any(np.asarray(x) < 0):
            raise ValueError("element index out of range")
        out = self.values[x]
        if np.any(out < 0):
            raise PreconditionError("point outside the map's domain")
        return out

    def image_size(self) -> int:
        return int(np.unique(self.values[self.values >= 0]).size)


def is_freiman_homomorphism(fmap: FreimanMap, s: int = 2) -> bool:
    """Respects all coincidences of s-fold sums on the domain, exactly.

    The s-fold sums of the graph {(x, phi(x))} are built one summand at a
    time as distinct int64 keys ``x |H| + v``, a block of about 2^20 entries
    at a time; phi is a Freiman s-homomorphism iff no sum x then carries two
    values v.
    """
    if s < 2:
        raise PreconditionError("Freiman order must be at least 2")
    dom = fmap.domain.enumerate().indices()
    if dom.size == 0:
        return True
    g = fmap.domain.group
    h = fmap.codomain
    vals = fmap.values[dom]
    sum_x, sum_v = dom, vals
    rows_per_block = max(1, _SUM_BLOCK // dom.size)
    for _ in range(s - 1):
        keys = []
        for start in range(0, sum_x.size, rows_per_block):
            bx = sum_x[start : start + rows_per_block]
            bv = sum_v[start : start + rows_per_block]
            x = g.add_indices(np.repeat(bx, dom.size), np.tile(dom, bx.size))
            v = h.add_indices(np.repeat(bv, dom.size), np.tile(vals, bv.size))
            keys.append(np.unique(x * h.order + v))
        sum_x, sum_v = np.divmod(np.unique(np.concatenate(keys)), h.order)
    return bool(np.all(np.diff(sum_x) != 0))


@dataclass(frozen=True)
class ProjectivityResult:
    progression: CosetProgression
    lift: FreimanMap
    heavy_indices: tuple[int, ...]  # basis positions whose torsion survives
    arm_values: tuple[GroupElement, ...]  # lift values on the arm generators
    subgroup_values: tuple[GroupElement, ...]  # lift values on subgroup generators


def partial_projectivity(
    group: FiniteAbelianGroup,
    codomain: FiniteAbelianGroup,
    kernel: GroupSubset,
    phi_rep: np.ndarray,
    *,
    domain: Optional[GroupSubset] = None,
) -> ProjectivityResult:
    """Lift a homomorphism into a quotient to a Freiman 2-homomorphism.

    ``phi_rep`` is an int64 value array over ``group``, as in
    ``FreimanMap.values``: the codomain index of a representative at every
    element of the domain (all of ``group`` by default); ``x -> phi_rep[x]
    + kernel`` must be a homomorphism.  The sweep rewrites the basis
    downward, replacing ``h_i`` by ``k_i`` with ``n_i k_i = 0`` whenever
    ``n_i h_i`` already lies in the subgroup generated by the heavier
    torsion witnesses; each survivor doubles that subgroup, so at most
    ``log2 |kernel|`` arms remain, each of length ``ceil(n_i / 2)``, so the
    progression has at least ``|domain| / |kernel|`` points (checked
    exactly).  The lift table is one coefficient grid.
    """
    if kernel.group is not codomain:
        raise GroupMismatchError("kernel must live in the codomain")
    if not is_subgroup(kernel):
        raise PreconditionError("kernel is not a verified subgroup")
    phi_rep = np.asarray(phi_rep, dtype=np.int64)
    off_domain = False if domain is None else ~domain.mask
    if phi_rep.shape != (group.order,) or not np.all(
        ((0 <= phi_rep) & (phi_rep < codomain.order)) | off_domain
    ):
        raise PreconditionError("phi_rep must hold a codomain index at every domain element")
    if domain is None:
        orders, basis = invariant_factors(group)
    else:
        orders, basis = subgroup_basis(group, domain)
    r = len(basis)
    hs = [codomain.element_from_index(phi_rep[x.index]) for x in basis]
    for h, x in zip(hs, basis):
        if (x.order * h) not in kernel:
            raise PreconditionError("phi is not a homomorphism into the quotient")
    ys: list[Optional[GroupElement]] = [None] * r
    ks: list[Optional[GroupElement]] = [None] * r
    for i in range(r - 1, -1, -1):
        n_i = orders[i]
        target = n_i * hs[i]
        heavier = [
            (j, orders[j] * ks[j])
            for j in range(i + 1, r)
            if not (orders[j] * ks[j]).is_zero
        ]
        coeffs = _subgroup_combination(codomain, [t for _, t in heavier], target)
        if coeffs is None:
            ys[i] = basis[i]
            ks[i] = hs[i]
        else:
            y = basis[i]
            k = hs[i]
            for (j, _), lam in zip(heavier, coeffs):
                ratio = orders[j] // n_i
                y = y - lam * ratio * ys[j]
                k = k - lam * ratio * ks[j]
            ys[i] = y
            ks[i] = k
            if not (n_i * k).is_zero:
                raise TheoremViolationError("rewritten torsion failed to vanish")
    heavy = tuple(i for i in range(r) if not (orders[i] * ks[i]).is_zero)
    light = [i for i in range(r) if i not in heavy]
    arm_lengths = {i: -(-orders[i] // 2) for i in heavy}  # ceil(n_i / 2)
    sub = subgroup_generated(group, [ys[i] for i in light])
    prog = CosetProgression(
        group,
        group.zero,
        tuple(Arm(ys[i], 0, arm_lengths[i] - 1) for i in heavy),
        sub,
    )
    lifted = list(heavy) + light  # heavy arms, then the light basis elements
    grid = _coefficient_grid([range(arm_lengths.get(i, orders[i])) for i in lifted])
    x = _combination_indices(group, grid, [ys[i] for i in lifted])
    v = _combination_indices(codomain, grid, [ks[i] for i in lifted])
    if np.any(np.diff(np.unique(x * codomain.order + v) // codomain.order) == 0):
        raise TheoremViolationError("lift table is inconsistent")
    table = np.full(group.order, -1, dtype=np.int64)
    table[x] = v
    lift = FreimanMap(prog, codomain, table)
    if 2 ** len(heavy) > max(1, kernel.size):
        raise TheoremViolationError("rank exceeded log2 |kernel|")
    if not prog.is_proper():
        raise TheoremViolationError("lift progression is not proper")
    dom_size = group.order if domain is None else domain.size
    if prog.size * kernel.size < dom_size:
        raise TheoremViolationError("progression below the guaranteed size")
    pts = np.flatnonzero(table >= 0)
    diffs = codomain.add_indices(phi_rep[pts], codomain.negation_permutation[table[pts]])
    if not kernel.mask[diffs].all():
        raise TheoremViolationError("lift disagrees with phi modulo the kernel")
    return ProjectivityResult(
        prog,
        lift,
        heavy,
        tuple(ys[i] for i in heavy),
        tuple(ks[i] for i in light),
    )


def _subgroup_combination(
    group: FiniteAbelianGroup,
    generators: Sequence[GroupElement],
    target: GroupElement,
) -> Optional[list[int]]:
    """Coefficients with sum lam_j g_j = target, or None.

    One array pass per generator over the elements reached so far: every
    ``lam g + state`` in lam-major order, each element kept with the
    coefficients of its first reach, i.e. its smallest lam (for one lam,
    distinct states reach distinct elements, so the order of the states
    does not matter).
    """
    states = np.zeros(1, dtype=np.int64)  # indices of the elements reached
    coeffs = np.zeros((1, 0), dtype=np.int64)
    for g in generators:
        lams = np.arange(g.order, dtype=np.int64)
        shifts = group.index_of_coords(lams[:, None] * group.coords_matrix[g.index])
        n = states.size
        reach = group.add_indices(np.repeat(shifts, n), np.tile(states, lams.size))
        _, first = np.unique(reach, return_index=True)
        states = reach[first]
        coeffs = np.column_stack([coeffs[first % n], first // n])
    hit = np.flatnonzero(states == target.index)
    return coeffs[hit[0]].tolist() if hit.size else None


@dataclass(frozen=True)
class InjectivityPartition:
    refinement: CosetProgression  # D, inside the subgroup part
    cells: tuple[CosetProgression, ...]  # partition of the arm part P
    cell_count: int


def injectivity_partition(
    phi: FreimanMap, alpha: Fraction
) -> InjectivityPartition:
    """Split a somewhat-injective Freiman homomorphism into injective pieces.

    Returns ``D`` inside the subgroup part and a grid partition of the arm
    part such that ``phi`` is injective on every ``k + P_i + D``; each
    injectivity claim is verified by enumeration.
    """
    alpha = Fraction(alpha)
    c = phi.domain
    if not c.is_proper():
        raise PreconditionError("domain progression must be proper")
    if phi.image_size() < alpha * c.size:
        raise PreconditionError("phi image below the requested density")
    if not is_freiman_homomorphism(phi):
        raise PreconditionError("phi is not a Freiman homomorphism")
    g = c.group
    h = phi.codomain
    kernel_sub = c.subgroup
    lows = [[arm.lo for arm in c.arms]]
    corner = int(_combination_indices(g, lows, [arm.generator for arm in c.arms], c.base)[0])
    # psi(k) = phi(corner + k) - phi(corner) on the subgroup part K
    k_idx = kernel_sub.indices()
    shifted = g.add_indices(corner, k_idx)
    neg_base = h.negation_permutation[phi.at(corner)]
    psi = h.add_indices(phi.at(shifted), np.full(k_idx.size, neg_base))
    # psi is a genuine homomorphism K -> H
    psi_of = np.full(g.order, -1, dtype=np.int64)
    psi_of[k_idx] = psi
    n = k_idx.size
    ksum = g.add_indices(np.repeat(k_idx, n), np.tile(k_idx, n))
    if np.any(psi_of[ksum] != h.add_indices(np.repeat(psi, n), np.tile(psi, n))):
        raise TheoremViolationError("difference map failed to be a homomorphism")
    s_mask = GroupSubset.from_indices(g, k_idx[psi == 0])
    if s_mask.size > 1 / alpha:
        raise TheoremViolationError("kernel larger than 1/alpha")
    image_idx, first = np.unique(psi, return_index=True)
    psi_image = GroupSubset.from_indices(h, image_idx)
    nu_rep = np.full(h.order, -1, dtype=np.int64)
    nu_rep[image_idx] = k_idx[first]
    proj = partial_projectivity(h, g, s_mask, nu_rep, domain=psi_image)
    # theta is injective; its image is the desired progression D
    theta_vals = proj.lift.values[proj.lift.values >= 0]
    if np.unique(theta_vals).size != theta_vals.size:
        raise TheoremViolationError("projectivity lift failed to be injective")
    d_sub = subgroup_generated(g, list(proj.subgroup_values))
    d_prog = CosetProgression(
        g,
        g.zero,
        tuple(
            Arm(val, arm.lo, arm.hi)
            for val, arm in zip(proj.arm_values, proj.progression.arms)
        ),
        d_sub,
    )
    if not d_prog.is_proper():
        raise TheoremViolationError("refinement progression is not proper")
    if not d_prog.enumerate().is_subset_of(kernel_sub):
        raise TheoremViolationError("refinement escaped the subgroup part")
    if 2**d_prog.rank * alpha > 1:
        raise TheoremViolationError("refinement rank exceeded log2(1/alpha)")
    if d_prog.size < alpha * alpha * kernel_sub.size:
        raise TheoremViolationError("refinement below the guaranteed size")
    # grid partition of the arm part
    r = max(1, c.rank)
    cells: list[CosetProgression] = []
    blocks_per_arm: list[list[tuple[int, int]]] = []
    for arm in c.arms:
        n = arm.length
        width = math.ceil(alpha * n / (4 * r))
        blocks = [
            (arm.lo + t * width, min(arm.lo + (t + 1) * width - 1, arm.hi))
            for t in range(-(-n // width))
        ]
        blocks_per_arm.append(blocks)
    trivial = GroupSubset.from_indices(g, [0])
    for combo in itertools.product(*blocks_per_arm):
        base = c.base
        arms = []
        for (lo, hi), arm in zip(combo, c.arms):
            base = base + lo * arm.generator
            arms.append(Arm(arm.generator, 0, hi - lo))
        cells.append(CosetProgression(g, base, tuple(arms), trivial))
    m = len(cells)
    if c.rank and m > (8 * r / alpha) ** r:
        raise TheoremViolationError("cell count exceeded (8 r / alpha)^r")
    # verify injectivity on every k + P_i + D
    d_idx = d_prog.enumerate().indices()
    for cell in cells:
        cell_idx = cell.enumerate().indices()
        pd = g.add_indices(
            np.repeat(cell_idx, d_idx.size), np.tile(d_idx, cell_idx.size)
        )
        for kidx in kernel_sub.indices():
            full = g.add_indices(
                np.full(pd.size, int(kidx), dtype=np.int64), pd
            )
            vals = phi.at(full)
            if np.unique(vals).size != vals.size:
                raise TheoremViolationError(
                    "phi failed to be injective on a refined cell"
                )
    return InjectivityPartition(d_prog, tuple(cells), m)


# -- popular differences and intersection refinement --------------------------


def stabilizer(subset: GroupSubset) -> GroupSubset:
    """{h : subset + h = subset}; one convolution via the complement trick."""
    group = subset.group
    if subset.size == 0:
        return GroupSubset.full(group)
    shrink = subset.complement().sumset(subset.negate()).complement()
    # h with subset + h subseteq subset; equal sizes force equality
    return shrink


def grow_progression_inside(
    allowed: GroupSubset,
    *,
    candidate_order: Optional[Sequence[int]] = None,
    rank_cap: int = 3,
    use_stabilizer: bool = True,
) -> CosetProgression:
    """Greedy symmetric proper progression inside an allowed set containing 0.

    Arms extend while the enumeration stays in the allowed set and the
    progression stays proper; candidates are scanned in the given order
    (element index by default), the first ``_CANDIDATE_CAP`` of them.  Arm
    ``v`` grows one step at a time by OR-ing ``inner + half v`` and ``inner
    - half v`` into the mask, where ``inner`` is the progression before the
    arm; since ``inner`` is proper, the extension is proper exactly when its
    size is ``(2 half + 1) |inner|``.

    The first step is scored for a block of candidates at once, through
    the index rows ``y - v`` and ``y + v``; the first candidate that passes
    grows its arm by composing its two rows, and the scan resumes after it.
    A candidate rejected against ``inner`` stays rejected against any
    larger ``inner``, so this is the one-candidate-at-a-time greedy.
    """
    group = allowed.group
    if 0 not in allowed:
        raise PreconditionError("allowed set must contain 0")
    if use_stabilizer:
        sub = stabilizer(allowed)
        sub = sub if is_subgroup(sub) else GroupSubset.from_indices(group, [0])
    else:
        sub = GroupSubset.from_indices(group, [0])
    order = (
        [int(i) for i in candidate_order]
        if candidate_order is not None
        else [int(i) for i in allowed.indices()]
    )
    cands = np.asarray(order[:_CANDIDATE_CAP], dtype=np.int64)
    if np.any((cands < 0) | (cands >= group.order)):
        raise ValueError("element index out of range")
    cands = cands[cands != 0]
    outside = ~allowed.mask
    ys = np.arange(group.order, dtype=np.int64)
    arms: list[Arm] = []
    inner, inner_size = sub.mask, sub.size
    block = max(1, _GROW_BLOCK // group.order)
    for start in range(0, cands.size, block):
        if len(arms) >= rank_cap:
            break
        chunk = cands[start : start + block]
        minus = group.add_indices(ys, group.negation_permutation[chunk][:, None])
        plus = group.add_indices(ys, chunk[:, None])
        i = 0
        while i < chunk.size and len(arms) < rank_cap:
            trial = inner | inner[minus[i:]] | inner[plus[i:]]
            ok = (trial.sum(axis=1) == 3 * inner_size) & ~(trial & outside).any(axis=1)
            hits = np.flatnonzero(ok)
            if not hits.size:
                break
            i += int(hits[0])
            v = group.element_from_index(int(chunk[i]))
            grown, back, fwd = trial[hits[0]], minus[i], plus[i]
            half = 2
            while half <= v.order // 2 + 1:
                back, fwd = back[minus[i]], fwd[plus[i]]
                ext = grown | inner[back] | inner[fwd]
                if ext.sum() == (2 * half + 1) * inner_size and not (ext & outside).any():
                    grown = ext
                    half += 1
                else:
                    break
            arms.append(Arm(v, -(half - 1), half - 1))
            inner, inner_size = grown, (2 * half - 1) * inner_size
            i += 1
    return CosetProgression._derived(group, group.zero, tuple(arms), sub)


def popular_difference_progression(
    subset: GroupSubset, *, use_stabilizer: bool = True
) -> CosetProgression:
    """Symmetric proper progression of popular quadruple differences, of
    rank at most 3.

    Every returned element x satisfies ``count(x) >= |A|^3 / (64 K)`` where
    K = |A + A| / |A| is the doubling of A; the bound is enforced per
    element, and 0 always meets it.
    """
    if subset.size == 0:
        raise PreconditionError("set must be nonempty")
    doubling = Fraction(subset.sumset(subset).size, subset.size)
    counts = quadruple_count_all(subset.group, subset.mask)
    threshold = Fraction(subset.size**3, 64) / doubling
    popular = GroupSubset(subset.group, counts >= threshold)
    if 0 not in popular:
        raise TheoremViolationError("0 must always be a popular difference")
    order = sorted(
        (int(i) for i in popular.indices()),
        key=lambda i: (-int(counts[i]), i),
    )
    prog = grow_progression_inside(
        popular,
        candidate_order=order,
        rank_cap=3,
        use_stabilizer=use_stabilizer,
    )
    for idx in prog.enumerate().indices():
        if counts[int(idx)] < threshold:
            raise TheoremViolationError("returned element below the count threshold")
    return prog


@dataclass(frozen=True)
class RefineResult:
    progression: CosetProgression
    overlap: int  # |C cap X|


def intersect_refine(
    progressions: Sequence[CosetProgression], x_set: GroupSubset
) -> RefineResult:
    """Proper progression inside the intersection, meeting X in many points.

    Grid-partitions each progression into margin-protected cells, picks the
    densest common cell Y, then translates the popular-difference
    progression of Y into the intersection; falls back to the densest cell
    itself (rank one intersection) or a singleton.
    """
    if not progressions:
        raise PreconditionError("need at least one progression")
    group = progressions[0].group
    if x_set.size == 0:
        raise PreconditionError("X must be nonempty")
    inter = progressions[0].enumerate()
    for c in progressions[1:]:
        if c.group is not group:
            raise GroupMismatchError("progressions from different groups")
        inter = inter & c.enumerate()
    if not x_set.is_subset_of(inter):
        raise PreconditionError("X must sit inside every progression")
    r = len(progressions)
    d = max(1, max(c.rank for c in progressions))
    # the cell of x in X: its block along every arm of every progression.
    # An arm of length n has blocks of ceil(delta n / (100 d r)) coefficients,
    # delta = |X| / |G|; when that makes t >= 50 d r / delta blocks, x in
    # the four outermost blocks at either end is dropped; otherwise blocks
    # have width 1
    x_idx = x_set.indices()
    kept = np.ones(x_idx.size, dtype=bool)
    blocks, widths = [], []
    for c in progressions:
        elements, coeffs, _ = c.coordinates()
        row = np.empty(group.order, dtype=np.int64)
        row[elements] = np.arange(elements.size)
        lo = np.asarray([arm.lo for arm in c.arms], dtype=np.int64)
        n = np.asarray([arm.length for arm in c.arms], dtype=np.int64)
        m = -(-(x_set.size * n) // (100 * d * r * group.order))
        t = -(-n // m)
        margin = t * x_set.size >= 50 * d * r * group.order
        width = np.where(margin, m, 1)
        block = (coeffs[row[x_idx]] - lo) // width
        kept &= np.all(~margin | ((block >= 4) & (block <= t - 4)), axis=1)
        blocks.append(block)
        widths.append(width.tolist())
    cells, cell_of, counts = np.unique(
        np.concatenate(blocks, axis=1)[kept], axis=0, return_inverse=True, return_counts=True
    )
    candidates: list[tuple[CosetProgression, int]] = []

    def popular_route(y_set: GroupSubset) -> None:
        pop = popular_difference_progression(y_set)
        triple = y_set.negate().sumset(y_set).sumset(y_set)
        ladder = [pop]
        if pop.subgroup.size > 1:
            # a pure-arm variant can shrink below the stabilizer granularity
            ladder.append(
                popular_difference_progression(y_set, use_stabilizer=False)
            )
        while any(arm.hi >= 1 for arm in ladder[-1].arms):
            prev = ladder[-1]
            ladder.append(
                CosetProgression._derived(
                    group,
                    prev.base,
                    tuple(Arm(a.generator, -(a.hi // 2), a.hi // 2) for a in prev.arms),
                    prev.subgroup,
                )
            )
        for cand in ladder:
            # translates t = -y2 + y3 + y4 ranked by |(cand + t) cap X|, the
            # count of t as x - c with x in X and c in cand
            minus_cand = cand.enumerate().negate().mask
            overlap_counts = _convolution_counts(group, x_set.mask, minus_cand)
            overlap_counts[~triple.mask] = -1
            order = np.argsort(-overlap_counts, kind="stable")
            placed = False
            for t_idx in order[:_TRANSLATE_TRIES]:
                if overlap_counts[t_idx] < 0:
                    break
                shifted = cand.translate(group.element_from_index(int(t_idx)))
                if shifted.enumerate().is_subset_of(inter):
                    candidates.append(
                        (shifted, int((shifted.enumerate() & x_set).size))
                    )
                    placed = True
                    break
            if placed:
                break

    if counts.size:
        # the most populated cell, the largest on a tie
        best = np.flatnonzero(counts == counts.max())[-1]
        y_set = GroupSubset.from_indices(group, x_idx[kept][cell_of.reshape(-1) == best])
        popular_route(y_set)
        if r == 1:
            cell = _cell_progression(progressions[0], tuple(cells[best].tolist()), widths[0])
            if cell.enumerate().is_subset_of(inter):
                candidates.append((cell, int((cell.enumerate() & x_set).size)))
        if y_set.size < x_set.size:
            popular_route(x_set)
    else:
        popular_route(x_set)
    first = int(x_set.indices()[0])
    singleton = CosetProgression.singleton(group.element_from_index(first))
    candidates.append((singleton, 1))
    best = max(candidates, key=lambda t: t[1])
    return RefineResult(best[0], best[1])


def _cell_progression(
    c: CosetProgression, cell: tuple[int, ...], widths: Sequence[int]
) -> CosetProgression:
    base = c.base
    arms = []
    for block, arm, w in zip(cell, c.arms, widths):
        lo = arm.lo + block * w
        hi = min(lo + w - 1, arm.hi)
        base = base + lo * arm.generator
        arms.append(Arm(arm.generator, 0, hi - lo))
    return CosetProgression._derived(c.group, base, tuple(arms), c.subgroup)
