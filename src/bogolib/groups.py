"""Finite abelian groups as explicit products of cyclic factors.

A group is ``Z/q_1 x ... x Z/q_d``; elements are coordinate tuples and are
also addressed by a mixed-radix index with factor 0 fastest-varying:

    index(x) = sum_i x_i * prod_{j<i} q_j

Every dense set representation in the library (:class:`GroupSubset`) is a
bit array over this index encoding.  The dual group carries the same
moduli; a character ``chi`` is an element of the dual and pairs with
``x`` as ``chi(x) = sum_i chi_i x_i / q_i  (mod 1)``, evaluated exactly
over the common denominator ``exponent(G)``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    FeasibilityError,
    GroupMismatchError,
    GroupSpecSyntaxError,
    GroupTooLargeError,
)
from .intmat import row_hermite

DEFAULT_CEILING = 1 << 24
SPAN_MAX_STEPS = 1 << 22
_COUNT_BLOCK = 1 << 13  # entries per row block of the count kernels


def group_order_ceiling() -> int:
    """Group-order ceiling: BOGO_CEILING, a positive integer, else the default."""
    raw = os.environ.get("BOGO_CEILING")
    if raw is None:
        return DEFAULT_CEILING
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"BOGO_CEILING must be a positive integer, got {raw!r}")
    return int(raw)


class FiniteAbelianGroup:
    """Product of cyclic groups with a fixed index encoding and a dual."""

    def __init__(self, moduli: Sequence[int]):
        """Unchecked against the order ceiling; build groups with make_group."""
        moduli = tuple(int(q) for q in moduli)
        if not moduli or any(q < 1 for q in moduli):
            raise ValueError("moduli must be a nonempty list of integers >= 1")
        order = math.prod(moduli)
        self.moduli = moduli
        self.order = order
        self.exponent = math.lcm(*moduli)
        self._dual: Optional[FiniteAbelianGroup] = None
        self._is_dual = False
        # index(x) = sum x_i * _radix[i]
        radix = [1] * len(moduli)
        for i in range(1, len(moduli)):
            radix[i] = radix[i - 1] * moduli[i - 1]
        self._radix = tuple(radix)

    # -- identity-based equality: one group object per ambient group --

    def __repr__(self) -> str:
        body = "x".join(f"Z{q}" for q in self.moduli)
        return f"<dual {body}>" if self._is_dual else f"<{body}>"

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def dual(self) -> "FiniteAbelianGroup":
        if self._dual is None:
            d = FiniteAbelianGroup(self.moduli)
            d._dual = self
            d._is_dual = not self._is_dual
            self._dual = d
        return self._dual

    # -- elements ------------------------------------------------------

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        if len(coords) != self.rank:
            raise ValueError("coordinate count does not match group rank")
        return GroupElement(
            self, tuple(int(c) % q for c, q in zip(coords, self.moduli))
        )

    def element_from_index(self, index: int) -> "GroupElement":
        index = int(index)
        if not 0 <= index < self.order:
            raise ValueError("element index out of range")
        coords = []
        for q in self.moduli:
            index, c = divmod(index, q)
            coords.append(c)
        return GroupElement(self, tuple(coords))

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.element_from_index(i)

    # -- vectorized index arithmetic ------------------------------------

    @cached_property
    def coords_matrix(self) -> np.ndarray:
        """(order, rank) int64 matrix of coordinates for every index."""
        idx = np.arange(self.order, dtype=np.int64)
        cols = []
        for q in self.moduli:
            idx, c = np.divmod(idx, q)
            cols.append(c)
        return np.stack(cols, axis=1)

    def index_of_coords(self, coords: np.ndarray) -> np.ndarray:
        radix = np.asarray(self._radix, dtype=np.int64)
        return (np.asarray(coords, dtype=np.int64) % np.asarray(self.moduli)) @ radix

    def add_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ca = self.coords_matrix[np.asarray(a, dtype=np.int64)]
        cb = self.coords_matrix[np.asarray(b, dtype=np.int64)]
        return self.index_of_coords(ca + cb)

    @cached_property
    def negation_permutation(self) -> np.ndarray:
        q = np.asarray(self.moduli, dtype=np.int64)
        return self.index_of_coords((q - self.coords_matrix) % q)

    @property
    def tensor_shape(self) -> tuple[int, ...]:
        # C-order flattening of this shape reproduces the index encoding
        return tuple(reversed(self.moduli))

    def char_numerators(self, chi: np.ndarray, group: "FiniteAbelianGroup") -> np.ndarray:
        """Row i, for each x (by index): numerator of chi_i(x) over denominator
        exponent, chi_i the character of index chi[i] in ``group``, which must
        be this group's dual.  Shape (len(chi), |G|).
        """
        if group is not self.dual:
            raise GroupMismatchError("character does not belong to this group's dual")
        e = self.exponent
        scale = np.asarray([e // q for q in self.moduli], dtype=np.int64)
        w = self.dual.coords_matrix[chi] * scale
        return (w @ self.coords_matrix.T) % e


def _coefficient_grid(ranges: Sequence[range]) -> np.ndarray:
    """The rows of ``itertools.product(*ranges)`` (unit steps), in its order."""
    shape = tuple(len(r) for r in ranges)
    grid = np.indices(shape, dtype=np.int64).reshape(len(shape), math.prod(shape)).T
    return grid + np.asarray([r.start for r in ranges], dtype=np.int64)


def _combination_indices(
    group: FiniteAbelianGroup, coefficients, elements: Sequence["GroupElement"], base=None
) -> np.ndarray:
    """Index of ``base + sum_j c_ij e_j`` for every row ``c_i`` of an integer
    coefficient table, the ``e_j`` elements of ``group``: one matrix product."""
    gens = np.asarray([e.coords for e in elements], dtype=np.int64).reshape(-1, group.rank)
    coords = np.asarray(coefficients, dtype=np.int64).reshape(len(coefficients), len(gens)) @ gens
    return group.index_of_coords(coords if base is None else coords + base.coords)


def make_group(moduli: Sequence[int], ceiling: Optional[int] = None) -> FiniteAbelianGroup:
    """Build the group ``Z/q_1 x ... x Z/q_d``; rejects orders over the ceiling."""
    group = FiniteAbelianGroup(moduli)
    limit = group_order_ceiling() if ceiling is None else ceiling
    if group.order > limit:
        raise GroupTooLargeError(
            f"group too large: order {group.order} exceeds ceiling {limit}"
        )
    return group


@dataclass(frozen=True)
class GroupElement:
    """Element of a :class:`FiniteAbelianGroup`, stored as reduced coordinates."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def _check(self, other: "GroupElement") -> None:
        if self.group is not other.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple((a + b) % q for a, b, q in zip(self.coords, other.coords, self.group.moduli)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple((a - b) % q for a, b, q in zip(self.coords, other.coords, self.group.moduli)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group, tuple((-a) % q for a, q in zip(self.coords, self.group.moduli))
        )

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement(
            self.group, tuple((a * int(k)) % q for a, q in zip(self.coords, self.group.moduli))
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.coords))

    @property
    def index(self) -> int:
        return sum(c * r for c, r in zip(self.coords, self.group._radix))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def order(self) -> int:
        return math.lcm(*(q // math.gcd(q, c) for c, q in zip(self.coords, self.group.moduli)))


# Characters are elements of the dual group.
Character = GroupElement


def char_eval(chi: Character, x: GroupElement) -> Fraction:
    """Exact torus value chi(x) = sum_i chi_i x_i / q_i mod 1, in [0, 1)."""
    if chi.group is not x.group.dual:
        raise GroupMismatchError("character/element group mismatch")
    g = x.group
    e = g.exponent
    total = sum(
        (c * xi % q) * (e // q) for c, xi, q in zip(chi.coords, x.coords, g.moduli)
    )
    return Fraction(total % e, e)


def torus_dist(t: Fraction) -> Fraction:
    """Distance from a torus value to 0 + Z, in [0, 1/2]."""
    t = Fraction(t) % 1
    return min(t, 1 - t)


class GroupSubset:
    """Dense bit-indexed subset of a group; the universal set representation."""

    __slots__ = ("group", "mask")

    def __init__(self, group: FiniteAbelianGroup, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise ValueError("mask length must equal group order")
        mask.setflags(write=False)
        self.group = group
        self.mask = mask

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls, group: FiniteAbelianGroup) -> "GroupSubset":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def from_indices(cls, group: FiniteAbelianGroup, indices) -> "GroupSubset":
        mask = np.zeros(group.order, dtype=bool)
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices, dtype=np.int64)
        if idx.size and idx.min() < 0:
            raise ValueError("element index out of range")
        mask[idx] = True
        return cls(group, mask)

    # -- basic protocol --------------------------------------------------

    def _check(self, other: "GroupSubset") -> None:
        if self.group is not other.group:
            raise GroupMismatchError("subsets belong to different groups")

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, x) -> bool:
        idx = x.index if isinstance(x, GroupElement) else int(x)
        return bool(self.mask[idx])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupSubset)
            and self.group is other.group
            and np.array_equal(self.mask, other.mask)
        )

    __hash__ = None  # mutable-adjacent value type; never used as a key

    def __repr__(self) -> str:
        return f"GroupSubset({self.group!r}, size={self.size})"

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def is_subset_of(self, other: "GroupSubset") -> bool:
        self._check(other)
        return not bool(np.any(self.mask & ~other.mask))

    # -- boolean algebra --------------------------------------------------

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        self._check(other)
        return GroupSubset(self.group, self.mask | other.mask)

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        self._check(other)
        return GroupSubset(self.group, self.mask & other.mask)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, ~self.mask)

    # -- additive structure ------------------------------------------------

    def translate(self, x: GroupElement) -> "GroupSubset":
        if x.group is not self.group:
            raise GroupMismatchError("translation element from a different group")
        # coordinate i is tensor axis rank - 1 - i; shifting an axis by c
        # moves its last c slices to the front, one slice copy per axis
        t = self.mask.reshape(self.group.tensor_shape)
        for axis, c in enumerate(reversed(x.coords)):
            if c:
                head = (slice(None),) * axis
                t = np.concatenate(
                    (t[head + (slice(-c, None),)], t[head + (slice(None, -c),)]), axis=axis
                )
        return GroupSubset(self.group, t.reshape(-1))

    def negate(self) -> "GroupSubset":
        return GroupSubset(self.group, self.mask[self.group.negation_permutation])

    def sumset(self, other: "GroupSubset") -> "GroupSubset":
        self._check(other)
        return GroupSubset(self.group, _convolution_counts(self.group, self.mask, other.mask) > 0)

    def diffset(self, other: "GroupSubset") -> "GroupSubset":
        return self.sumset(other.negate())

    def __add__(self, other):
        if isinstance(other, GroupElement):
            return self.translate(other)
        return self.sumset(other)

    def __sub__(self, other):
        if isinstance(other, GroupElement):
            return self.translate(-other)
        return self.diffset(other)


def _convolution_counts(
    group: FiniteAbelianGroup, m1: np.ndarray, m2: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact int64 convolution counts(x) = #{(a, b): a + b = x} over masks.

    The masks' last axis runs over the group; leading axes are a batch, and
    row i of the result convolves row i of ``m1`` with row i of ``m2``.
    Without ``m2``, row i of ``m1`` is convolved with its own negation, so
    counts(x) = #{(a, b): a - b = x}; the transform of the negation is the
    conjugate of the row's own, so that takes one forward transform.
    The batch is transformed in row blocks (``_row_blocks``), each rounded
    and checked by ``_exact_counts`` into one preallocated result.
    """
    shape = group.tensor_shape
    axes = tuple(range(1, len(shape) + 1))
    rows1 = m1.reshape((-1,) + shape)
    rows2 = None if m2 is None else m2.reshape((-1,) + shape)
    out = np.empty(m1.shape, dtype=np.int64)
    flat = out.reshape(-1, group.order)
    for blk in _row_blocks(group, flat.shape[0]):
        f = np.fft.rfftn(rows1[blk].astype(np.float64), s=shape, axes=axes)
        if rows2 is None:
            f *= np.conj(f)
        else:
            f *= np.fft.rfftn(rows2[blk].astype(np.float64), s=shape, axes=axes)
        counts = np.fft.irfftn(f, s=shape, axes=axes)
        flat[blk] = _exact_counts(counts.reshape(-1, group.order))
    return out


def _row_blocks(group: FiniteAbelianGroup, n: int) -> list[slice]:
    """Slices covering ``n`` rows of |G| entries, about ``_COUNT_BLOCK``
    entries (at least one row) each.

    A count kernel transforms one block at a time, so every temporary of a
    large batch stays under the allocator's fresh-mapping threshold and in
    cache, instead of faulting in new pages on every call.
    """
    step = max(1, _COUNT_BLOCK // group.order)
    return [slice(start, start + step) for start in range(0, n, step)]


def _exact_counts(counts: np.ndarray) -> np.ndarray:
    """Round float FFT counts to the int64 integers they stand for.

    The two count kernels, ``_convolution_counts`` and
    ``fourier.quadruple_count_all``, call it before returning, so no caller
    holds a float count.  A count that is not finite, or lies 1/4 or more
    from the nearest integer, raises ArithmeticError rather than being
    guessed, so no set is ever decided by an unchecked float.
    """
    if np.isfinite(counts).all():  # NaN and inf have no integer to cast to
        rounded = np.rint(counts, out=np.empty(counts.shape, np.int64), casting="unsafe")
        err = counts - rounded
        if np.abs(err, out=err).max(initial=0.0) < 0.25:
            return rounded
    raise ArithmeticError("FFT counts are not all finite and within 1/4 of an integer")


# -- spanning, bases, subgroups -------------------------------------------


def fold_multiples(acc: GroupSubset, g: GroupElement, lo: int, hi: int) -> GroupSubset:
    """The union of the translates ``acc + c g`` over ``lo <= c <= hi``.

    Built by doubling: with ``T_s`` the union over the first ``s`` multiples,
    ``T_{s+t} = T_s | (T_s + t g)`` for ``t <= s``, so it takes
    ``O(log(hi - lo + 1))`` translates and one mask at a time.  A range
    longer than the order of ``g`` covers every residue, so it is cut to
    one period.
    """
    if g.group is not acc.group:
        raise GroupMismatchError("fold element from a different group")
    if lo > hi:
        raise ValueError("multiple range is empty")
    n = min(hi - lo + 1, g.order)
    cur = acc.translate(lo * g)
    s = 1
    while s < n:
        t = min(s, n - s)
        cur = cur | cur.translate(t * g)
        s += t
    return cur


def bounded_span(
    group: FiniteAbelianGroup,
    elements: Sequence[GroupElement],
    radius: int,
) -> GroupSubset:
    """All combinations ``sum lambda_i g_i`` with ``|lambda_i| <= radius``.

    Folds one generator at a time over the dense mask, which enumerates the
    box exactly whatever its nominal size.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    for g in elements:
        if g.group is not group:
            raise GroupMismatchError("span generator from a different group")
    if len(elements) * (2 * radius + 1) > SPAN_MAX_STEPS:
        raise FeasibilityError("bounded_span enumeration exceeds feasibility ceiling")
    acc = GroupSubset.from_indices(group, [0])
    for g in elements:
        acc = fold_multiples(acc, g, -radius, radius)
    return acc


def is_basis(
    group: FiniteAbelianGroup,
    elements: Sequence[GroupElement],
) -> bool:
    """Basis test: order product equals |G| and the elements generate G.

    With ``n_i`` the element orders, ``lambda -> sum lambda_i x_i`` maps
    ``prod Z/n_i`` onto the subgroup the elements generate; when
    ``prod n_i == |G|`` it is a bijection, i.e. the elements form a basis,
    exactly when they generate G.  That holds when the rows ``x_i`` and
    ``q_j e_j`` span Z^d, i.e. when their Hermite form is the identity.
    """
    for g in elements:
        if g.group is not group:
            raise GroupMismatchError("basis candidate from a different group")
    if math.prod(g.order for g in elements) != group.order:
        return False
    d = group.rank
    rows = [list(g.coords) for g in elements]
    rows += [[q if j == i else 0 for j in range(d)] for i, q in enumerate(group.moduli)]
    hermite, _ = row_hermite(rows)
    return hermite == [[int(i == j) for j in range(d)] for i in range(d)]


def invariant_factors(
    group: FiniteAbelianGroup,
) -> tuple[list[int], list[GroupElement]]:
    """Invariant factor decomposition ``n_1 | n_2 | ... | n_r`` with a basis.

    Canonical construction: for each prime, the j-th largest prime-power
    among the cyclic factors is assigned to the j-th invariant factor from
    the top; the basis element sums the corresponding prime-part generators
    ``(q_i / p^v) e_i``.
    """
    contributions: dict[int, list[tuple[int, int]]] = {}
    for i, q in enumerate(group.moduli):
        n = q
        p = 2
        while p * p <= n:
            if n % p == 0:
                v = 0
                while n % p == 0:
                    n //= p
                    v += 1
                contributions.setdefault(p, []).append((p**v, i))
            p += 1
        if n > 1:
            contributions.setdefault(n, []).append((n, i))
    for p in contributions:
        contributions[p].sort(key=lambda t: (-t[0], t[1]))
    r = max((len(v) for v in contributions.values()), default=0)
    factors_desc: list[int] = []
    basis_desc: list[GroupElement] = []
    for j in range(r):
        n_j = 1
        coords = [0] * group.rank
        for p in sorted(contributions):
            parts = contributions[p]
            if j < len(parts):
                power, i = parts[j]
                n_j *= power
                coords[i] = (coords[i] + group.moduli[i] // power) % group.moduli[i]
        factors_desc.append(n_j)
        basis_desc.append(group.element(coords))
    return list(reversed(factors_desc)), list(reversed(basis_desc))


def subgroup_generated(
    group: FiniteAbelianGroup, generators: Sequence[GroupElement]
) -> GroupSubset:
    acc = GroupSubset.from_indices(group, [0])
    for g in generators:
        if g.group is not group:
            raise GroupMismatchError("generator from a different group")
        acc = fold_multiples(acc, g, 0, g.order - 1)
    return acc


def is_subgroup(subset: GroupSubset) -> bool:
    """Nonempty and closed under subtraction.

    A set holding 0 of size 1 or |G| is {0} or all of G, a subgroup by
    counting; any other set takes one convolution, S - S = S.
    """
    size = subset.size
    if size == 0 or not subset.mask[0]:
        return False
    if size in (1, subset.group.order):
        return True
    return subset.diffset(subset) == subset


def subgroup_generators(subset: GroupSubset) -> list[GroupElement]:
    """Small generating set extracted greedily from a verified subgroup."""
    gens: list[GroupElement] = []
    covered = GroupSubset.from_indices(subset.group, [0])
    for idx in subset.indices():
        if not subset.mask[idx]:
            continue
        if covered.mask[idx]:
            continue
        g = subset.group.element_from_index(int(idx))
        gens.append(g)
        covered = subgroup_generated(subset.group, gens)
        if covered.size == subset.size:
            break
    return gens


def annihilator_subgroup(subset: GroupSubset) -> GroupSubset:
    """Characters vanishing on a subgroup: {chi : chi(h) = 0 for all h}."""
    group = subset.group
    dual = group.dual
    gens = subgroup_generators(subset)
    mask = np.ones(dual.order, dtype=bool)
    e = group.exponent
    for g in gens:
        w = np.asarray(
            [c * (e // q) for c, q in zip(g.coords, group.moduli)], dtype=np.int64
        )
        mask &= (dual.coords_matrix @ w) % e == 0
    return GroupSubset(dual, mask)


# -- group-spec grammar -----------------------------------------------------


def parse_group_spec(text: str) -> list[int]:
    """Parse ``Z<n>(xZ<n>)*`` (whitespace-insensitive) into a moduli list."""
    compact = "".join(text.split())
    if not compact:
        raise GroupSpecSyntaxError("empty group spec", 0)
    moduli: list[int] = []
    pos = 0
    while True:
        if pos >= len(compact) or compact[pos] != "Z":
            raise GroupSpecSyntaxError("expected 'Z'", pos)
        pos += 1
        start = pos
        # ASCII digits only: str.isdigit() also accepts '²', which int() rejects
        while pos < len(compact) and compact[pos] in "0123456789":
            pos += 1
        if start == pos:
            raise GroupSpecSyntaxError("expected an integer after 'Z'", start)
        n = int(compact[start:pos])
        if n <= 0:
            raise GroupSpecSyntaxError(f"modulus must be positive, got {n}", start)
        moduli.append(n)
        if pos == len(compact):
            return moduli
        if compact[pos] != "x":
            raise GroupSpecSyntaxError("expected 'x' separator", pos)
        pos += 1
