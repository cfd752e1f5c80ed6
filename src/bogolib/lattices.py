"""Integer-lattice machinery: coefficient boxes, spans, bounded coefficients.

Every question about the coefficient box ``[-R, R]^k`` -- which vectors
``a`` give ``sum a_i s_i = t`` -- goes through :func:`box_preimages`, which
reads the answer off suffix-reachability masks in the group instead of
enumerating the box.  On the lattice side all arithmetic is over
arbitrary-precision integers; coefficient bounds grow like ``k! K^k`` so no
modular shortcuts are taken there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import intmat
from .errors import FeasibilityError, PreconditionError, TheoremViolationError
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    _combination_indices,
    fold_multiples,
)

MAX_BOX_CANDIDATES = 1 << 24
CHAIN_CONSTANT = 8  # leading constant of the chain-monitor step budget


def _plog(x: float) -> float:
    # 'log x means log x + 2' convention used by every concrete bound here
    return math.log(x) + 2.0


@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^k held as generator rows; membership is exact."""

    dimension: int
    rows: tuple[tuple[int, ...], ...] = ()

    def member(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.dimension:
            raise ValueError("vector dimension mismatch")
        return in_z_span(vec, self.rows)

    def with_row(self, vec: Sequence[int]) -> "IntegerLattice":
        return IntegerLattice(self.dimension, self.rows + (tuple(int(v) for v in vec),))


def box_preimages(
    group: FiniteAbelianGroup,
    elements: Sequence[GroupElement],
    radius: int,
    targets: np.ndarray,
    *,
    first: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors ``a in [-radius, radius]^k`` with ``sum a_i s_i = t``, per target.

    ``reach[i]`` is the mask of the suffix sums ``sum_{j >= i} a_j s_j`` over
    the box, ``reach[k] = {0}``, each one ``fold_multiples`` of the next.
    The search walks the elements in order and keeps a coefficient ``c``
    only when the remainder ``t - c s_i`` lies in ``reach[i + 1]``, so no
    partial vector is a dead end.  Returns ``(which, vecs)``: row ``j`` of
    the ``(n, k)`` int64 array ``vecs`` maps onto ``targets[which[j]]``;
    rows are grouped by target in the given order and lexicographic within
    a target.  With ``first`` only the lexicographically smallest vector of
    each target is kept; its coefficient at each step is the first valid one
    of ``-radius, -radius + 1, ...``, searched over one period
    ``min(2 radius + 1, ord s_i)`` since ``c`` and ``c + ord s_i`` leave the
    same remainder.  Targets with no vector have no row.

    Raises FeasibilityError when a step would test more than
    ``MAX_BOX_CANDIDATES`` (partial vector, coefficient) pairs; every output
    row extends one such pair, so this also bounds the output.
    """
    acc = GroupSubset.from_indices(group, [0])
    reach = [acc.mask]
    for s in reversed(elements):
        acc = fold_multiples(acc, s, -radius, radius)
        reach.append(acc.mask)
    reach.reverse()
    targets = np.asarray(targets, dtype=np.int64)
    which = np.flatnonzero(reach[0][targets])
    rem = targets[which]
    vecs = np.zeros((which.size, len(elements)), dtype=np.int64)
    for i, s in enumerate(elements):
        width = min(2 * radius + 1, s.order) if first else 2 * radius + 1
        if rem.size * width > MAX_BOX_CANDIDATES:
            raise FeasibilityError("coefficient-box search exceeds feasibility ceiling")
        coeffs = np.arange(-radius, width - radius, dtype=np.int64)
        steps = group.index_of_coords(-coeffs[:, None] * np.asarray(s.coords, dtype=np.int64))
        nxt = group.add_indices(rem[:, None], steps[None, :])
        ok = reach[i + 1][nxt]
        if first:
            ok &= np.cumsum(ok, axis=1) == 1
        rows, cols = np.nonzero(ok)
        which, rem, vecs = which[rows], nxt[rows, cols], vecs[rows]
        vecs[:, i] = coeffs[cols]
    return which, vecs


def annihilator_points(elements: Sequence[GroupElement], radius: int) -> np.ndarray:
    """Box points of the annihilator lattice of ``(s_1, ..., s_k)``.

    Returns an ``(n, k)`` int64 array of all ``lambda in [-radius, radius]^k``
    with ``sum lambda_i s_i = 0``, in lexicographic order: the solutions of
    :func:`box_preimages` for the target 0.
    """
    k = len(elements)
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    group = elements[0].group
    for s in elements:
        if s.group is not group:
            raise PreconditionError("annihilator elements from different groups")
    return box_preimages(group, elements, radius, np.zeros(1), first=False)[1]


def in_z_span(vec: Sequence[int], generators: Sequence[Sequence[int]]) -> bool:
    """Exact membership of an integer vector in the Z-span of generators,
    read off their Hermite form."""
    return not any(vec) or intmat.hermite_coefficients(
        vec, intmat.row_hermite(generators)[0]
    ) is not None


def _rank(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    h, _ = intmat.row_hermite(rows)
    return len(h)


def bounded_representation(
    w: Sequence[int],
    zs: Sequence[Sequence[int]],
    k1: int,
    k2: int,
) -> list[int]:
    """Coefficients ``lambda`` with ``w = sum lambda_i z_i`` and
    ``|lambda_i| <= k! k1^(k+1) (k2 + r)``.

    Follows the adjugate construction: coefficients of Q-dependent rows are
    reduced modulo ``det Z`` of a maximal independent minor and absorbed
    into the independent rows.
    """
    w = [int(x) for x in w]
    rows = [[int(x) for x in z] for z in zs]
    k = len(w)
    if any(len(z) != k for z in rows):
        raise ValueError("all vectors must share the ambient dimension")
    if any(abs(x) > k1 for z in rows for x in z):
        raise PreconditionError("generator norm exceeds K1")
    return _represent(_hermite_frame(rows), w, k1, k2)


@dataclass(frozen=True)
class _HermiteFrame:
    """What the adjugate construction needs from the generator rows alone."""

    rows: list[list[int]]
    hermite: intmat.Matrix  # (H, T) = row_hermite(rows)
    trans: intmat.Matrix
    independent: list[int]  # rows of a maximal Q-independent subset
    det: int  # det Z of their minor on the first independent columns
    mu: dict[int, list[int]]  # dependent row j: det z_j = sum mu_a z_{independent_a}


def _hermite_frame(rows: list[list[int]]) -> _HermiteFrame:
    hermite, trans = intmat.row_hermite(rows)
    independent: list[int] = []
    for i in range(len(rows)):
        if _rank([rows[j] for j in independent] + [rows[i]]) > len(independent):
            independent.append(i)
    m = len(independent)
    det = 1
    mu: dict[int, list[int]] = {}
    if m:
        cols: list[int] = []
        for c in range(len(rows[0])):
            trial = cols + [c]
            sub = [[rows[i][j] for j in trial] for i in independent]
            if _rank(sub) > len(cols):
                cols.append(c)
            if len(cols) == m:
                break
        z_mat = [[rows[i][j] for j in cols] for i in independent]
        det = intmat.det_int(z_mat)
        adj = intmat.adjugate_int(z_mat)
        for j in range(len(rows)):
            if j in independent:
                continue
            t = [rows[j][c] for c in cols]
            # row convention: t = rho Z, so det * rho = t adj
            mu[j] = [sum(t[b] * adj[b][a] for b in range(m)) for a in range(m)]
    return _HermiteFrame(rows, hermite, trans, independent, det, mu)


def _represent(frame: _HermiteFrame, w: list[int], k1: int, k2: int) -> list[int]:
    """:func:`bounded_representation` of one target over a prepared frame."""
    rows = frame.rows
    r = len(rows)
    k = len(w)
    if any(abs(x) > k2 for x in w):
        raise PreconditionError("target norm exceeds K2")
    lam = intmat.solve_over_hermite(w, frame.hermite, frame.trans, r)
    if lam is None:
        raise PreconditionError("w is not in the integer span of the generators")
    for j, mu in frame.mu.items():
        if lam[j] == 0:
            continue
        # det * z_j == sum mu_a z_{independent_a} holds on all coordinates
        q, rem = divmod(lam[j], frame.det)
        lam[j] = rem
        for a, idx in enumerate(frame.independent):
            lam[idx] += q * mu[a]
    check = [sum(lam[i] * rows[i][c] for i in range(r)) for c in range(k)]
    if check != w:
        raise TheoremViolationError("bounded representation lost exactness")
    bound = math.factorial(k) * k1 ** (k + 1) * (k2 + r)
    if any(abs(x) > bound for x in lam):
        raise TheoremViolationError(
            f"coefficient bound exceeded: max {max(map(abs, lam))} > {bound}"
        )
    return lam


def chain_monitor(k: int, box_bound: int) -> int:
    """Step budget for strictly increasing lattice chains witnessed in a box."""
    if k <= 0:
        return 1
    return math.ceil(CHAIN_CONSTANT * k * k * (_plog(k) + _plog(max(1, box_bound))))


@dataclass(frozen=True)
class SpanCover:
    """Result of the quantitative spanning search."""

    generators: list[GroupElement]
    coefficient_bound: int  # largest coefficient actually used (S)
    coefficients: dict[int, list[int]]  # element index -> lambda over generators
    budget: int  # chain-monitor budget that len(generators) must respect


def span_cover(
    group: FiniteAbelianGroup,
    members: Sequence[GroupElement],
    ambient: Sequence[GroupElement],
    radius: int,
) -> SpanCover:
    """Cover a subset ``B`` of ``<a_1..a_k>_R`` by bounded combinations of
    its own elements.

    Preimages in ``[-R, R]^k`` are the lexicographically smallest vectors
    mapping onto each member, found for all members in one
    :func:`box_preimages` call; the greedy loop adjoins any member whose
    preimage leaves the current Z-span, smallest element index first.  The
    coefficients of every member are checked in one matrix product, reduced
    modulo the exponent so that it stays exact in int64.
    """
    if not members:
        raise PreconditionError("members must be nonempty")
    k = len(ambient)
    ordered = sorted(members, key=lambda e: e.index)
    targets = np.asarray([b.index for b in ordered], dtype=np.int64)
    which, vecs = box_preimages(group, ambient, radius, targets, first=True)
    if which.size < targets.size:
        raise PreconditionError(
            "member outside the bounded span of the ambient tuple"
        )
    preimages = dict(zip(targets.tolist(), vecs.tolist()))
    chosen: list[GroupElement] = []
    chosen_vecs: list[list[int]] = []
    hermite: intmat.Matrix = []  # Hermite form of chosen_vecs
    for b in ordered:
        vec = preimages[b.index]
        if intmat.hermite_coefficients(vec, hermite) is None:
            chosen.append(b)
            chosen_vecs.append(vec)
            hermite, _ = intmat.row_hermite(hermite + [vec])
    budget = chain_monitor(k, radius)
    if len(chosen) > budget:
        raise TheoremViolationError(
            f"span cover used {len(chosen)} generators, over budget {budget}"
        )
    # preimages lie in [-R, R]^k, so bounded_representation's norm
    # preconditions hold; one frame serves every member
    frame = _hermite_frame(chosen_vecs)
    lams = [_represent(frame, preimages[t], radius, radius) for t in targets.tolist()]
    residues = [[c % group.exponent for c in lam] for lam in lams]
    if np.any(_combination_indices(group, residues, chosen) != targets):
        raise TheoremViolationError("span cover coefficients do not reproduce member")
    s_max = max([1] + [abs(c) for lam in lams for c in lam])
    return SpanCover(chosen, s_max, dict(zip(targets.tolist(), lams)), budget)
