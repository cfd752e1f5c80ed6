"""Integer-lattice machinery: annihilator boxes, spans, bounded coefficients.

All arithmetic is over arbitrary-precision integers; coefficient bounds
grow like ``k! K^k`` so no modular shortcuts are taken anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import intmat
from .errors import FeasibilityError, PreconditionError, TheoremViolationError
from .groups import FiniteAbelianGroup, GroupElement

DEFAULT_BOX_CAP = 1 << 24


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


def annihilator_points(
    elements: Sequence[GroupElement],
    radius: int,
    *,
    box_cap: int = DEFAULT_BOX_CAP,
) -> np.ndarray:
    """Box points of the annihilator lattice of ``(s_1, ..., s_k)``.

    Returns an ``(n, k)`` int64 array of all ``lambda in [-radius, radius]^k``
    with ``sum lambda_i s_i = 0``, in lexicographic order.  Enumerates
    directly when the box fits under ``box_cap``, otherwise splits
    meet-in-the-middle.
    """
    k = len(elements)
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    group = elements[0].group
    for s in elements:
        if s.group is not group:
            raise PreconditionError("annihilator elements from different groups")
    width = 2 * radius + 1
    if width**k <= box_cap:
        total = _box_value_indices(group, elements, radius)
        hits = np.flatnonzero(total == 0)
        return _decode_box_positions(hits, k, radius)
    if width ** ((k + 1) // 2) > box_cap:
        raise FeasibilityError("annihilator box exceeds feasibility ceiling")
    left, right = elements[: k // 2], elements[k // 2 :]
    left_vals = _box_value_indices(group, left, radius)
    right_vals = _box_value_indices(group, right, radius)
    buckets: dict[int, list[int]] = {}
    for pos, val in enumerate(right_vals):
        buckets.setdefault(int(val), []).append(pos)
    neg = group.negation_permutation
    out = []
    for lpos, lval in enumerate(left_vals):
        for rpos in buckets.get(int(neg[lval]), ()):
            out.append((lpos, rpos))
            if len(out) > box_cap:
                raise FeasibilityError("annihilator point set exceeds ceiling")
    left_dec = _decode_box_positions(
        np.asarray([p for p, _ in out], dtype=np.int64), len(left), radius
    )
    right_dec = _decode_box_positions(
        np.asarray([q for _, q in out], dtype=np.int64), len(right), radius
    )
    pts = np.hstack([left_dec, right_dec]) if out else np.zeros((0, k), dtype=np.int64)
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def _box_value_indices(
    group: FiniteAbelianGroup, elements: Sequence[GroupElement], radius: int
) -> np.ndarray:
    """Group index of ``sum a_i s_i`` over the whole box, lex order.

    Coordinates are carried through the fold and encoded once at the end;
    this avoids large gathers on the per-element index tables.
    """
    moduli = np.asarray(group.moduli, dtype=np.int64)
    coords = np.zeros((1, group.rank), dtype=np.int64)
    coeffs = np.arange(-radius, radius + 1, dtype=np.int64)
    for s in elements:
        per = (coeffs[:, None] * np.asarray(s.coords, dtype=np.int64)[None, :]) % moduli
        coords = (coords[:, None, :] + per[None, :, :]).reshape(-1, group.rank)
        if coords.shape[0] > (1 << 20):
            coords %= moduli
    coords %= moduli
    return coords @ np.asarray(group._radix, dtype=np.int64)


def _decode_box_positions(pos: np.ndarray, k: int, radius: int) -> np.ndarray:
    width = 2 * radius + 1
    out = np.zeros((pos.size, k), dtype=np.int64)
    rem = pos.astype(np.int64)
    for i in range(k - 1, -1, -1):
        rem, digit = np.divmod(rem, width)
        out[:, i] = digit - radius
    return out


def in_z_span(vec: Sequence[int], generators: Sequence[Sequence[int]]) -> bool:
    """Exact membership of an integer vector in the Z-span of generators."""
    vec = [int(v) for v in vec]
    if not any(vec):
        return True
    return intmat.in_row_lattice(vec, [list(g) for g in generators])


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


def chain_monitor(k: int, box_bound: int, *, constant: int = 8) -> int:
    """Step budget for strictly increasing lattice chains witnessed in a box."""
    if k <= 0:
        return 1
    return math.ceil(constant * k * k * (_plog(k) + _plog(max(1, box_bound))))


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
    *,
    box_cap: int = DEFAULT_BOX_CAP,
) -> SpanCover:
    """Cover a subset ``B`` of ``<a_1..a_k>_R`` by bounded combinations of
    its own elements.

    Preimages in ``[-R, R]^k`` are the lexicographically smallest vectors
    mapping onto each member; the greedy loop adjoins any member whose
    preimage leaves the current Z-span, smallest element index first.
    """
    if not members:
        raise PreconditionError("members must be nonempty")
    k = len(ambient)
    width = 2 * radius + 1
    if width**k > box_cap:
        raise FeasibilityError("span preimage box exceeds feasibility ceiling")
    vals = _box_value_indices(group, ambient, radius)
    first_pos = np.full(group.order, -1, dtype=np.int64)
    first_pos[vals[::-1]] = np.arange(vals.size - 1, -1, -1, dtype=np.int64)
    ordered = sorted(members, key=lambda e: e.index)
    preimages: dict[int, list[int]] = {}
    for b in ordered:
        pos = int(first_pos[b.index])
        if pos < 0:
            raise PreconditionError(
                "member outside the bounded span of the ambient tuple"
            )
        preimages[b.index] = _decode_box_positions(
            np.asarray([pos], dtype=np.int64), k, radius
        )[0].tolist()
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
    coeffs: dict[int, list[int]] = {}
    s_max = 1
    for b in ordered:
        lam = _represent(frame, preimages[b.index], radius, radius)
        combo = group.zero
        for c, g in zip(lam, chosen):
            combo = combo + c * g
        if combo != b:
            raise TheoremViolationError("span cover coefficients do not reproduce member")
        coeffs[b.index] = lam
        s_max = max(s_max, max((abs(c) for c in lam), default=0))
    return SpanCover(chosen, s_max, coeffs, budget)
