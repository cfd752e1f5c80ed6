"""Exact integer-matrix utilities: Hermite/Smith reduction, lattice solves.

Everything here works on plain Python ints (arbitrary precision) because
adjugate entries and Smith pivots grow factorially with dimension; no
floating point is involved anywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

Matrix = list[list[int]]


def _as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return [[int(x) for x in row] for row in rows]


def row_hermite(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row-style Hermite form of the lattice spanned by ``rows``.

    Returns ``(H, T)`` where ``H`` is in row echelon form over Z with
    positive pivots, zero rows removed, and ``T`` satisfies
    ``H[i] == sum_j T[i][j] * rows[j]``.
    """
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    work = _as_matrix(rows)
    trans = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(n):
        # euclid all entries of this column below pivot_row into one pivot
        while True:
            nz = [i for i in range(pivot_row, m) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(work[i][col]))
            if work[i_min][col] < 0:
                work[i_min] = [-x for x in work[i_min]]
                trans[i_min] = [-x for x in trans[i_min]]
            if i_min != pivot_row:
                work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
                trans[pivot_row], trans[i_min] = trans[i_min], trans[pivot_row]
            p = work[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, m):
                q = work[i][col] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                    trans[i] = [a - q * b for a, b in zip(trans[i], trans[pivot_row])]
                if work[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < m and work[pivot_row][col] != 0:
            # reduce entries above the pivot into canonical range
            p = work[pivot_row][col]
            for i in range(pivot_row):
                q = work[i][col] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                    trans[i] = [a - q * b for a, b in zip(trans[i], trans[pivot_row])]
            pivot_row += 1
        if pivot_row == m:
            break
    keep = [i for i in range(m) if any(work[i])]
    return [work[i] for i in keep], [trans[i] for i in keep]


def solve_over_hermite(
    vec: Sequence[int], hermite: Matrix, trans: Matrix, m: int
) -> Optional[list[int]]:
    """Integer coefficients expressing ``vec`` over ``m`` rows, or None.

    Takes ``(H, T) = row_hermite(rows)``, so one Hermite form serves many
    right-hand sides: returns ``c`` with ``vec == sum_i c[i] * rows[i]``
    when ``vec`` lies in the integer row span, decided exactly.
    """
    coeffs_h = hermite_coefficients(vec, hermite)
    if coeffs_h is None:
        return None
    out = [0] * m
    for i, c in enumerate(coeffs_h):
        if c:
            for j in range(m):
                out[j] += c * trans[i][j]
    return out


def hermite_coefficients(
    vec: Sequence[int], hermite: Sequence[Sequence[int]]
) -> Optional[list[int]]:
    """Coefficients of ``vec`` over the rows of a Hermite form, or None.

    ``hermite`` is the ``H`` of :func:`row_hermite`; reducing ``vec``
    pivot by pivot decides membership in its row lattice exactly.
    """
    residue = [int(x) for x in vec]
    coeffs_h = [0] * len(hermite)
    for i, hrow in enumerate(hermite):
        col = next((j for j, x in enumerate(hrow) if x != 0), None)
        if col is None:
            continue
        if residue[col] % hrow[col] != 0:
            # pivots are the elementary divisors of the echelon; a
            # non-exact division on a pivot column means non-membership
            # only after all earlier pivots were cleared
            return None
        q = residue[col] // hrow[col]
        coeffs_h[i] = q
        if q:
            residue = [a - q * b for a, b in zip(residue, hrow)]
    if any(residue):
        return None
    return coeffs_h


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    a = _as_matrix(mat)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_int(mat: Sequence[Sequence[int]]) -> Matrix:
    """Adjugate matrix (transpose of cofactors), exact."""
    n = len(mat)
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    return adj


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Smith form with its column transform inverted: returns (D, W) with
    ``U @ mat == D @ W`` for some unimodular U.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; W is
    unimodular, the inverse of the V with ``U @ mat @ V == D``, kept by
    applying each column move's inverse to W's rows.
    """
    a = _as_matrix(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def addmul_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        W[src] = [x + q * y for x, y in zip(W[src], W[dst])]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                    changed = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                    changed = True
            if not changed:
                break
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return a, W
