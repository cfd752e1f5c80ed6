"""Exact integer matrix routines."""

import numpy as np

from bogolib import intmat


def test_row_hermite_transform_identity():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h, t = intmat.row_hermite(rows)
    for hrow, trow in zip(h, t):
        rebuilt = [
            sum(c * rows[j][k] for j, c in enumerate(trow)) for k in range(3)
        ]
        assert rebuilt == hrow


def _solve(vec, rows):
    return intmat.solve_over_hermite(vec, *intmat.row_hermite(rows), len(rows))


def test_solve_over_hermite():
    rows = [[2, 0], [0, 3]]
    assert _solve([4, 3], rows) == [2, 1]
    assert _solve([3, 0], rows) is None
    assert _solve([0, 0], rows) == [0, 0]
    assert _solve([0, 0], []) == []
    assert _solve([1], []) is None


def test_solve_random_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, n = rng.integers(1, 5), rng.integers(1, 5)
        rows = rng.integers(-5, 6, size=(m, n)).tolist()
        coeffs = rng.integers(-4, 5, size=m)
        vec = [int(sum(c * row[k] for c, row in zip(coeffs, rows))) for k in range(n)]
        got = _solve(vec, rows)
        assert got is not None
        rebuilt = [sum(c * row[k] for c, row in zip(got, rows)) for k in range(n)]
        assert rebuilt == vec


def test_det_and_adjugate():
    a = [[2, 1], [7, 4]]
    assert intmat.det_int(a) == 1
    adj = intmat.adjugate_int(a)
    assert adj == [[4, -1], [-7, 2]]
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = rng.integers(-6, 7, size=(n, n))
        assert intmat.det_int(m.tolist()) == round(float(np.linalg.det(m)))


def test_smith_normal_form():
    mats = [
        [[2, 0], [0, 3]],
        [[12, 6, 4], [3, 9, 6], [2, 16, 14]],
        [[2, 4], [6, 8]],
        [[0, 0], [0, 0]],
    ]
    rng = np.random.default_rng(2)
    mats += [rng.integers(-9, 10, size=(3, 3)).tolist() for _ in range(20)]
    mats += [rng.integers(-9, 10, size=shape).tolist() for shape in [(2, 3), (3, 2)] * 5]
    for m in mats:
        d, w = intmat.smith_normal_form(m)
        # U m == D W for a unimodular U: both span one row lattice
        dw = (np.array(d) @ np.array(w)).tolist()
        assert intmat.row_hermite(dw)[0] == intmat.row_hermite(m)[0]
        assert abs(intmat.det_int(w)) == 1
        assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            assert a >= 0


def test_smith_known_form():
    d, _ = intmat.smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    assert [d[i][i] for i in range(3)] == [1, 10, 30]
