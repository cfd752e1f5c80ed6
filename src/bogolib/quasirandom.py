"""Quasirandomness of bipartite graphs: box norm, correlation bound and the
one-sided criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TheoremViolationError

TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite graph as a boolean |X| x |Y| adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2:
            raise ValueError("adjacency must be a 2-d matrix")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def density(self) -> float:
        return float(self.adjacency.mean())


def box_norm(f: np.ndarray) -> float:
    """Fourth root of the average of f over 2x2 combinatorial boxes.

    Computed through the inner-correlation square, so the averaged
    quantity is nonnegative by construction.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("box norm needs a 2-d matrix")
    inner = (f @ f.T) / f.shape[1]
    fourth = float(np.mean(inner * inner))
    return max(fourth, 0.0) ** 0.25


def correlation_bound_check(
    f: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """|E f(x,y) u(x) v(y)| <= ||f||_box ||u||_2 ||v||_2 (with 1e-9 slack).

    Returns both sides; a violation raises since the inequality is a
    theorem.
    """
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nx, ny = f.shape
    lhs = abs(float(u @ f @ v)) / (nx * ny)
    rhs = (
        box_norm(f)
        * float(np.sqrt(np.mean(u * u)))
        * float(np.sqrt(np.mean(v * v)))
    )
    if lhs > rhs + TOLERANCE:
        raise TheoremViolationError(
            f"box-norm correlation bound violated: {lhs} > {rhs}"
        )
    return lhs, rhs


@dataclass(frozen=True)
class OneSidedResult:
    conditions_hold: bool
    box_bound_holds: bool
    degree_deviation: float  # E_x ||N_x| - delta |Y|| / |Y|
    pair_deviation: float  # E_{x,x'} ||N_x cap N_x'| - delta^2 |Y|| / |Y|
    box_norm: float


def one_sided_qr(graph: BipartiteGraph, delta: float, epsilon: float) -> OneSidedResult:
    """One-sided quasirandomness: degree and codegree concentration force a
    box-norm bound of 3 eps^(1/8) around the true density."""
    adj = graph.adjacency.astype(np.float64)
    nx, ny = adj.shape
    degrees = adj.sum(axis=1)
    e1 = float(np.mean(np.abs(degrees - delta * ny))) / ny
    codegrees = adj @ adj.T
    e2 = float(np.mean(np.abs(codegrees - delta * delta * ny))) / ny
    conditions = e1 <= epsilon + TOLERANCE and e2 <= epsilon + TOLERANCE
    actual = graph.density
    bn = box_norm(graph.adjacency.astype(np.float64) - actual)
    box_ok = True
    if conditions:
        if abs(actual - delta) > epsilon + TOLERANCE:
            raise TheoremViolationError("density drifted beyond epsilon")
        box_ok = bn <= 3 * epsilon**0.125 + TOLERANCE
        if not box_ok:
            raise TheoremViolationError(
                f"one-sided hypothesis held but box norm {bn} exceeds "
                f"{3 * epsilon ** 0.125}"
            )
    return OneSidedResult(conditions, box_ok, e1, e2, bn)
