"""Quasirandomness of bipartite graphs: box norm, correlation bound,
neighborhood statistics and the one-sided criterion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError, TheoremViolationError
from .rng import derive_rng

TOLERANCE = 1e-9
EXHAUSTIVE_CUTOFF = 1 << 16  # k-tuples above which neighborhood_stats samples (a memory guard)
NEIGHBORHOOD_SAMPLES = 10_000


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

    def balanced(self) -> np.ndarray:
        """G - delta as a float matrix."""
        return self.adjacency.astype(np.float64) - self.density


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
class NeighborhoodStats:
    deviation_probability: float
    bound: float
    sampled: bool
    samples: int


def neighborhood_stats(
    graph: BipartiteGraph,
    k: int,
    m: int,
    tuple_set: Optional[np.ndarray],
    eta: float,
) -> NeighborhoodStats:
    """Deviation probability of |N_{x_1..x_k}^m cap M| from delta^{mk} |M|.

    ``tuple_set`` is an (n, m) integer array of m-tuples in Y (defaults to
    all of Y^m for m = 1).  The empirical probability is checked against
    ``4 k m eta^{-2} eps`` (plus 3-sigma slack when sampled), where eps is
    the exact box norm of G - delta.
    """
    adj = graph.adjacency
    nx, ny = adj.shape
    if tuple_set is None:
        if m != 1:
            raise PreconditionError("explicit tuple set required for m > 1")
        tuple_set = np.arange(ny, dtype=np.int64)[:, None]
    tuple_set = np.asarray(tuple_set, dtype=np.int64)
    if tuple_set.ndim != 2 or tuple_set.shape[1] != m:
        raise ValueError("tuple set must be (n, m)")
    delta = graph.density
    eps = box_norm(graph.balanced())
    target = delta ** (m * k) * tuple_set.shape[0]
    total = nx**k
    sampled = total > EXHAUSTIVE_CUTOFF
    if sampled:
        draws = derive_rng(0, 23).integers(0, nx, size=(NEIGHBORHOOD_SAMPLES, k))
    else:
        draws = np.stack(
            np.meshgrid(*([np.arange(nx)] * k), indexing="ij"), axis=-1
        ).reshape(-1, k)
    deviations = 0
    for row in draws:
        common = np.ones(ny, dtype=bool)
        for x in row:
            common &= adj[int(x)]
        hit = np.all(common[tuple_set], axis=1).sum()
        if abs(float(hit) - target) >= eta * float(ny) ** m:
            deviations += 1
    p_hat = deviations / draws.shape[0]
    bound = 4 * k * m * eps / (eta * eta)
    slack = 0.0
    if sampled:
        slack = 3 * np.sqrt(max(p_hat * (1 - p_hat), 1.0 / draws.shape[0]) / draws.shape[0])
    if p_hat > bound + slack:
        raise TheoremViolationError(
            f"neighborhood deviation probability {p_hat} exceeds bound {bound}"
        )
    return NeighborhoodStats(p_hat, bound, sampled, draws.shape[0])


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
