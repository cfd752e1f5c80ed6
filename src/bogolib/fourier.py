"""Discrete Fourier analysis on finite abelian groups.

Conventions (expectation-normalized):

    fhat(chi)   = E_x f(x) e(-chi(x))
    (f * g)(x)  = E_y f(y) g(x - y)          so  (f * g)^ = fhat * ghat
    f(x)        = sum_chi fhat(chi) e(chi(x))

Transforms run through ``numpy.fft`` per cyclic factor (the tensor
decomposition of the group); all float comparisons use the global 1e-9
absolute tolerance, and integer-valued counts are rounded and checked
against exact combinatorics in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .errors import GroupMismatchError, PreconditionError
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
)

TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """Dense complex-valued function on a group, indexed by element."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise ValueError("value vector length must equal group order")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def indicator(cls, subset: GroupSubset) -> "GroupFunction":
        return cls(subset.group, subset.mask.astype(np.complex128))

    @classmethod
    def constant(cls, group: FiniteAbelianGroup, c: complex) -> "GroupFunction":
        return cls(group, np.full(group.order, c, dtype=np.complex128))

    def _check(self, other: "GroupFunction") -> None:
        if self.group is not other.group:
            raise GroupMismatchError("functions live on different groups")

    def mean(self) -> complex:
        return complex(self.values.mean())


def dft(f: GroupFunction) -> GroupFunction:
    """Transform onto the dual group: fhat(chi) = E_x f(x) e(-chi(x))."""
    shape = f.group.tensor_shape
    spec = np.fft.fftn(f.values.reshape(shape)) / f.group.order
    return GroupFunction(f.group.dual, spec.reshape(-1))


def idft(fhat: GroupFunction) -> GroupFunction:
    """Inverse transform: f(x) = sum_chi fhat(chi) e(chi(x))."""
    shape = fhat.group.tensor_shape
    vals = np.fft.ifftn(fhat.values.reshape(shape)) * fhat.group.order
    return GroupFunction(fhat.group.dual, vals.reshape(-1))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f * g)(x) = E_y f(y) g(x - y)."""
    f._check(g)
    shape = f.group.tensor_shape
    spec = np.fft.fftn(f.values.reshape(shape)) * np.fft.fftn(g.values.reshape(shape))
    vals = np.fft.ifftn(spec).reshape(-1) / f.group.order
    return GroupFunction(f.group, vals)


def quadruple_count_all(subset: GroupSubset) -> np.ndarray:
    """count(x) = #{(a1,a2,a3,a4) in A^4 : a1 + a2 - a3 - a4 = x} for all x.

    Computed as the nearest integer to ``|G|^3 (1_A * 1_A * 1_{-A} * 1_{-A})(x)``;
    the transform side is ``|1hat_A|^4`` which is nonnegative real.
    """
    g = subset.group
    shape = g.tensor_shape
    spec = np.fft.fftn(subset.mask.reshape(shape).astype(np.float64))
    counts = np.fft.ifftn(np.abs(spec) ** 4).real.reshape(-1)
    return np.rint(counts).astype(np.int64)


def quadruple_count(subset: GroupSubset, x: GroupElement) -> int:
    if x.group is not subset.group:
        raise GroupMismatchError("element from a different group")
    return int(quadruple_count_all(subset)[x.index])


def spectrum(f: GroupFunction, threshold: float) -> list[Character]:
    """Characters chi with |fhat(chi)| >= threshold (1e-9 inclusive slack)."""
    if threshold <= 0:
        raise PreconditionError("spectrum threshold must be positive")
    spec = dft(f)
    hits = np.flatnonzero(np.abs(spec.values) >= float(threshold) - TOLERANCE)
    dual = f.group.dual
    return [dual.element_from_index(int(i)) for i in hits]


def bogolyubov_bohr_in_2A2A(subset: GroupSubset):
    """Bohr set B(Gamma; 1/4) inside 2A - 2A, with verified containment.

    Gamma is the large spectrum of 1_A; the threshold starts at alpha^2/2
    and halves until the containment check passes.  Termination: once the
    threshold drops below every nonzero coefficient, Gamma covers the full
    support of the transform and the positivity argument is exact.
    """
    from .bohr import BohrSet, bohr_mask  # local import to avoid a cycle

    if subset.size == 0:
        raise PreconditionError("Bogolyubov argument needs a nonempty set")
    g = subset.group
    alpha = Fraction(subset.size, g.order)
    diff = subset.diffset(subset)
    target = diff.sumset(diff)  # 2A - 2A = (A - A) + (A - A)
    f = GroupFunction.indicator(subset)
    coeffs = np.abs(dft(f).values)
    floor = float(coeffs[coeffs > TOLERANCE].min()) if np.any(coeffs > TOLERANCE) else 1.0
    threshold = float(alpha * alpha / 2)
    dual = g.dual
    while True:
        hits = np.flatnonzero(coeffs >= threshold - TOLERANCE)
        if GroupSubset(g, bohr_mask(g, hits, Fraction(1, 4))).is_subset_of(target):
            frequencies = tuple(dual.element_from_index(int(i)) for i in hits)
            return BohrSet(g, frequencies, Fraction(1, 4))
        if threshold < floor:  # full support reached; cannot happen past here
            raise AssertionError("Bogolyubov verification failed at full spectrum")
        threshold /= 2
