"""Discrete Fourier analysis on finite abelian groups.

Conventions (expectation-normalized):

    fhat(chi)   = E_x f(x) e(-chi(x))
    (f * g)(x)  = E_y f(y) g(x - y)          so  (f * g)^ = fhat * ghat
    f(x)        = sum_chi fhat(chi) e(chi(x))

Transforms run through ``numpy.fft`` per cyclic factor (the tensor
decomposition of the group); all float comparisons use the global 1e-9
absolute tolerance.  Integer-valued counts come from real FFTs (the shared
helper ``groups._convolution_counts``, or ``_quadruple_counts``) and are
rounded by ``groups._exact_counts``, which raises ArithmeticError on a count
1/4 or more from an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .errors import GroupMismatchError, PreconditionError, TheoremViolationError
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    _convolution_counts,
    _exact_counts,
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


def _quadruple_counts(group: FiniteAbelianGroup, mask: np.ndarray) -> np.ndarray:
    """Float counts ``|G|^3 (1_A * 1_A * 1_{-A} * 1_{-A})(x)`` from one real-FFT
    pair; the transform side is ``|1hat_A|^4``, nonnegative real."""
    shape = group.tensor_shape
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(mask.reshape(shape).astype(np.float64), axes=axes)
    return np.fft.irfftn(np.abs(spec) ** 4, s=shape, axes=axes).reshape(-1)


def quadruple_count_all(subset: GroupSubset) -> np.ndarray:
    """count(x) = #{(a1,a2,a3,a4) in A^4 : a1 + a2 - a3 - a4 = x} for all x.

    One real-FFT pair (``_quadruple_counts``), rounded by ``_exact_counts``.
    """
    return _exact_counts(_quadruple_counts(subset.group, subset.mask)).astype(np.int64)


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


def _bogolyubov_spectra(group: FiniteAbelianGroup, rows: np.ndarray) -> list[np.ndarray]:
    """Per row of the (n, |G|) boolean ``rows`` (each nonempty): the dual
    indices Gamma with B(Gamma; 1/4) inside 2A - 2A, A the row.

    Gamma is the large spectrum {|1hat_A| >= alpha^2/2}.  Positivity puts
    B(Gamma; 1/4) inside 2A - 2A for every threshold below alpha^(3/2): the
    trivial character alone gives alpha^4, each kept character adds a term of
    nonnegative real part on B(Gamma; 1/4), and the excluded ones add at most
    t^2 alpha in absolute value.  Every row is still checked exactly, one
    ``bohr_mask`` call against 2A - 2A, and a failure raises
    ``TheoremViolationError``.  A block of rows (about 2^18 entries) takes
    two batched checked real-FFT counts for A - A and 2A - 2A and one
    ``fftn`` over the group axes for the coefficients, divided by |G| as in
    ``dft``.
    """
    from .bohr import bohr_mask  # local import to avoid a cycle

    quarter = Fraction(1, 4)
    shape = group.tensor_shape
    axes = tuple(range(1, 1 + len(shape)))
    out: list[np.ndarray] = []
    block = max(1, (1 << 18) // group.order)
    for start in range(0, rows.shape[0], block):
        blk = rows[start : start + block]
        diff = _exact_counts(_convolution_counts(group, blk)) > 0
        target = _exact_counts(_convolution_counts(group, diff, diff)) > 0
        spec = np.fft.fftn(blk.reshape((-1,) + shape).astype(np.complex128), axes=axes)
        coeffs = np.abs(spec.reshape(blk.shape) / group.order)
        for r in range(blk.shape[0]):
            alpha = Fraction(int(blk[r].sum()), group.order)
            hits = np.flatnonzero(coeffs[r] >= float(alpha * alpha / 2) - TOLERANCE)
            if np.any(bohr_mask(group, hits, quarter) & ~target[r]):
                raise TheoremViolationError("Bogolyubov Bohr set escaped 2A - 2A")
            out.append(hits)
    return out


def bogolyubov_bohr_in_2A2A(subset: GroupSubset):
    """Bohr set B(Gamma; 1/4) inside 2A - 2A, with verified containment.

    Gamma is the large spectrum {|1hat_A| >= alpha^2/2}; positivity
    guarantees the containment below alpha^(3/2), and it is checked exactly
    (``TheoremViolationError`` on failure).  This is the one-row call of
    ``_bogolyubov_spectra``, wrapped in a BohrSet.
    """
    from .bohr import BohrSet  # local import to avoid a cycle

    if subset.size == 0:
        raise PreconditionError("Bogolyubov argument needs a nonempty set")
    g = subset.group
    (hits,) = _bogolyubov_spectra(g, subset.mask[None])
    dual = g.dual
    return BohrSet(g, tuple(dual.element_from_index(int(i)) for i in hits), Fraction(1, 4))
