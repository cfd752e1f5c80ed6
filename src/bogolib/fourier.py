"""Discrete Fourier analysis on finite abelian groups.

Convention (expectation-normalized): for an indicator set A,

    1hat_A(chi) = E_x 1_A(x) e(-chi(x)).

``dft`` computes it for boolean masks through ``numpy.fft`` per cyclic
factor (the tensor decomposition of the group); all float comparisons use
the global 1e-9 absolute tolerance.  Integer-valued counts come from real
FFTs (the shared helper ``groups._convolution_counts``, or
``_quadruple_counts``) and are rounded by ``groups._exact_counts``, which
raises ArithmeticError on a count 1/4 or more from an integer.  Like
``dft``, ``quadruple_count_all`` takes masks batched over leading axes, so
many sets on one group share one real-FFT pair.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .errors import PreconditionError, TheoremViolationError
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupSubset,
    _convolution_counts,
    _exact_counts,
)

TOLERANCE = 1e-9


def dft(group: FiniteAbelianGroup, masks: np.ndarray) -> np.ndarray:
    """1hat_A(chi) for every chi (by dual index), A each mask (by element index).

    ``masks`` has shape (..., |G|); the leading axes are a batch, each
    transformed alone, and the result is complex of the same shape.
    """
    masks = np.asarray(masks)
    shape = group.tensor_shape
    batch = masks.shape[:-1]
    axes = tuple(range(len(batch), len(batch) + len(shape)))
    spec = np.fft.fftn(masks.reshape(batch + shape).astype(np.complex128), axes=axes)
    return spec.reshape(masks.shape) / group.order


def _quadruple_counts(group: FiniteAbelianGroup, masks: np.ndarray) -> np.ndarray:
    """Float counts ``|G|^3 (1_A * 1_A * 1_{-A} * 1_{-A})(x)`` for each mask
    (last axis by element index, leading axes a batch) from one real-FFT
    pair; the transform side is ``|1hat_A|^4``, nonnegative real."""
    shape = group.tensor_shape
    batch = masks.shape[:-1]
    axes = tuple(range(len(batch), len(batch) + len(shape)))
    spec = np.fft.rfftn(masks.reshape(batch + shape).astype(np.float64), axes=axes)
    return np.fft.irfftn(np.abs(spec) ** 4, s=shape, axes=axes).reshape(masks.shape)


def quadruple_count_all(group: FiniteAbelianGroup, masks: np.ndarray) -> np.ndarray:
    """count(x) = #{(a1,a2,a3,a4) in A^4 : a1 + a2 - a3 - a4 = x} for all x,
    A each mask; batched over leading axes like ``dft``.

    One real-FFT pair (``_quadruple_counts``), rounded by ``_exact_counts``.
    """
    return _exact_counts(_quadruple_counts(group, np.asarray(masks))).astype(np.int64)


def spectrum(subset: GroupSubset, threshold: float) -> list[Character]:
    """Characters chi with |1hat_A(chi)| >= threshold (1e-9 inclusive slack)."""
    if threshold <= 0:
        raise PreconditionError("spectrum threshold must be positive")
    group = subset.group
    hits = np.flatnonzero(np.abs(dft(group, subset.mask)) >= float(threshold) - TOLERANCE)
    return [group.dual.element_from_index(int(i)) for i in hits]


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
    batched ``dft`` for the coefficients.
    """
    from .bohr import bohr_mask  # local import to avoid a cycle

    quarter = Fraction(1, 4)
    out: list[np.ndarray] = []
    block = max(1, (1 << 18) // group.order)
    for start in range(0, rows.shape[0], block):
        blk = rows[start : start + block]
        diff = _exact_counts(_convolution_counts(group, blk)) > 0
        target = _exact_counts(_convolution_counts(group, diff, diff)) > 0
        coeffs = np.abs(dft(group, blk))
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
