"""Discrete Fourier analysis on finite abelian groups.

Convention (expectation-normalized): for an indicator set A,

    1hat_A(chi) = E_x 1_A(x) e(-chi(x)).

``dft`` computes it for boolean masks through ``numpy.fft`` per cyclic
factor (the tensor decomposition of the group); all float comparisons use
the global 1e-9 absolute tolerance.  Integer-valued counts come from the
two real-FFT kernels, ``groups._convolution_counts`` and
``quadruple_count_all``, which return them exact (see
``groups._exact_counts``).  Like ``dft``, ``quadruple_count_all`` takes
masks batched over leading axes, so many sets on one group share one call;
it transforms them in row blocks of about ``groups._COUNT_BLOCK`` entries,
one real-FFT pair per block.  The Bogolyubov check reads 2A - 2A as the
support of that one count, and every row's Bohr set B(Gamma; 1/4) from one
exact 0/1 product per block of characters: x is in it when no kept
character is far.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .errors import PreconditionError, TheoremViolationError
from .groups import Character, FiniteAbelianGroup, GroupSubset, _exact_counts, _row_blocks

TOLERANCE = 1e-9
_SPECTRA_BLOCK = 1 << 18  # entries per block of _bogolyubov_spectra's rows


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


def quadruple_count_all(group: FiniteAbelianGroup, masks: np.ndarray) -> np.ndarray:
    """count(x) = #{(a1,a2,a3,a4) in A^4 : a1 + a2 - a3 - a4 = x} for all x,
    A each mask; batched over leading axes like ``dft``.

    One real-FFT pair per row block (``groups._row_blocks``): the counts are
    |G|^3 (1_A * 1_A * 1_{-A} * 1_{-A}), whose transform side is
    ``|1hat_A|^4``, nonnegative real; each block leaves as int64, rounded
    and checked by ``groups._exact_counts``, into one preallocated result.
    """
    masks = np.asarray(masks)
    shape = group.tensor_shape
    axes = tuple(range(1, len(shape) + 1))
    rows = masks.reshape((-1,) + shape)
    out = np.empty(masks.shape, dtype=np.int64)
    flat = out.reshape(-1, group.order)
    for blk in _row_blocks(group, flat.shape[0]):
        power = np.abs(np.fft.rfftn(rows[blk].astype(np.float64), axes=axes))
        power **= 4
        counts = np.fft.irfftn(power, s=shape, axes=axes)
        flat[blk] = _exact_counts(counts.reshape(-1, group.order))
    return out


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
    t^2 alpha in absolute value.  Every row is still checked exactly, its
    Bohr set against 2A - 2A, and a failure raises ``TheoremViolationError``.
    A block of rows (about 2^18 entries) takes one batched ``dft`` for the
    coefficients and one ``quadruple_count_all`` pass, whose support is
    2A - 2A.  x lies in B(Gamma_r; 1/4) exactly when no character of Gamma_r
    is far at x (``e ||chi(x)|| > e/4``): the far counts of every row come
    from one product of the kept characters against their far table, a
    block of characters (about 2^18 entries) at a time, so rows that share
    characters share their distances.
    """
    from .bohr import char_distances, within_radius  # local import to avoid a cycle

    quarter = Fraction(1, 4)
    out: list[np.ndarray] = []
    block = max(1, _SPECTRA_BLOCK // group.order)
    for start in range(0, rows.shape[0], block):
        blk = rows[start : start + block]
        target = quadruple_count_all(group, blk) > 0
        coeffs = np.abs(dft(group, blk))
        # alpha^2/2 = |A|^2 / (2 |G|^2): both integers are exact in float64,
        # so the one division is the correctly rounded threshold
        threshold = blk.sum(axis=1) ** 2 / (2 * group.order**2)
        hit = coeffs >= threshold[:, None] - TOLERANCE
        kept = np.flatnonzero(hit.any(axis=0))
        far = np.zeros(blk.shape, dtype=np.float64)  # far characters of each row at x
        for c0 in range(0, kept.size, block):
            cs = kept[c0 : c0 + block]
            table = ~within_radius(group, char_distances(group, cs), quarter)
            # a float64 product of 0/1 entries is an exact integer count
            far += hit[:, cs].astype(np.float64) @ table.astype(np.float64)
        if np.any((far == 0) & ~target):
            raise TheoremViolationError("Bogolyubov Bohr set escaped 2A - 2A")
        out.extend(np.flatnonzero(h) for h in hit)
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
