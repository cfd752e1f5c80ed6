"""Bohr sets: exact membership, size bounds, the approximate size formula,
large-spectrum certification, the Bohr-sum identity and Bohr sets inside
coset progressions.

Radii are exact rationals throughout; membership ``||chi(x)|| <= rho`` is a
closed condition decided without floating point.  Frequency sets are
deduplicated on construction (repeats would silently skew the size
formula's box exponent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DensityShortfallError,
    GroupMismatchError,
    NoWeaklyRegularRadiusError,
    PreconditionError,
    TheoremViolationError,
)
from .fourier import GroupFunction, spectrum
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    annihilator_subgroup,
    bounded_span,
    subgroup_generators,
)
from .lattices import box_preimages
from .progressions import CosetProgression

_INT64_GUARD = 1 << 62
_MASK_BLOCK = 1 << 18  # entries per block of level masks


def _dedupe(frequencies: Sequence[Character]) -> tuple[Character, ...]:
    seen = set()
    out = []
    for chi in frequencies:
        if chi.coords not in seen:
            seen.add(chi.coords)
            out.append(chi)
    return tuple(out)


def level_masks(
    group: FiniteAbelianGroup, chars: np.ndarray, radius: Fraction
) -> np.ndarray:
    """Row i: the mask of {x : ||chi_i(x)|| <= radius}, chi_i = dual index chars[i].

    One ``char_numerators`` call for all rows; the comparison
    ``dist * den <= num * e`` is exact, in int64 while both sides stay below
    2^62 and in Python integers beyond.
    """
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    e = group.exponent
    num, den = radius.numerator, radius.denominator
    n = group.char_numerators(np.asarray(chars, dtype=np.int64), group.dual)
    dist_num = np.minimum(n, e - n)  # distance = dist_num / e
    if den * e < _INT64_GUARD and num * e < _INT64_GUARD:
        return dist_num * den <= num * e
    return (dist_num.astype(object) * den <= num * e).astype(bool)


def bohr_mask(
    group: FiniteAbelianGroup,
    frequencies: "Sequence[Character] | np.ndarray",
    radius: Fraction,
) -> np.ndarray:
    """Boolean membership mask of B(Gamma; rho) via exact comparisons.

    ``frequencies`` are characters of the dual, or an int64 array of their
    indices.  The level masks of ``level_masks`` are computed a block of
    characters at a time, one ``char_numerators`` call per block of about
    2^18 entries, and AND-ed together.
    """
    if Fraction(radius) < 0:
        raise ValueError("radius must be nonnegative")
    if isinstance(frequencies, np.ndarray):
        chars = frequencies.astype(np.int64).reshape(-1)
    else:
        if any(chi.group is not group.dual for chi in frequencies):
            raise GroupMismatchError("character does not belong to this group's dual")
        chars = np.asarray([chi.index for chi in frequencies], dtype=np.int64)
    mask = np.ones(group.order, dtype=bool)
    block = max(1, _MASK_BLOCK // group.order)
    for start in range(0, chars.size, block):
        mask &= level_masks(group, chars[start : start + block], radius).all(axis=0)
    return mask


@dataclass(frozen=True, eq=False)
class BohrSet:
    """B(Gamma; rho) = {x : ||chi(x)|| <= rho for all chi in Gamma}."""

    group: FiniteAbelianGroup
    frequencies: tuple[Character, ...]
    radius: Fraction

    def __post_init__(self):
        freqs = _dedupe(self.frequencies)
        for chi in freqs:
            if chi.group is not self.group.dual:
                raise GroupMismatchError("frequency outside the group's dual")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "radius", Fraction(self.radius))

    def contains(self, x: GroupElement) -> bool:
        from .groups import char_eval, torus_dist

        return all(torus_dist(char_eval(chi, x)) <= self.radius for chi in self.frequencies)

    @cached_property
    def _mask(self) -> np.ndarray:
        return bohr_mask(self.group, self.frequencies, self.radius)

    def enumerate(self) -> GroupSubset:
        return GroupSubset(self.group, self._mask)


def bohr_enumerate(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
) -> GroupSubset:
    return BohrSet(group, tuple(frequencies), Fraction(radius)).enumerate()


@dataclass(frozen=True)
class SizeBounds:
    size: int
    lower_bound: Fraction  # rho^k |G|
    doubled_size: Optional[int]  # |B(2 rho)| when 2 rho <= 1/2
    doubling_bound: Optional[int]  # 4^k |B(rho)|


def size_bounds(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
) -> SizeBounds:
    """Check |B| >= rho^k |G| and |B(2 rho)| <= 4^k |B(rho)| by enumeration.

    Both inequalities are theorems; a failure raises, signalling a bug.
    """
    freqs = _dedupe(frequencies)
    radius = Fraction(radius)
    k = len(freqs)
    b = bohr_enumerate(group, freqs, radius)
    lower = radius**k * group.order
    if b.size < lower:
        raise TheoremViolationError(
            f"Bohr lower bound violated: |B| = {b.size} < {lower}"
        )
    doubled_size = doubling_bound = None
    if 2 * radius <= Fraction(1, 2):
        b2 = bohr_enumerate(group, freqs, 2 * radius)
        doubled_size = b2.size
        doubling_bound = 4**k * b.size
        if doubled_size > doubling_bound:
            raise TheoremViolationError(
                f"Bohr doubling bound violated: {doubled_size} > {doubling_bound}"
            )
    return SizeBounds(b.size, lower, doubled_size, doubling_bound)


def annulus_size(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
    eta: Fraction,
) -> int:
    """|B(Gamma; rho + eta) \\ B(Gamma; rho)|, exactly."""
    outer = bohr_mask(group, frequencies, Fraction(radius) + Fraction(eta))
    inner = bohr_mask(group, frequencies, Fraction(radius))
    return int(np.count_nonzero(outer & ~inner))


def is_weakly_regular(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    radius: Fraction,
    eta: Fraction,
    epsilon: Fraction,
) -> bool:
    return annulus_size(group, frequencies, radius, eta) <= Fraction(epsilon) * group.order


def weak_regular_radius_search(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    rho_lo: Fraction,
    rho_hi: Fraction,
    eta: Fraction,
    epsilon: Fraction,
) -> Fraction:
    """First grid radius whose (eta-)annulus holds at most epsilon |G| points.

    The grid is rho_lo + j (rho_hi - rho_lo)/ceil(2/epsilon); when eta is at
    most the grid step the annuli are disjoint, so pigeonhole guarantees a
    hit.  Raises when no grid point qualifies.

    All sizes come from one histogram.  With e the exponent and
    d(x) = max_gamma min(n(x), e - n(x)), where gamma(x) = n(x)/e, the point
    x lies in B(r) iff d(x) <= r e iff d(x) <= floor(r e), so |B(r)| is the
    cumulative count of d up to floor(r e) and the annulus is
    |B(rho + eta)| - |B(rho)|.  The grid is scored a block at a time in
    integers over a common denominator, so floor(r e) and the closed
    boundary stay exact: in int64 while the scaled values stay below 2^62,
    in Python integers beyond.  ``is_weakly_regular`` decides the same
    condition by enumeration.
    """
    rho_lo, rho_hi = Fraction(rho_lo), Fraction(rho_hi)
    eta, epsilon = Fraction(eta), Fraction(epsilon)
    if not rho_lo < rho_hi:
        raise PreconditionError("need rho_lo < rho_hi")
    steps = math.ceil(2 / epsilon)
    step = (rho_hi - rho_lo) / steps
    if min(rho_lo, rho_lo + eta) < 0:
        raise ValueError("radius must be nonnegative")
    if any(chi.group is not group.dual for chi in frequencies):
        raise GroupMismatchError("character does not belong to this group's dual")
    e = group.exponent
    chars = np.asarray([chi.index for chi in frequencies], dtype=np.int64)
    dist = np.zeros(group.order, dtype=np.int64)
    block = max(1, _MASK_BLOCK // group.order)
    for start in range(0, chars.size, block):
        n = group.char_numerators(chars[start : start + block], group.dual)
        dist = np.maximum(dist, np.minimum(n, e - n).max(axis=0))
    cum = np.cumsum(np.bincount(dist, minlength=e // 2 + 1))
    den = math.lcm(rho_lo.denominator, step.denominator, eta.denominator)
    lo, dj, width = (v.numerator * (den // v.denominator) for v in (rho_lo, step, eta))
    num_eps, den_eps = epsilon.numerator, epsilon.denominator
    top = max(den, lo + steps * dj + max(width, 0)) * e
    wide = top >= _INT64_GUARD or max(abs(num_eps), den_eps) * group.order >= _INT64_GUARD
    dtype = object if wide else np.int64

    def size(scaled: np.ndarray) -> np.ndarray:
        # |B(scaled / den)| for each entry
        return cum[np.minimum(scaled * e // den, e // 2).astype(np.int64)]

    for start in range(0, steps + 1, _MASK_BLOCK):
        j = np.arange(start, min(start + _MASK_BLOCK, steps + 1)).astype(dtype)
        inner = lo + j * dj
        # the annulus is empty when eta < 0
        ann = np.maximum(0, size(inner + width) - size(inner)).astype(dtype)
        hits = np.flatnonzero(ann * den_eps <= num_eps * group.order)
        if hits.size:
            return rho_lo + (start + int(hits[0])) * step
    raise NoWeaklyRegularRadiusError(
        "no weakly regular radius on grid; retry with a finer grid"
    )


def formula_coefficients(rho: Fraction, eta: Fraction, cutoff: int) -> np.ndarray:
    """Fourier coefficients c_a of the trapezoid cutoff, a in [-K, K].

    c_0 = 2 rho + eta (the integral); for a != 0,
    c_a = sin(2 pi a (rho + eta/2)) sin(pi a eta) / (pi^2 a^2 eta).
    Real, even and bounded by 1 in absolute value.
    """
    rho_f, eta_f = float(rho), float(eta)
    if 2 * rho_f + eta_f > 1 + 1e-12:
        raise PreconditionError("need 2 rho + eta <= 1 for coefficients in the disc")
    a = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (
            np.sin(2 * np.pi * a * (rho_f + eta_f / 2))
            * np.sin(np.pi * a * eta_f)
            / (np.pi**2 * a**2 * eta_f)
        )
    c[cutoff] = 2 * rho_f + eta_f
    return c


def size_formula_cutoff(k: int, eta: Fraction, epsilon: Fraction) -> int:
    """K = ceil(2 e k / (eta epsilon)) for the size formula."""
    return math.ceil(2 * math.e * k / float(Fraction(eta) * Fraction(epsilon)))


def spectrum_cutoff(k: int, eta: Fraction, epsilon: Fraction) -> int:
    """K = ceil(8 e k / (eta epsilon)) for large-spectrum certification."""
    return math.ceil(8 * math.e * k / float(Fraction(eta) * Fraction(epsilon)))


@dataclass(frozen=True)
class SizeFormulaParams:
    """Parameter bundle for the size formula: cutoff and coefficients.

    Coefficients are real, even, and sit in the unit disc; ``c_0`` equals
    ``2 rho + eta``.
    """

    rho: Fraction
    eta: Fraction
    epsilon: Fraction
    cutoff: int
    coefficients: np.ndarray  # index a + cutoff, a in [-cutoff, cutoff]

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.shape != (2 * self.cutoff + 1,):
            raise ValueError("coefficient vector must cover [-K, K]")
        if np.any(np.abs(c) > 1 + 1e-9):
            raise TheoremViolationError("coefficients escaped the unit disc")
        if not np.allclose(c, c[::-1]):
            raise TheoremViolationError("coefficients must be even in a")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def for_size_formula(
        cls, k: int, rho: Fraction, eta: Fraction, epsilon: Fraction
    ) -> "SizeFormulaParams":
        cutoff = size_formula_cutoff(k, eta, epsilon)
        return cls(
            Fraction(rho), Fraction(eta), Fraction(epsilon), cutoff,
            formula_coefficients(rho, eta, cutoff),
        )


def bohr_size_estimate(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    rho: Fraction,
    eta: Fraction,
    epsilon: Fraction,
) -> float:
    """Size formula |G| sum_{lambda in [-K, K]^k, sum lambda_i gamma_i = 0}
    prod_i c_{lambda_i}, an estimate of |B(Gamma; rho)|.

    The box sum is taken on the dual group.  Pushing the coefficients
    forward along a -> a gamma_i gives F_i(xi) = sum_{a gamma_i = xi} c_a
    (colliding multiples are summed, as the box counts them), and the sum
    is (F_1 * ... * F_k)(0), the mean over the dual of prod_i fftn(F_i).
    ``lattices.annihilator_points`` lists the box itself.

    Under weak regularity of (Gamma, rho, eta, epsilon) the error is at
    most 2 epsilon |G|; that bound is asserted by the callers/tests, never
    assumed here.
    """
    freqs = _dedupe(frequencies)
    k = len(freqs)
    if k == 0:
        return float(group.order)
    if Fraction(rho) + Fraction(eta) > Fraction(1, 2):
        raise PreconditionError("size estimate needs rho + eta <= 1/2")
    params = SizeFormulaParams.for_size_formula(k, rho, eta, epsilon)
    dual = group.dual
    a = np.arange(-params.cutoff, params.cutoff + 1, dtype=np.int64)
    spectrum = np.ones(dual.tensor_shape, dtype=np.complex128)
    for gamma in freqs:
        if gamma.group is not dual:
            raise GroupMismatchError("frequency outside the group's dual")
        image = dual.index_of_coords(a[:, None] * np.asarray(gamma.coords, dtype=np.int64))
        pushed = np.bincount(image, weights=params.coefficients, minlength=dual.order)
        spectrum *= np.fft.fftn(pushed.reshape(dual.tensor_shape))
    return float(spectrum.mean().real * group.order)


def large_spectrum_certify(
    group: FiniteAbelianGroup,
    frequencies: Sequence[Character],
    rho: Fraction,
    eta: Fraction,
    epsilon: Fraction,
    chi: Character,
) -> Optional[tuple[int, ...]]:
    """Representation chi = sum a_i gamma_i with |a_i| <= K, or None.

    ``lattices.box_preimages`` decides exactly whether the coefficient box
    holds a representation, so under the large-coefficient hypothesis of
    the certification theorem one is always found.  The lexicographically
    smallest one is returned, each coefficient canonicalized to its
    balanced residue.
    """
    freqs = _dedupe(frequencies)
    k = len(freqs)
    dual = group.dual
    if chi.group is not dual:
        raise GroupMismatchError("chi must live in the dual group")
    cutoff = spectrum_cutoff(k, eta, epsilon)
    which, vecs = box_preimages(dual, freqs, cutoff, np.asarray([chi.index]), first=True)
    if which.size == 0:
        return None
    # canonicalize each coefficient to the balanced residue mod the
    # character order; the combination is unchanged and stays in the box
    out = []
    for a, gamma in zip(vecs[0].tolist(), freqs):
        ordg = gamma.order
        bal = ((a + ordg // 2) % ordg) - ordg // 2
        out.append(bal if abs(bal) <= cutoff else a)
    return tuple(out)


def verify_bohr_sum(
    group: FiniteAbelianGroup,
    freqs1: Sequence[Character],
    rho1: Fraction,
    freqs2: Sequence[Character],
    rho2: Fraction,
    span_radius: int,
) -> bool:
    """Containment B(<G1>_R cap <G2>_R; 1/4) subseteq B(G1; rho1) + B(G2; rho2)."""
    dual = group.dual
    span1 = bounded_span(dual, list(freqs1), span_radius)
    span2 = bounded_span(dual, list(freqs2), span_radius)
    inter = span1 & span2
    lhs = bohr_mask(group, list(inter.elements()), Fraction(1, 4))
    rhs = bohr_enumerate(group, freqs1, rho1) + bohr_enumerate(group, freqs2, rho2)
    return not np.any(lhs & ~rhs.mask)


def find_min_r(
    group: FiniteAbelianGroup,
    freqs1: Sequence[Character],
    rho1: Fraction,
    freqs2: Sequence[Character],
    rho2: Fraction,
) -> int:
    """Smallest power-of-two span radius making the Bohr-sum containment hold.

    Doubles R instead of scanning linearly; spans stabilize by R = exponent,
    where the containment is a theorem, so failure past that point raises.
    """
    r = 1
    cap = group.dual.exponent
    while True:
        if verify_bohr_sum(group, freqs1, rho1, freqs2, rho2, r):
            return r
        if r >= cap:
            raise TheoremViolationError("Bohr-sum containment failed at stabilized span")
        r = min(2 * r, cap)


def dense_difference_cover(
    subset: GroupSubset,
    frequencies: Sequence[Character],
    radius: Fraction,
) -> bool:
    """A - A covers B(Gamma; rho/2) for dense A inside B(Gamma; rho).

    Requires |A| >= (1 - 4^(-k-1)) |B|; under that hypothesis the covering
    is a theorem, so a containment failure raises.
    """
    freqs = _dedupe(frequencies)
    radius = Fraction(radius)
    k = len(freqs)
    b = bohr_enumerate(subset.group, freqs, radius)
    if not subset.is_subset_of(b):
        raise PreconditionError("A must be contained in the Bohr set")
    required = (1 - Fraction(1, 4 ** (k + 1))) * b.size
    if subset.size < required:
        raise DensityShortfallError(
            "density below the covering hypothesis", required, subset.size
        )
    diff = subset.diffset(subset)
    half = bohr_enumerate(subset.group, freqs, radius / 2)
    if not half.is_subset_of(diff):
        raise TheoremViolationError("dense difference cover failed")
    return True


def bohr_in_progression(progression: CosetProgression) -> BohrSet:
    """Bohr set contained in a symmetric coset progression, verified.

    Construction: shrink the progression by an even factor d = 4, 6, 8, 12,
    16, 24 or 32, take the large spectrum of the shrunk copy at threshold
    ``delta^(1+1/(d-2))/2`` and use radius 1/4; the d-fold positivity
    argument puts the Bohr set back inside the progression, and the first
    factor whose set passes the direct containment check is kept, however
    many frequencies its spectrum has.  Fallbacks: the annihilator of the
    subgroup part, then the full dual (which pins {0}); the largest of the
    candidates is returned.
    """
    if not progression.is_symmetric:
        raise PreconditionError("progression must be symmetric")
    group = progression.group
    dual = group.dual
    target = progression.enumerate()
    exponent = group.exponent
    pin_radius = Fraction(1, 4 * exponent)

    candidates: list[BohrSet] = []
    for d in (4, 6, 8, 12, 16, 24, 32):
        arms = [
            (arm.generator, arm.hi // d)
            for arm in progression.arms
            if arm.hi // d >= 1
        ]
        shrunk = CosetProgression._derived(
            group,
            group.zero,
            tuple(
                CosetProgression.Arm(gen, -half, half) for gen, half in arms
            ),
            progression.subgroup,
        )
        qmask = shrunk.enumerate()
        if qmask.size <= 1:
            continue  # the pinning fallback handles the degenerate case
        delta = Fraction(qmask.size, group.order)
        threshold = float(delta) ** (1 + 1 / (d - 2)) / 2
        freqs = spectrum(GroupFunction.indicator(qmask), threshold)
        cand = BohrSet(group, tuple(freqs), Fraction(1, 4))
        if cand.enumerate().is_subset_of(target):
            candidates.append(cand)
            break
    ann = subgroup_generators(annihilator_subgroup(progression.subgroup))
    cand = BohrSet(group, tuple(ann), pin_radius)
    if cand.enumerate().is_subset_of(target):
        candidates.append(cand)
    basis = [
        dual.element(tuple(1 if j == i else 0 for j in range(dual.rank)))
        for i in range(dual.rank)
    ]
    candidates.append(BohrSet(group, tuple(basis), pin_radius))
    best = max(candidates, key=lambda b: b.enumerate().size)
    if not best.enumerate().is_subset_of(target):
        raise TheoremViolationError("fallback Bohr set escaped the progression")
    return best
