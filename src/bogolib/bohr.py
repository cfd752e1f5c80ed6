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
from .fourier import spectrum
from .groups import (
    Character,
    FiniteAbelianGroup,
    GroupSubset,
    annihilator_subgroup,
    bounded_span,
    subgroup_generators,
)
from .lattices import box_preimages
from .progressions import Arm, CosetProgression

_MASK_BLOCK = 1 << 18  # entries per block of character distances


def char_distances(group: FiniteAbelianGroup, chars: np.ndarray) -> np.ndarray:
    """Row i: e ||chi_i(x)|| for every x (by index), chi_i = dual index chars[i].

    e is the exponent, so each entry is the integer numerator of the torus
    distance over e; shape (len(chars), |G|), int64.
    """
    e = group.exponent
    n = group.char_numerators(np.asarray(chars, dtype=np.int64), group.dual)
    return np.minimum(n, e - n)


def max_distance(
    group: FiniteAbelianGroup, frequencies: "Sequence[Character] | np.ndarray"
) -> np.ndarray:
    """max over Gamma of e ||chi(x)|| for every x (by index); 0 for empty Gamma.

    ``frequencies`` are characters of the dual, or an int64 array of their
    indices.  The distances are taken a block of characters at a time,
    about 2^18 entries per block.
    """
    if isinstance(frequencies, np.ndarray):
        chars = frequencies.astype(np.int64).reshape(-1)
    else:
        if any(chi.group is not group.dual for chi in frequencies):
            raise GroupMismatchError("character does not belong to this group's dual")
        chars = np.asarray([chi.index for chi in frequencies], dtype=np.int64)
    dist = np.zeros(group.order, dtype=np.int64)
    block = max(1, _MASK_BLOCK // group.order)
    for start in range(0, chars.size, block):
        dist = np.maximum(dist, char_distances(group, chars[start : start + block]).max(axis=0))
    return dist


def within_radius(group: FiniteAbelianGroup, dist: np.ndarray, radius: Fraction) -> np.ndarray:
    """The mask dist / e <= radius, e the exponent, for distances from
    ``char_distances`` or ``max_distance``.

    Each distance is an integer of at most e // 2, so dist / e <= radius iff
    dist <= floor(radius e).  That floor is taken once in Python integers
    and capped at e // 2, so the comparison is exact in int64 for every
    rational radius and every exponent below 2^63.
    """
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    e = group.exponent
    return dist <= min(radius.numerator * e // radius.denominator, e // 2)


def bohr_mask(
    group: FiniteAbelianGroup,
    frequencies: "Sequence[Character] | np.ndarray",
    radius: Fraction,
) -> np.ndarray:
    """Boolean membership mask of B(Gamma; rho): ``max_distance`` compared
    exactly with the radius by ``within_radius``.

    ``frequencies`` are characters of the dual, or an int64 array of their
    indices.
    """
    return within_radius(group, max_distance(group, frequencies), radius)


@dataclass(frozen=True, eq=False)
class BohrSet:
    """B(Gamma; rho) = {x : ||chi(x)|| <= rho for all chi in Gamma}."""

    group: FiniteAbelianGroup
    frequencies: tuple[Character, ...]
    radius: Fraction

    def __post_init__(self):
        freqs = tuple(dict.fromkeys(self.frequencies))
        for chi in freqs:
            if chi.group is not self.group.dual:
                raise GroupMismatchError("frequency outside the group's dual")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "radius", Fraction(self.radius))

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


def pinned_bohr_set(group: FiniteAbelianGroup) -> BohrSet:
    """{0} as a Bohr set: the coordinate characters of the dual at radius
    1/(4 e), e the exponent, below the smallest nonzero distance 1/e."""
    dual = group.dual
    basis = tuple(
        dual.element(tuple(1 if j == i else 0 for j in range(dual.rank)))
        for i in range(dual.rank)
    )
    return BohrSet(group, basis, Fraction(1, 4 * group.exponent))


def subgroup_bohr_set(subgroup: GroupSubset) -> BohrSet:
    """A subgroup H as a Bohr set: the generators of its annihilator at
    radius 1/(4 e), so x is a member iff every character of the annihilator
    vanishes at x, iff x lies in H."""
    group = subgroup.group
    gens = subgroup_generators(annihilator_subgroup(subgroup))
    return BohrSet(group, tuple(gens), Fraction(1, 4 * group.exponent))


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
    freqs = tuple(dict.fromkeys(frequencies))
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
    d(x) = max_gamma e ||gamma(x)|| (``max_distance``), the point
    x lies in B(r) iff d(x) <= r e iff d(x) <= floor(r e), so |B(r)| is the
    cumulative count of d up to floor(r e) and the annulus is
    |B(rho + eta)| - |B(rho)|; it qualifies when it holds at most
    floor(epsilon |G|) points.  All ceil(2/epsilon) + 1 grid radii are read
    in one pass: each floor(r e) comes from the grid's integer numerators
    over their common denominator, in Python integers, capped at e // 2,
    and the epsilon bound is capped at |G|, so both sides of every
    comparison are exact in int64 for all rational inputs and every group
    of order below 2^63.  The test oracle ``is_weakly_regular``
    (``tests/oracles.py``) decides the same condition by enumeration.
    """
    rho_lo, rho_hi = Fraction(rho_lo), Fraction(rho_hi)
    eta, epsilon = Fraction(eta), Fraction(epsilon)
    if not rho_lo < rho_hi:
        raise PreconditionError("need rho_lo < rho_hi")
    steps = math.ceil(2 / epsilon)
    step = (rho_hi - rho_lo) / steps
    if min(rho_lo, rho_lo + eta) < 0:
        raise ValueError("radius must be nonnegative")
    e = group.exponent
    cum = np.cumsum(np.bincount(max_distance(group, frequencies), minlength=e // 2 + 1))
    den = math.lcm(rho_lo.denominator, step.denominator, eta.denominator)
    lo, dj, width = (v.numerator * (den // v.denominator) for v in (rho_lo, step, eta))

    def sizes(start: int) -> np.ndarray:
        # |B(r)| at r = (start + j dj) / den for every j, read at floor(r e)
        half = e // 2
        return cum[[min((start + j * dj) * e // den, half) for j in range(steps + 1)]]

    # the annulus is empty when eta < 0
    ann = np.maximum(0, sizes(lo + width) - sizes(lo))
    bound = min(epsilon.numerator * group.order // epsilon.denominator, group.order)
    hits = np.flatnonzero(ann <= bound)
    if hits.size:
        return rho_lo + int(hits[0]) * step
    raise NoWeaklyRegularRadiusError(
        "no weakly regular radius on grid; retry with a finer grid"
    )


def formula_coefficients(rho: Fraction, eta: Fraction, cutoff: int) -> np.ndarray:
    """Fourier coefficients c_a of the trapezoid cutoff, a in [-K, K].

    c_0 = 2 rho + eta (the integral); for a != 0,
    c_a = sin(2 pi a (rho + eta/2)) sin(pi a eta) / (pi^2 a^2 eta).
    Needs 2 rho + eta <= 1, decided in ``Fraction``s (``PreconditionError``
    otherwise).  Real, even and bounded by 1 in absolute value; these are
    theorems, so a coefficient outside the unit disc (past a 1e-9 rounding
    allowance) or an odd part raises ``TheoremViolationError``.
    """
    if 2 * Fraction(rho) + Fraction(eta) > 1:
        raise PreconditionError("need 2 rho + eta <= 1 for coefficients in the disc")
    rho_f, eta_f = float(rho), float(eta)
    a = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (
            np.sin(2 * np.pi * a * (rho_f + eta_f / 2))
            * np.sin(np.pi * a * eta_f)
            / (np.pi**2 * a**2 * eta_f)
        )
    c[cutoff] = 2 * rho_f + eta_f
    if np.any(np.abs(c) > 1 + 1e-9):
        raise TheoremViolationError("coefficients escaped the unit disc")
    if not np.allclose(c, c[::-1]):
        raise TheoremViolationError("coefficients must be even in a")
    return c


def size_formula_cutoff(k: int, eta: Fraction, epsilon: Fraction) -> int:
    """K = ceil(2 e k / (eta epsilon)) for the size formula."""
    return math.ceil(2 * math.e * k / float(Fraction(eta) * Fraction(epsilon)))


def spectrum_cutoff(k: int, eta: Fraction, epsilon: Fraction) -> int:
    """K = ceil(8 e k / (eta epsilon)) for large-spectrum certification."""
    return math.ceil(8 * math.e * k / float(Fraction(eta) * Fraction(epsilon)))


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
    K is ``size_formula_cutoff`` and the c_a are ``formula_coefficients``;
    ``lattices.annihilator_points`` lists the box itself.

    Under weak regularity of (Gamma, rho, eta, epsilon) the error is at
    most 2 epsilon |G|; that bound is asserted by the callers/tests, never
    assumed here.
    """
    freqs = tuple(dict.fromkeys(frequencies))
    k = len(freqs)
    if k == 0:
        return float(group.order)
    if Fraction(rho) + Fraction(eta) > Fraction(1, 2):
        raise PreconditionError("size estimate needs rho + eta <= 1/2")
    cutoff = size_formula_cutoff(k, eta, epsilon)
    coefficients = formula_coefficients(rho, eta, cutoff)
    dual = group.dual
    a = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    spectrum = np.ones(dual.tensor_shape, dtype=np.complex128)
    for gamma in freqs:
        if gamma.group is not dual:
            raise GroupMismatchError("frequency outside the group's dual")
        image = dual.index_of_coords(a[:, None] * np.asarray(gamma.coords, dtype=np.int64))
        pushed = np.bincount(image, weights=coefficients, minlength=dual.order)
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
    freqs = tuple(dict.fromkeys(frequencies))
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
    lhs = bohr_mask(group, inter.indices(), Fraction(1, 4))
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
    freqs = tuple(dict.fromkeys(frequencies))
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
    many frequencies its spectrum has.  Fallbacks: the subgroup part as a
    Bohr set (``subgroup_bohr_set``), then ``pinned_bohr_set`` = {0}; the
    largest of the candidates is returned.
    """
    if not progression.is_symmetric:
        raise PreconditionError("progression must be symmetric")
    group = progression.group
    target = progression.enumerate()

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
            tuple(Arm(gen, -half, half) for gen, half in arms),
            progression.subgroup,
        )
        qmask = shrunk.enumerate()
        if qmask.size <= 1:
            continue  # the pinning fallback handles the degenerate case
        delta = Fraction(qmask.size, group.order)
        threshold = float(delta) ** (1 + 1 / (d - 2)) / 2
        freqs = spectrum(qmask, threshold)
        cand = BohrSet(group, tuple(freqs), Fraction(1, 4))
        if cand.enumerate().is_subset_of(target):
            candidates.append(cand)
            break
    cand = subgroup_bohr_set(progression.subgroup)
    if cand.enumerate().is_subset_of(target):
        candidates.append(cand)
    candidates.append(pinned_bohr_set(group))
    best = max(candidates, key=lambda b: b.enumerate().size)
    if not best.enumerate().is_subset_of(target):
        raise TheoremViolationError("fallback Bohr set escaped the progression")
    return best
