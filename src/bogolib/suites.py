"""Named verification suites.

Each check runs a seeded batch of instances against an instance-checkable
theorem and reports pass/fail plus measured quantities.  The same
functions back both the CLI harness (``bogolib --suite ...``) and the
acceptance test module, and each takes only the seed: its sizes and
tolerances, the values the acceptance criteria pin down, are literals in
its body.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import bogolib as bg
from . import quasirandom as qr_mod
from .bilinear import (
    linear_map_on_progression,
    main_theorem_experiment,
    qr_property_check,
    regularity_partition,
    variety_contained_in,
    variety_membership_bruteforce,
)
from .bohr import (
    bohr_enumerate,
    bohr_size_estimate,
    dense_difference_cover,
    find_min_r,
    large_spectrum_certify,
    size_bounds,
    verify_bohr_sum,
    weak_regular_radius_search,
)
from .errors import BogolibError, NoWeaklyRegularRadiusError
from .fourier import dft, quadruple_count_all
from .groups import GroupSubset, _coefficient_grid, _combination_indices, subgroup_generated
from .lattices import chain_monitor, span_cover
from .progressions import (
    CosetProgression,
    change_basis,
    extract_subprogression,
    is_freiman_homomorphism,
    partial_projectivity,
    popular_difference_progression,
)
from .rng import check_seed, derive_rng


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)


def _random_moduli(rng, max_order: int) -> list[int]:
    shape = rng.integers(0, 3)
    if shape == 0:
        return [int(rng.integers(4, max_order + 1))]
    if shape == 1:
        q1 = int(rng.integers(2, 9))
        return [q1, int(rng.integers(2, max(3, max_order // q1) + 1))]
    q1 = int(rng.integers(2, 5))
    q2 = int(rng.integers(2, 5))
    rest = max(2, max_order // (q1 * q2))
    return [q1, q2, int(rng.integers(2, rest + 1))]


def _random_radius(rng) -> Fraction:
    den = int(rng.integers(5, 25))
    num = int(rng.integers(1, max(2, den // 4 + 1)))
    return Fraction(num, den)


# -- criterion 1 ------------------------------------------------------------


def check_bohr_size_bounds(seed: int) -> CheckResult:
    instances, max_order, max_freqs = 200, 2048, 3
    violations = 0
    doubling_checked = 0
    for i in range(instances):
        rng = derive_rng(seed, 100_000 + i)
        g = bg.make_group(_random_moduli(rng, max_order))
        k = int(rng.integers(1, max_freqs + 1))
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        rho = _random_radius(rng)
        try:
            sb = size_bounds(g, freqs, rho)
        except BogolibError:
            violations += 1
            continue
        if sb.doubled_size is not None:
            doubling_checked += 1
    return CheckResult(
        "bohr_size_bounds",
        violations == 0,
        {
            "instances": instances,
            "violations": violations,
            "doubling_checked": doubling_checked,
        },
    )


# -- criteria 2 + 3 ----------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _weakly_regular_instances(seed: int):
    """Criteria 2 and 3's batch: up to 50 weakly regular (G, freqs, rho)
    with |G| <= 512 and at most 2 frequencies, at eta = eps = 1/10.

    Returns the batch, eta, eps and whether the batch is full.  The last
    seed's batch is kept, so the two criteria of one battery run build it
    once; ``run_suite`` clears it, so each run builds its own.
    """
    count, max_order, max_k = 50, 512, 2
    eta = eps = Fraction(1, 10)
    # eta = 1/10 is larger than the search grid's step
    # (3/8 - 1/8) / ceil(4 / eps) = 1/160, so the pigeonhole guarantee of
    # weak_regular_radius_search does not apply: most draws raise and the
    # batch keeps the draws that happen to be regular (about 50 of 475 at
    # seed 0), not a sample of all draws.
    found = []
    attempt = 0
    while len(found) < count and attempt < 50 * count:
        rng = derive_rng(seed, 200_000 + attempt)
        attempt += 1
        g = bg.make_group(_random_moduli(rng, max_order))
        k = int(rng.integers(1, max_k + 1))
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        try:
            # half-epsilon annulus serves both the size formula (eps) and
            # the large-spectrum hypothesis (eps / 2)
            rho = weak_regular_radius_search(
                g, freqs, Fraction(1, 8), Fraction(3, 8), eta, eps / 2
            )
        except NoWeaklyRegularRadiusError:
            continue
        found.append((g, freqs, rho))
    return found, eta, eps, len(found) >= count


def check_size_formula(seed: int) -> CheckResult:
    batch, eta, eps, full = _weakly_regular_instances(seed)
    worst = 0.0
    failures = 0
    for g, freqs, rho in batch:
        est = bohr_size_estimate(g, freqs, rho, eta, eps)
        true = bohr_enumerate(g, freqs, rho).size
        err = abs(est - true)
        tol = float(2 * eps * g.order)
        worst = max(worst, err / tol if tol else 0.0)
        if err > tol:
            failures += 1
    return CheckResult(
        "bohr_size_formula",
        failures == 0 and full,
        {
            "instances": len(batch),
            "failures": failures,
            "worst_error_ratio": round(worst, 6),
        },
    )


def check_large_spectrum(seed: int) -> CheckResult:
    batch, eta, eps, full = _weakly_regular_instances(seed)
    certified = 0
    failures = 0
    for g, freqs, rho in batch:
        b = bohr_enumerate(g, freqs, rho)
        coeffs = np.abs(dft(g, b.mask))
        deduped = [g.dual.element(c) for c in dict.fromkeys(f.coords for f in freqs)]
        large = np.flatnonzero(coeffs >= float(eps))
        chis = [g.dual.element_from_index(int(i)) for i in large]
        reps = [large_spectrum_certify(g, freqs, rho, eta, eps, chi) for chi in chis]
        found = [rep is not None for rep in reps]
        # every sum a_i gamma_i in one matrix product, a_i reduced modulo the exponent
        residues = [[a % g.exponent for a in rep] for rep in reps if rep is not None]
        combos = _combination_indices(g.dual, residues, deduped)
        certified += int(np.sum(combos == large[found]))
        failures += len(reps) - int(np.sum(combos == large[found]))
    return CheckResult(
        "bohr_large_spectrum",
        failures == 0 and full,
        {"instances": len(batch), "certified": certified, "failures": failures},
    )


# -- criterion 4 -------------------------------------------------------------


def check_bohr_sum(seed: int) -> CheckResult:
    instances, max_order = 20, 256
    failures = 0
    controls = 0
    max_r = 0
    done = 0
    attempt = 0
    while done < instances and attempt < 50 * instances:
        rng = derive_rng(seed, 300_000 + attempt)
        attempt += 1
        g = bg.make_group([int(rng.integers(8, max_order + 1))])
        k1 = int(rng.integers(1, 3))
        k2 = int(rng.integers(1, 3))
        f1 = [g.dual.element_from_index(int(rng.integers(0, g.order))) for _ in range(k1)]
        f2 = [g.dual.element_from_index(int(rng.integers(0, g.order))) for _ in range(k2)]
        rho1 = Fraction(1, int(rng.integers(6, 12)))
        rho2 = Fraction(1, int(rng.integers(6, 12)))
        done += 1
        try:
            r = find_min_r(g, f1, rho1, f2, rho2)
        except BogolibError:
            failures += 1
            continue
        max_r = max(max_r, r)
        if not verify_bohr_sum(g, f1, rho1, f2, rho2, r):
            failures += 1
        rhs = bohr_enumerate(g, f1, rho1) + bohr_enumerate(g, f2, rho2)
        if rhs.size < g.order:
            controls += 1
            if verify_bohr_sum(g, f1, rho1, f2, rho2, 0):
                failures += 1
    return CheckResult(
        "bohr_sum_identity",
        failures == 0 and done >= instances and controls > 0,
        {
            "instances": done,
            "failures": failures,
            "negative_controls": controls,
            "max_min_r": max_r,
        },
    )


# -- criterion 5 -------------------------------------------------------------


def check_dense_difference(seed: int) -> CheckResult:
    instances, max_order = 100, 256
    failures = 0
    for i in range(instances):
        rng = derive_rng(seed, 400_000 + i)
        g = bg.make_group(_random_moduli(rng, max_order))
        k = int(rng.integers(1, 3))
        freqs = [
            g.dual.element_from_index(int(rng.integers(0, g.order)))
            for _ in range(k)
        ]
        rho = Fraction(1, int(rng.integers(4, 10)))
        b = bohr_enumerate(g, freqs, rho)
        k_eff = len(dict.fromkeys(f.coords for f in freqs))
        removable = int(b.size / 4 ** (k_eff + 1))
        idx = b.indices()
        drop = rng.choice(idx, size=min(removable, idx.size), replace=False)
        kept = b.mask.copy()
        kept[drop] = False
        a = GroupSubset(g, kept)
        try:
            dense_difference_cover(a, freqs, rho)
        except BogolibError:
            failures += 1
    return CheckResult(
        "dense_difference_cover",
        failures == 0,
        {"instances": instances, "failures": failures},
    )


# -- criterion 6 -------------------------------------------------------------


def check_lattice_spanning(seed: int) -> CheckResult:
    instances, max_k, max_radius, max_order = 100, 4, 5, 10_000
    failures = 0
    max_gens = 0
    max_coeff = 0
    for i in range(instances):
        rng = derive_rng(seed, 500_000 + i)
        g = bg.make_group(_random_moduli(rng, max_order))
        k = int(rng.integers(1, max_k + 1))
        radius = int(rng.integers(1, max_radius + 1))
        ambient = [
            g.element_from_index(int(rng.integers(0, g.order))) for _ in range(k)
        ]
        span = bg.bounded_span(g, ambient, radius)
        idx = span.indices()
        size = int(rng.integers(1, min(40, idx.size) + 1))
        members = [
            g.element_from_index(int(v))
            for v in rng.choice(idx, size=size, replace=False)
        ]
        try:
            cover = span_cover(g, members, ambient, radius)
        except BogolibError:
            failures += 1
            continue
        max_gens = max(max_gens, len(cover.generators))
        max_coeff = max(max_coeff, cover.coefficient_bound)
        if len(cover.generators) > cover.budget:
            failures += 1
    return CheckResult(
        "lattice_spanning",
        failures == 0,
        {
            "instances": instances,
            "failures": failures,
            "max_generators": max_gens,
            "max_coefficient": max_coeff,
            "scale_monitor": (2 * max_radius * max_k) ** (max_k + 3),
        },
    )


# -- criterion 7 -------------------------------------------------------------


def _subtraction_table_counts(g, masks: np.ndarray) -> np.ndarray:
    """Independent oracle, no FFT: for each mask (rows of ``masks``), over
    the table sub[x, a] = x - a, r[x] = sum_a m[a] m[x - a] and then
    count[x] = sum_y r[y] r[y - x], in int64."""
    coords = g.coords_matrix
    sub = g.index_of_coords(coords[:, None, :] - coords[None, :, :])
    m = masks.astype(np.int64)
    r = np.matmul(m[:, sub], m[:, :, None])[..., 0]
    return np.matmul(r[:, sub.T], r[:, :, None])[..., 0]


def check_quadruple_counting(seed: int) -> CheckResult:
    """Criterion 7: the cases are drawn first, then each distinct group is
    built once and its cases take one batched count and one oracle pass."""
    cases, max_order, max_size = 1000, 64, 16
    by_moduli: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for i in range(cases):
        rng = derive_rng(seed, 600_000 + i)
        moduli = tuple(_random_moduli(rng, max_order))
        order = math.prod(moduli)
        size = int(rng.integers(1, min(max_size, order) + 1))
        by_moduli.setdefault(moduli, []).append(
            (i, rng.choice(order, size=size, replace=False))
        )
    mismatches = 0
    popular_failures = 0
    for moduli, drawn in by_moduli.items():
        g = bg.make_group(moduli)
        subsets = [GroupSubset.from_indices(g, idx) for _, idx in drawn]
        masks = np.stack([subset.mask for subset in subsets])
        oracle = _subtraction_table_counts(g, masks)
        mismatches += int(np.any(quadruple_count_all(g, masks) != oracle, axis=1).sum())
        for (i, _), subset, row in zip(drawn, subsets, oracle):
            if i % 10 == 0:
                k = Fraction(subset.sumset(subset).size, subset.size)
                prog = popular_difference_progression(subset)
                thr = Fraction(subset.size**3, 64) / k
                # count < thr, exactly: thr's denominator is positive
                below = row[prog.enumerate().indices()] * thr.denominator < thr.numerator
                popular_failures += int(np.count_nonzero(below))
    return CheckResult(
        "quadruple_counting",
        mismatches == 0 and popular_failures == 0,
        {
            "cases": cases,
            "mismatches": mismatches,
            "popular_failures": popular_failures,
        },
    )


# -- criterion 8 -------------------------------------------------------------


def check_partial_projectivity(seed: int) -> CheckResult:
    instances, max_order, max_kernel = 50, 64, 8
    failures = 0
    done = 0
    attempt = 0
    while done < instances and attempt < 100 * instances:
        rng = derive_rng(seed, 700_000 + attempt)
        attempt += 1
        g = bg.make_group(_random_moduli(rng, max_order))
        h = bg.make_group(_random_moduli(rng, max_order))
        kernel = subgroup_generated(
            h, [h.element_from_index(int(rng.integers(0, h.order)))]
        )
        if kernel.size > max_kernel:
            continue
        orders, basis = bg.invariant_factors(g)
        reps = []
        for n in orders:
            # a uniform e of H with n e in the kernel; 0 always qualifies
            cands = np.flatnonzero(kernel.mask[h.index_of_coords(n * h.coords_matrix)])
            reps.append(h.element_from_index(int(cands[rng.integers(0, cands.size)])))
        # phi(sum c_i b_i) = sum c_i r_i over the basis's coefficient grid
        grid = _coefficient_grid([range(n) for n in orders])
        phi = np.full(g.order, -1, dtype=np.int64)
        phi[_combination_indices(g, grid, basis)] = _combination_indices(h, grid, reps)
        done += 1
        try:
            res = partial_projectivity(g, h, kernel, phi)
        except BogolibError:
            failures += 1
            continue
        prog, lift = res.progression, res.lift
        if 2 ** len(res.heavy_indices) > kernel.size:
            failures += 1
        if prog.size * kernel.size < g.order:
            failures += 1
        if not is_freiman_homomorphism(lift, 2):
            failures += 1
        pts = np.flatnonzero(lift.values >= 0)
        diffs = h.add_indices(phi[pts], h.negation_permutation[lift.values[pts]])
        failures += not kernel.mask[diffs].all()
    return CheckResult(
        "partial_projectivity",
        failures == 0 and done >= instances,
        {"instances": done, "failures": failures},
    )


# -- criterion 9 -------------------------------------------------------------


def check_extraction_and_basis_moves(seed: int) -> CheckResult:
    extraction_instances, moves = 30, 1000
    failures = 0
    for i in range(extraction_instances):
        rng = derive_rng(seed, 800_000 + i)
        order = int(rng.integers(30, 200))
        g = bg.make_group([order])
        n = int(rng.integers(3, max(4, order // 4)))
        c = CosetProgression.symmetric(g, [(g.element([1]), n)])
        if not c.is_proper():
            continue
        stride = int(rng.integers(1, 4))
        strided = [
            (lam * stride) % order
            for lam in range(-(n // stride), n // stride + 1)
        ] if stride <= n else [0]
        a = GroupSubset.from_indices(g, sorted({v % order for v in strided}))
        alpha = Fraction(a.size, c.size)
        try:
            res = extract_subprogression(a, c, alpha)
        except BogolibError:
            failures += 1
            continue
        if not res.progression.enumerate().is_subset_of(a):
            failures += 1
        if any(ell > 20 / alpha for ell in res.ells):
            failures += 1
        for arm, carm, ell in zip(res.progression.arms, c.arms, res.ells):
            if arm.hi not in (0, carm.hi // ell):
                failures += 1
    move_count = 0
    rng = derive_rng(seed, 850_000)
    groups = [bg.make_group(m) for m in ([4, 6], [8, 3], [2, 2, 4], [9, 27])]
    while move_count < moves:
        for g in groups:
            factors, basis = bg.invariant_factors(g)
            for _ in range(moves // (4 * 4) + 1):
                r = len(basis)
                kind = ["upper", "lower", "unit"][int(rng.integers(0, 3))] if r > 1 else "unit"
                try:
                    if kind == "upper" and r > 1:
                        i = int(rng.integers(0, r - 1))
                        j = int(rng.integers(i + 1, r))
                        basis = change_basis(g, basis, ("upper", i, j, int(rng.integers(-3, 4))))
                    elif kind == "lower" and r > 1:
                        j = int(rng.integers(0, r - 1))
                        i = int(rng.integers(j + 1, r))
                        basis = change_basis(g, basis, ("lower", i, j, int(rng.integers(-3, 4))))
                    else:
                        i = int(rng.integers(0, r))
                        lam = 1
                        while True:
                            lam = int(rng.integers(1, 12))
                            if math.gcd(lam, factors[i]) == 1:
                                break
                        basis = change_basis(g, basis, ("unit", i, lam))
                except BogolibError:
                    failures += 1
                if [b.order for b in basis] != factors:
                    failures += 1
                move_count += 1
                if move_count >= moves:
                    break
            if move_count >= moves:
                break
    return CheckResult(
        "extraction_and_basis_moves",
        failures == 0,
        {
            "extraction_instances": extraction_instances,
            "moves": move_count,
            "failures": failures,
        },
    )


# -- criterion 10 ------------------------------------------------------------


def check_regularity(seed: int) -> CheckResult:
    instances, max_order, max_maps, step_cap = 20, 256, 2, 12
    eta = Fraction(1, 4)
    failures = 0
    certified_cells = 0
    total_cells = 0
    max_steps = 0
    for i in range(instances):
        rng = derive_rng(seed, 900_000 + i)
        gx = bg.make_group([int(rng.integers(8, max_order + 1))])
        gy = bg.make_group([int(rng.integers(8, max_order + 1))])
        half = int(rng.integers(2, max(3, gy.order // 3)))
        half = min(half, (gy.order - 1) // 2)
        c = CosetProgression.symmetric(gy, [(gy.element([1]), half)])
        r = int(rng.integers(1, max_maps + 1))
        maps = [
            linear_map_on_progression(
                c, gx.dual, [gx.dual.element_from_index(int(rng.integers(0, gx.order)))]
            )
            for _ in range(r)
        ]
        rho = Fraction(1, 4)
        res = regularity_partition(c, [], maps, rho, eta, step_cap, gx)
        max_steps = max(max_steps, res.steps)
        if res.steps > chain_monitor(r, 4):
            failures += 1
        for cell in res.cells:
            total_cells += 1
            if not cell.certified:
                continue
            certified_cells += 1
            if not (rho / 2 <= cell.rho <= rho):
                failures += 1
            again = qr_property_check(
                cell.progression, [], maps, cell.rho, eta, gx
            )
            if not (again.pass_i and again.pass_ii):
                failures += 1
    return CheckResult(
        "regularity_partition",
        failures == 0,
        {
            "instances": instances,
            "failures": failures,
            "cells": total_cells,
            "certified_cells": certified_cells,
            "max_steps": max_steps,
        },
    )


# -- criterion 11 ------------------------------------------------------------


def _one_sided_statistics() -> tuple[np.ndarray, np.ndarray]:
    """For each of the 2^16 bipartite graphs on 4 + 4 vertices: its
    eps = max(e1, e2) of ``quasirandom.one_sided_qr`` at its own density
    and its box norm about that density.  Entry i is the graph whose
    adjacency entry (r, c) is bit 4 r + c of i.

    The graphs go in blocks of 2^12 (about 4 MiB of temporaries, not 44
    MiB for all at once); each reduction is over one graph's own entries
    and every value is an exact dyadic rational, so blocks change no bit."""
    size = 1 << 12  # 2^8 to 2^14 give the same bits; 2^12 was fastest
    eps, box = np.empty(1 << 16), np.empty(1 << 16)
    for start in range(0, 1 << 16, size):
        bits = np.arange(start, start + size, dtype=np.uint32)
        cells = ((bits[:, None] >> np.arange(16, dtype=np.uint32)) & 1).astype(np.float64)
        graphs = cells.reshape(-1, 4, 4)
        dens = graphs.mean(axis=(1, 2))
        degrees = graphs.sum(axis=2)
        e1 = np.abs(degrees - dens[:, None] * 4).mean(axis=1) / 4
        # batched matmuls, not einsum: entries of `graphs` and `balanced` are
        # multiples of 1/16, so each sum of four products is an exact multiple
        # of 1/256, bit-identical whatever the summation order
        codeg = graphs @ graphs.transpose(0, 2, 1)
        e2 = np.abs(codeg - (dens**2)[:, None, None] * 4).mean(axis=(1, 2)) / 4
        balanced = graphs - dens[:, None, None]
        inner = balanced @ balanced.transpose(0, 2, 1) / 4
        box4 = (inner**2).mean(axis=(1, 2))
        eps[start : start + size] = np.maximum(e1, e2)
        box[start : start + size] = box4**0.25
    return eps, box


def check_quasirandom_appendix(seed: int) -> CheckResult:
    triples = 1000
    rng = derive_rng(seed, 1_000_000)
    failures = 0
    for _ in range(triples):
        nx, ny = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        f = rng.choice([-1.0, 1.0], size=(nx, ny))
        u = rng.normal(size=nx)
        v = rng.normal(size=ny)
        try:
            qr_mod.correlation_bound_check(f, u, v)
        except BogolibError:
            failures += 1
    # exhaustive one-sided implication over all 4x4 bipartite graphs
    eps, box = _one_sided_statistics()
    violations = int(np.count_nonzero(box > 3 * eps**0.125 + qr_mod.TOLERANCE))
    single = np.zeros((2, 2))
    single[0, 0] = 1
    box_ok = abs(qr_mod.box_norm(single - 0.25) - (7 / 256) ** 0.25) < 1e-9
    passed = failures == 0 and violations == 0 and box_ok
    return CheckResult(
        "quasirandom_appendix",
        passed,
        {
            "triples": triples,
            "correlation_failures": failures,
            "exhaustive_graphs": 1 << 16,
            "one_sided_violations": violations,
            "single_edge_box_norm_ok": box_ok,
        },
    )


# -- criterion 12 ------------------------------------------------------------


def check_main_theorem(seed: int) -> CheckResult:
    # every run takes the experiment's default word and budget; the first
    # `crosschecks` small enough are re-checked by brute-force membership
    orders, deltas = (16, 64, 256), (0.05, 0.1, 0.3)
    seeds_per_config, crosschecks = 10, 4
    failures = 0
    runs = 0
    nontrivial = 0
    crosschecked = 0
    for order in orders:
        gx = bg.make_group([order])
        gy = bg.make_group([order])
        for delta in deltas:
            for _ in range(seeds_per_config):
                run_seed = derive_rng(seed, 1_100_000 + runs).integers(0, 1 << 62)
                # looked up as a module global, so a wrapper set on this
                # module sees every run
                out = main_theorem_experiment(gx, gy, delta, int(run_seed))
                runs += 1
                rep = out.report
                if not rep["verified"]:
                    failures += 1
                    continue
                if not variety_contained_in(out.variety, out.difference_set):
                    failures += 1
                if rep["d_size"] > 1:
                    if rep["variety_size"] > 1:
                        nontrivial += 1
                    else:
                        failures += 1
                if crosschecked < crosschecks and gx.order * gy.order <= 4096:
                    brute = variety_membership_bruteforce(out.variety)
                    if brute != out.variety.enumerate():
                        failures += 1
                    if not brute.is_subset_of(out.difference_set):
                        failures += 1
                    crosschecked += 1
    return CheckResult(
        "main_theorem_containment",
        failures == 0,
        {
            "runs": runs,
            "failures": failures,
            "nontrivial": nontrivial,
            "crosschecked": crosschecked,
        },
    )


# -- suite registry -----------------------------------------------------------

SUITES: dict[str, list[Callable[[int], CheckResult]]] = {
    "bohr": [
        check_bohr_size_bounds,
        check_size_formula,
        check_large_spectrum,
        check_bohr_sum,
        check_dense_difference,
    ],
    "progression": [
        check_quadruple_counting,
        check_partial_projectivity,
        check_extraction_and_basis_moves,
    ],
    "lattice": [check_lattice_spanning],
    "quasirandom": [check_quasirandom_appendix],
    "regularity": [check_regularity],
    "main-theorem": [check_main_theorem],
}


def suite_names() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named suite; returns the JSON-serializable report.  ``seed``
    must lie in [0, 2^64) (``rng.check_seed``)."""
    if name == "all":
        checks = [fn for suite in sorted(SUITES) for fn in SUITES[suite]]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    check_seed(seed)
    _weakly_regular_instances.cache_clear()
    results = []
    start = time.monotonic()
    for fn in checks:
        t0 = time.monotonic()
        res = fn(seed)
        results.append(
            {
                "name": res.name,
                "passed": bool(res.passed),
                "measured": res.measured,
                "elapsed_ms": int((time.monotonic() - t0) * 1000),
            }
        )
    return {
        "schema_version": 1,
        "kind": "suite",
        "suite": name,
        "seed": seed,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
