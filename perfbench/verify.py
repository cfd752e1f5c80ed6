"""Output checks, made apart from the program and outside the timed region.

Containment reports are checked against the benchmark's own recomputation:
the iterated difference set by direct per-row and per-column difference
sets (boolean gathers, no FFT), and the variety rebuilt from the report's
``gamma``/``rho``/``progression`` with exact integer torus comparisons.
All workload groups are cyclic, which keeps both recomputations short.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Sizes the acceptance criteria pin for ``--suite all``, by check name.
SUITE_PINNED = {
    "main_theorem_containment": {"runs": 90, "crosschecked": 4},
    "bohr_size_bounds": {"instances": 200},
    "bohr_size_formula": {"instances": 50},
    "bohr_large_spectrum": {"instances": 50},
    "bohr_sum_identity": {"instances": 20},
    "dense_difference_cover": {"instances": 100},
    "lattice_spanning": {"instances": 100},
    "quadruple_counting": {"cases": 1000},
    "partial_projectivity": {"instances": 50},
    "extraction_and_basis_moves": {"extraction_instances": 30, "moves": 1000},
    "quasirandom_appendix": {
        "triples": 1000,
        "exhaustive_graphs": 1 << 16,
        "single_edge_box_norm_ok": True,
    },
    "regularity_partition": {"instances": 20},
}

FAILURE_KEY_SUFFIXES = ("failures", "violations", "mismatches")


def cyclic_order(spec: str) -> int:
    """Order of a cyclic group spec ``Z<n>``; the workloads use no others."""
    if not (spec.startswith("Z") and spec[1:].isdigit()):
        raise ValueError(f"benchmark groups are cyclic, got {spec!r}")
    return int(spec[1:])


def direct_d_hor(mat: np.ndarray) -> np.ndarray:
    """{(x1 - x2, y)} per row y of a (|H|, |G|) boolean matrix over Z_|G|."""
    n = mat.shape[1]
    shifted = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [x, t] -> t + x
    # out[y, x] = any_t mat[y, t] and mat[y, t + x]
    out = np.zeros_like(mat)
    for y in np.flatnonzero(mat.any(axis=1)):
        row = mat[y]
        out[y] = (row[shifted] & row[None, :]).any(axis=1)
    return out


def direct_difference(mat: np.ndarray, word: str) -> np.ndarray:
    """Apply the h/v word, rightmost letter first, by direct difference sets."""
    for ch in reversed(word):
        mat = direct_d_hor(mat) if ch == "h" else direct_d_hor(mat.T).T
    return mat


def bohr_row(n: int, gamma: list[list[int]], rho: Fraction) -> np.ndarray:
    """B(gamma; rho) in Z_n: ||c x / n|| <= rho, compared as integers."""
    x = np.arange(n, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for (c,) in gamma:
        r = (c * x) % n
        mask &= np.minimum(r, n - r) * rho.denominator <= rho.numerator * n
    return mask


def progression_rows(m: int, prog: dict) -> np.ndarray:
    """Points of base + sum k_i g_i + H' in Z_m, H' the subgroup of its size."""
    size = prog["subgroup_size"]
    if m % size:
        raise ValueError("subgroup size must divide the group order")
    pts = {(prog["base"][0] + h * (m // size)) % m for h in range(size)}
    for arm in prog["arms"]:
        (g,) = arm["generator"]
        pts = {(p + k * g) % m for p in pts for k in range(arm["lo"], arm["hi"] + 1)}
    mask = np.zeros(m, dtype=bool)
    mask[sorted(pts)] = True
    return mask


def rebuild_variety(report: dict) -> np.ndarray:
    """The variety of a map-free report as a (|H|, |G|) boolean matrix."""
    n, m = cyclic_order(report["group_g"]), cyclic_order(report["group_h"])
    var = report["variety"]
    row = bohr_row(n, var["gamma"], Fraction(var["rho"]))
    return progression_rows(m, var["progression"])[:, None] & row[None, :]


def check_experiment(report: dict, d: np.ndarray) -> list[str]:
    """Check one report against the directly computed D; returns the problems."""
    problems = []
    if int(d.sum()) != report["d_size"]:
        problems.append(f"d_size {report['d_size']} != direct {int(d.sum())}")
    if report["variety"]["maps"] == 0:
        v = rebuild_variety(report)
        if int(v.sum()) != report["variety_size"]:
            problems.append(
                f"variety_size {report['variety_size']} != rebuilt {int(v.sum())}"
            )
        if np.any(v & ~d):
            problems.append("rebuilt variety is not inside D")
    return problems


def check_mapped_variety(report: dict, brute: np.ndarray, d: np.ndarray) -> list[str]:
    """A variety carrying maps, rebuilt by brute-force membership."""
    problems = []
    if int(brute.sum()) != report["variety_size"]:
        problems.append("brute-force variety size differs from the report")
    if np.any(brute & ~d):
        problems.append("brute-force variety is not inside D")
    return problems


def expected_sample_size(report: dict) -> int:
    total = cyclic_order(report["group_g"]) * cyclic_order(report["group_h"])
    return min(total, math.ceil(report["delta"] * total))


def check_suite_report(report: dict) -> list[str]:
    """Every check passes at its pinned size with zero failures of any kind."""
    problems = []
    names = [c["name"] for c in report["checks"]]
    if sorted(names) != sorted(SUITE_PINNED):
        problems.append(f"suite checks {names} differ from the pinned twelve")
    if not report["all_passed"]:
        problems.append("all_passed is false")
    for check in report["checks"]:
        name, measured = check["name"], check["measured"]
        if not check["passed"]:
            problems.append(f"{name} failed")
        for key, want in SUITE_PINNED.get(name, {}).items():
            if measured.get(key) != want:
                problems.append(f"{name}.{key} = {measured.get(key)!r}, pinned {want!r}")
        for key, value in measured.items():
            if key.endswith(FAILURE_KEY_SUFFIXES) and value != 0:
                problems.append(f"{name}.{key} = {value}")
        if name == "bohr_size_formula" and not measured["worst_error_ratio"] <= 1:
            problems.append("size formula error exceeds 2 eps |G|")
    return problems


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj
