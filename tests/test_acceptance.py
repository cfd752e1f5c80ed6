"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances, printing one pass/fail line each.

Runtime-budgeted criteria assert their wall-clock limits too.
"""

import hashlib
import json
import time
from fractions import Fraction

from bogolib import suites

SEED = 1


def _report(number: int, label: str, result, elapsed=None):
    status = "PASS" if result.passed else "FAIL"
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {number:2d} {status}: {label}{extra}  {result.measured}")
    assert result.passed, f"criterion {number} failed: {result.measured}"


def test_criterion_01_bohr_size_bounds():
    t0 = time.monotonic()
    res = suites.check_bohr_size_bounds(SEED, instances=200, max_order=2048, max_freqs=3)
    elapsed = time.monotonic() - t0
    _report(1, "Bohr size bounds, 200 instances", res, elapsed)
    assert elapsed < 60


def test_criterion_02_size_formula():
    t0 = time.monotonic()
    res = suites.check_size_formula(
        SEED,
        instances=50,
        max_order=512,
        max_k=2,
        eta=Fraction(1, 10),
        eps=Fraction(1, 10),
    )
    elapsed = time.monotonic() - t0
    _report(2, "size formula on weakly regular instances", res, elapsed)
    assert res.measured["instances"] >= 50
    assert elapsed < 120


def test_criterion_03_large_spectrum():
    res = suites.check_large_spectrum(
        SEED,
        instances=50,
        max_order=512,
        max_k=2,
        eta=Fraction(1, 10),
        eps=Fraction(1, 10),
    )
    _report(3, "large spectrum certification, exhaustive scan", res)
    assert res.measured["failures"] == 0


def test_criterion_04_bohr_sum():
    res = suites.check_bohr_sum(SEED, instances=20, max_order=256)
    _report(4, "Bohr sum identity with negative control", res)
    assert res.measured["negative_controls"] > 0


def test_criterion_05_dense_difference():
    res = suites.check_dense_difference(SEED, instances=100, max_order=256)
    _report(5, "dense difference covering", res)


def test_criterion_06_lattice_spanning():
    res = suites.check_lattice_spanning(
        SEED, instances=100, max_k=4, max_radius=5, max_order=10_000
    )
    _report(6, "quantitative lattice spanning", res)


def test_criterion_07_quadruple_counting():
    res = suites.check_quadruple_counting(SEED, cases=1000, max_order=64, max_size=16)
    _report(7, "quadruple counting vs oracle + popular differences", res)
    assert res.measured["cases"] >= 1000


def test_criterion_08_partial_projectivity():
    res = suites.check_partial_projectivity(SEED, instances=50, max_order=64, max_kernel=8)
    _report(8, "partial projectivity", res)
    assert res.measured["instances"] >= 50


def test_criterion_09_extraction_and_basis_moves():
    res = suites.check_extraction_and_basis_moves(SEED, extraction_instances=30, moves=1000)
    _report(9, "subprogression extraction + 1000 basis moves", res)
    assert res.measured["moves"] >= 1000


def test_criterion_10_regularity():
    res = suites.check_regularity(
        SEED, instances=20, max_order=256, max_maps=2, eta=Fraction(1, 4), step_cap=12
    )
    _report(10, "regularity partition recheck", res)
    assert res.measured["instances"] >= 20


def test_criterion_11_quasirandom():
    res = suites.check_quasirandom_appendix(SEED, triples=1000)
    _report(11, "quasirandomness appendix (2^16 graphs exhaustive)", res)
    assert res.measured["exhaustive_graphs"] == 1 << 16


def test_criterion_12_main_theorem():
    t0 = time.monotonic()
    res = suites.check_main_theorem(
        SEED, orders=(16, 64, 256), deltas=(0.05, 0.1, 0.3), seeds_per_config=10
    )
    elapsed = time.monotonic() - t0
    _report(12, "main containment experiment batch", res, elapsed)
    assert res.measured["runs"] >= 30
    assert elapsed < 600


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


# SHA-256 of the stripped run_suite("all", SEED) report: pins its bytes, not
# only their repeatability
BATTERY_DIGEST = "abdb479c65e00a453a60cf1a783e14761bc2cd641bca372ab299fcce1f6cb7f6"


def test_criterion_13_determinism():
    first = suites.run_suite("all", SEED)
    second = suites.run_suite("all", SEED)
    a = json.dumps(_strip_timing(first), sort_keys=True)
    b = json.dumps(_strip_timing(second), sort_keys=True)
    ok = a == b and first["all_passed"]
    status = "PASS" if ok else "FAIL"
    print(f"criterion 13 {status}: determinism of run_suite('all')")
    assert a == b
    assert first["all_passed"]
    assert hashlib.sha256(a.encode()).hexdigest() == BATTERY_DIGEST
