"""Acceptance suite: one test per criterion, printing one pass/fail line each.

The sizes and tolerances each criterion pins live in ``bogolib.suites``,
whose checks take only a seed.  One ``run_suite("all", SEED)``, the
session's ``battery`` fixture (``conftest.py``), feeds criteria 1-12;
runtime-budgeted criteria read their wall-clock limits from that check's
``elapsed_ms``.  Criterion 13 makes one more run and compares the two.
"""

import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from bogolib import fourier, suites
from bogolib.groups import GroupSubset, make_group
from bogolib.quasirandom import TOLERANCE
from bogolib.rng import derive_rng
from oracles import _pair_multiplicity_count

SEED = 1

# the name each criterion's check reports under
CRITERIA = {
    1: "bohr_size_bounds",
    2: "bohr_size_formula",
    3: "bohr_large_spectrum",
    4: "bohr_sum_identity",
    5: "dense_difference_cover",
    6: "lattice_spanning",
    7: "quadruple_counting",
    8: "partial_projectivity",
    9: "extraction_and_basis_moves",
    10: "regularity_partition",
    11: "quasirandom_appendix",
    12: "main_theorem_containment",
}


def _criterion(battery, number: int, label: str, budget_s=None) -> dict:
    """The criterion's check from the battery, printed and asserted passed;
    with ``budget_s``, its wall-clock limit is asserted too."""
    (check,) = [c for c in battery["checks"] if c["name"] == CRITERIA[number]]
    elapsed = check["elapsed_ms"] / 1000
    status = "PASS" if check["passed"] else "FAIL"
    print(f"criterion {number:2d} {status}: {label} [{elapsed:.1f}s]  {check['measured']}")
    assert check["passed"], f"criterion {number} failed: {check['measured']}"
    if budget_s is not None:
        assert elapsed < budget_s
    return check["measured"]


def test_checks_take_only_a_seed_and_run_once(battery):
    registered = {fn for fns in suites.SUITES.values() for fn in fns}
    assert len(registered) == len(CRITERIA)
    for fn in registered:
        assert list(inspect.signature(fn).parameters) == ["seed"], fn.__name__
    assert battery["seed"] == SEED
    names = [c["name"] for c in battery["checks"]]
    assert sorted(names) == sorted(CRITERIA.values())


def test_weakly_regular_batch_built_once_per_run(monkeypatch):
    # criteria 2 and 3 share one build of their batch in a run, and each
    # run builds its own
    calls = []
    search = suites.weak_regular_radius_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(suites, "weak_regular_radius_search", counted)
    suites._weakly_regular_instances.cache_clear()
    suites._weakly_regular_instances(SEED)
    one_build = len(calls)
    assert one_build >= 50
    for _ in range(2):
        calls.clear()
        suites.run_suite("bohr", SEED)
        assert len(calls) == one_build


def test_quadruple_batch_one_count_per_group(monkeypatch):
    # criterion 7 counts each distinct group's cases in one batched call;
    # the popular-difference step's own calls go through progressions
    calls = []
    count = suites.quadruple_count_all

    def counted(group, masks):
        calls.append(masks.shape)
        return count(group, masks)

    monkeypatch.setattr(suites, "quadruple_count_all", counted)
    cases = [
        tuple(suites._random_moduli(derive_rng(SEED, 600_000 + i), 64)) for i in range(1000)
    ]
    suites.check_quadruple_counting(SEED)
    assert len(calls) == len(set(cases)) < 1000
    assert sum(shape[0] for shape in calls) == 1000


def test_quadruple_table_oracle_matches_pair_multiplicities():
    rng = derive_rng(29)
    for moduli in ([1], [5], [12], [4, 6], [2, 2, 3], [2, 4, 8]):
        g = make_group(moduli)
        masks = rng.random((10, g.order)) < rng.random((10, 1))
        masks[0] = False
        masks[1] = True
        table = suites._subtraction_table_counts(g, masks)
        assert table.dtype == np.int64
        for mask, row in zip(masks, table):
            assert np.array_equal(row, _pair_multiplicity_count(g, GroupSubset(g, mask)))


def test_criterion_07_flags_a_miscount(monkeypatch):
    # one count off by exactly 1 passes the rounding gate, so only the
    # oracle comparison can catch it
    exact = fourier._exact_counts  # the quadruple counts enter their rounding here

    def off_by_one(counts):
        out = counts.copy()
        out.reshape(-1)[math.prod(counts.shape) // 2] += 1.0
        return exact(out)

    monkeypatch.setattr(fourier, "_exact_counts", off_by_one)
    res = suites.check_quadruple_counting(SEED)
    assert res.measured["mismatches"] > 0
    assert not res.passed


def test_criterion_11_flags_a_wrong_box_norm(monkeypatch):
    # each graph's box norm about density 0, not its own density: only the
    # graphs with eps = 0 (empty and complete) can break 3 eps^(1/8), and of
    # those only the complete graph, index 2^16 - 1, moves to box norm 1
    statistics = suites._one_sided_statistics
    flagged = []

    def about_zero():
        eps, _ = statistics()
        bits = np.arange(1 << 16)
        graphs = ((bits[:, None] >> np.arange(16)) & 1).astype(np.float64).reshape(-1, 4, 4)
        box = ((graphs @ graphs.transpose(0, 2, 1) / 4) ** 2).mean(axis=(1, 2)) ** 0.25
        flagged.extend(np.flatnonzero(box > 3 * eps**0.125 + TOLERANCE).tolist())
        return eps, box

    monkeypatch.setattr(suites, "_one_sided_statistics", about_zero)
    res = suites.check_quasirandom_appendix(SEED)
    assert flagged == [(1 << 16) - 1]
    assert res.measured["one_sided_violations"] == 1
    assert not res.passed


def test_criterion_01_bohr_size_bounds(battery):
    _criterion(battery, 1, "Bohr size bounds, 200 instances", budget_s=60)


def test_criterion_02_size_formula(battery):
    measured = _criterion(battery, 2, "size formula on weakly regular instances", budget_s=120)
    assert measured["instances"] >= 50


def test_criterion_03_large_spectrum(battery):
    measured = _criterion(battery, 3, "large spectrum certification, exhaustive scan")
    assert measured["failures"] == 0


def test_criterion_04_bohr_sum(battery):
    measured = _criterion(battery, 4, "Bohr sum identity with negative control")
    assert measured["negative_controls"] > 0


def test_criterion_05_dense_difference(battery):
    _criterion(battery, 5, "dense difference covering")


def test_criterion_06_lattice_spanning(battery):
    _criterion(battery, 6, "quantitative lattice spanning")


def test_criterion_07_quadruple_counting(battery):
    measured = _criterion(battery, 7, "quadruple counting vs oracle + popular differences")
    assert measured["cases"] >= 1000


def test_criterion_08_partial_projectivity(battery):
    measured = _criterion(battery, 8, "partial projectivity")
    assert measured["instances"] >= 50


def test_criterion_09_extraction_and_basis_moves(battery):
    measured = _criterion(battery, 9, "subprogression extraction + 1000 basis moves")
    assert measured["moves"] >= 1000


def test_criterion_10_regularity(battery):
    measured = _criterion(battery, 10, "regularity partition recheck")
    assert measured["instances"] >= 20


def test_criterion_11_quasirandom(battery):
    measured = _criterion(battery, 11, "quasirandomness appendix (2^16 graphs exhaustive)")
    assert measured["exhaustive_graphs"] == 1 << 16
    # every graph but the two with eps = 0 meets the bound vacuously
    assert measured["vacuous_graphs"] == (1 << 16) - 2


def test_criterion_12_main_theorem(battery):
    measured = _criterion(battery, 12, "main containment experiment batch", budget_s=600)
    assert measured["runs"] >= 30
    # saturated runs (D = G x H) are not counted as nontrivial
    assert (measured["saturated"], measured["nontrivial"]) == (80, 10)


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


# SHA-256 of the stripped run_suite("all", SEED) report: pins its bytes, not
# only their repeatability
BATTERY_DIGEST = "8fcb79feddee5bc7c1346f191529e7a76eca3476d0df659b27439b0a8238c14e"


def test_criterion_13_determinism(battery):
    second = suites.run_suite("all", SEED)
    a = json.dumps(_strip_timing(battery), sort_keys=True)
    b = json.dumps(_strip_timing(second), sort_keys=True)
    ok = a == b and battery["all_passed"]
    status = "PASS" if ok else "FAIL"
    print(f"criterion 13 {status}: determinism of run_suite('all')")
    assert a == b
    assert battery["all_passed"]
    assert hashlib.sha256(a.encode()).hexdigest() == BATTERY_DIGEST
