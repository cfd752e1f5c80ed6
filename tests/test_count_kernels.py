"""Float FFT counts never leave their kernel.

The library's integer counts come from two real-FFT kernels,
``groups._convolution_counts`` and ``fourier.quadruple_count_all``, and each
rounds its counts through ``groups._exact_counts`` before returning.  The
guard below reads the sources with ``ast`` and fails when ``rfftn``,
``irfftn`` or ``_exact_counts`` is used anywhere else, so a new caller
cannot get unrounded counts.  Both kernels transform their batch in row
blocks of about ``groups._COUNT_BLOCK`` entries; the tests below shrink the
block so that small batches cross block boundaries.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bogolib as bg
from bogolib import fourier, groups
from bogolib.groups import GroupSubset
from bogolib.rng import derive_rng
from bogolib.suites import _subtraction_table_counts
from oracles import row_differences

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "bogolib"
WATCHED = {"rfftn", "irfftn", "_exact_counts"}
KERNELS = {("groups", "_convolution_counts"), ("fourier", "quadruple_count_all")}


def watched_uses(library: Path) -> set[tuple[str, str | None, str]]:
    """(module, owner, name) of each use of a watched name in ``library``:
    a name, an attribute or an imported name.  The owner is the enclosing
    top-level function or class, None at module level."""
    out = set()
    for path in sorted(library.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)  # defs and classes have a name
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name in WATCHED:
                    out.add((path.stem, owner, name))
    return out


def test_float_counts_stay_inside_the_kernels():
    uses = watched_uses(LIBRARY)
    for module, kernel in KERNELS:  # each kernel transforms and rounds
        assert {(module, kernel, name) for name in WATCHED} <= uses
    outside = {(m, o, n) for m, o, n in uses if (m, o) not in KERNELS}
    assert outside == {("fourier", None, "_exact_counts")}  # its import


def test_count_guard_flags_a_new_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy.fft import rfftn\n\n\n"
        "class Counts:\n    def raw(self, m):\n        return np.fft.irfftn(rfftn(m))\n"
    )
    assert watched_uses(tmp_path) == {
        ("mod", None, "rfftn"),
        ("mod", "Counts", "rfftn"),
        ("mod", "Counts", "irfftn"),
    }


def test_exact_counts_reject_non_finite(monkeypatch):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ArithmeticError):
            groups._exact_counts(np.array([1.0, bad, 2.0]))
    g = bg.make_group([4, 6])
    a = GroupSubset(g, derive_rng(7).random(g.order) < 0.3)
    exact = groups._exact_counts
    for bad in (np.nan, np.inf):

        def poisoned(counts, bad=bad):
            counts = counts.copy()
            counts.reshape(-1)[1] = bad
            return exact(counts)

        for module in (groups, fourier):
            monkeypatch.setattr(module, "_exact_counts", poisoned)
        for run in (lambda: a.sumset(a), lambda: fourier.quadruple_count_all(g, a.mask)):
            with pytest.raises(ArithmeticError):
                run()

    # one row per block: a poisoned last block must raise, so every block is
    # rounded and checked, not only the first
    monkeypatch.setattr(groups, "_COUNT_BLOCK", g.order)
    rows = derive_rng(8).random((3, g.order)) < 0.3
    for bad in (np.nan, np.inf):
        calls = []

        def poisoned_last(counts, bad=bad):
            calls.append(counts.shape)
            if len(calls) == rows.shape[0]:
                counts = counts.copy()
                counts.reshape(-1)[-1] = bad
            return exact(counts)

        for module in (groups, fourier):
            monkeypatch.setattr(module, "_exact_counts", poisoned_last)
        for run in (
            lambda: groups._convolution_counts(g, rows),
            lambda: groups._convolution_counts(g, rows, rows),
            lambda: fourier.quadruple_count_all(g, rows),
        ):
            calls.clear()
            with pytest.raises(ArithmeticError):
                run()
            assert calls == [(1, g.order)] * rows.shape[0]


def pair_counts(g, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """counts[x] = #{(a, b): a + b = x} per row, exact and without FFT: over
    the table sub[x, a] = x - a, counts[x] = sum_a m1[a] m2[x - a]."""
    coords = g.coords_matrix
    sub = g.index_of_coords(coords[:, None, :] - coords[None, :, :])
    a = m1.reshape(-1, g.order).astype(np.int64)
    b = m2.reshape(-1, g.order).astype(np.int64)
    return np.einsum("na,nxa->nx", a, b[:, sub]).reshape(m1.shape)


@pytest.mark.parametrize("moduli", [[256], [2] * 5, [4, 8], [6, 15]])
def test_blocked_kernels_match_exact_counts_across_blocks(monkeypatch, moduli):
    """With 64-entry blocks, Z256 and Z6xZ15 (order 90) take one row per
    block and Z2^5 and Z4xZ8 two; every batch shape gives the counts of the
    FFT-free oracles, through one ``_exact_counts`` call per block."""
    g = bg.make_group(moduli)
    monkeypatch.setattr(groups, "_COUNT_BLOCK", 64)
    per_block = max(1, 64 // g.order)
    exact = groups._exact_counts
    calls = []

    def counted(counts):
        calls.append(counts.shape[0])
        return exact(counts)

    for module in (groups, fourier):
        monkeypatch.setattr(module, "_exact_counts", counted)
    rng = derive_rng(9, g.order)
    neg = g.negation_permutation
    for shape in ((g.order,), (0, g.order), (5, g.order), (2, 3, g.order)):
        m1 = rng.random(shape) < 0.3
        m2 = rng.random(shape) < 0.2
        n = int(np.prod(shape[:-1]))
        blocks = -(-n // per_block)
        runs = (
            (groups._convolution_counts(g, m1), pair_counts(g, m1, m1[..., neg])),
            (groups._convolution_counts(g, m1, m2), pair_counts(g, m1, m2)),
            (
                fourier.quadruple_count_all(g, m1),
                _subtraction_table_counts(g, m1.reshape(-1, g.order)).reshape(shape),
            ),
        )
        assert calls == [min(per_block, n - i * per_block) for i in range(blocks)] * 3
        calls.clear()
        for got, want in runs:
            assert got.dtype == np.int64 and got.shape == shape
            assert np.array_equal(got, want)
        support = row_differences(g, m1.reshape(-1, g.order)).reshape(shape)
        assert np.array_equal(runs[0][0] > 0, support)


def test_count_kernels_peak_memory():
    """A (256, 256) Z256 batch is transformed in blocks, so after one warm
    call each kernel's traced peak stays below 1 MiB, twice its 0.5 MiB
    int64 result (about 2 MiB for one transform over the whole batch)."""
    g = bg.make_group([256])
    rows = derive_rng(10).random((256, g.order)) < 0.2
    for run in (
        lambda: groups._convolution_counts(g, rows),
        lambda: groups._convolution_counts(g, rows, rows),
        lambda: fourier.quadruple_count_all(g, rows),
    ):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
