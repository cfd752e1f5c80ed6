"""Float FFT counts never leave their kernel.

The library's integer counts come from two real-FFT kernels,
``groups._convolution_counts`` and ``fourier.quadruple_count_all``, and each
rounds its counts through ``groups._exact_counts`` before returning.  The
guard below reads the sources with ``ast`` and fails when ``rfftn``,
``irfftn`` or ``_exact_counts`` is used anywhere else, so a new caller
cannot get unrounded counts.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import bogolib as bg
from bogolib import fourier, groups
from bogolib.groups import GroupSubset
from bogolib.rng import derive_rng

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
