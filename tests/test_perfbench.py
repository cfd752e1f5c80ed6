"""The benchmark tracer's names and count hooks still fit the library.

``perfbench/run.py --trace 1`` wraps the functions that ``perfbench/spans.py``
names and reads counts from their results; a rename, a signature change or a
removed result field in the library would otherwise only show when a traced
run fails.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import bogolib as bg
from bogolib import bilinear, suites
from bogolib.cli import run_experiment
from bogolib.progressions import CosetProgression

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402


def test_traced_names_resolve():
    for module, path in spans.TRACED:
        obj = importlib.import_module(f"bogolib.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, path)
    registered = {fn.__name__ for checks in suites.SUITES.values() for fn in checks}
    assert sorted(spans.SUITE_CHECKS) == sorted(registered)
    for name in spans.SUITE_CHECKS:
        assert callable(getattr(suites, name)), name


def test_count_hooks_target_traced_spans():
    hooks = spans._count_hooks()
    assert hooks and set(hooks) <= set(spans.span_names())


def test_count_hooks_run_on_real_results(monkeypatch):
    # every hook reads the real arguments and result of its function: one
    # contain-sparse experiment, then a regularity partition whose loop
    # extracts relations (so annihilator_points runs)
    hooks = spans._count_hooks()
    calls = {name: [] for name in hooks}
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("bogolib.")]
    for name in hooks:
        module, attr = name.split(".")
        orig = getattr(importlib.import_module(f"bogolib.{module}"), attr)

        def recording(*args, orig=orig, name=name, **kwargs):
            result = orig(*args, **kwargs)
            calls[name].append((args, kwargs, result))
            return result

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    monkeypatch.setattr(m, key, recording)
    n, word, delta, seed = run.batch_inputs("contain-sparse", 1)[0]
    run_experiment(f"Z{n}", f"Z{n}", delta, seed, word=word)
    gx, gy = bg.make_group([64]), bg.make_group([64])
    c = CosetProgression.symmetric(gy, [(gy.element([1]), 25)])
    lmap = bilinear.linear_map_on_progression(c, gx.dual, [gx.dual.element([16])])
    assert bilinear.regularity_partition(c, [], [lmap], Fraction(1, 4), Fraction(1, 4), 20, gx).steps
    for name, hook in hooks.items():
        assert calls[name], name
        for args, kwargs, result in calls[name]:
            counts = hook(args, kwargs, result)
            assert set(counts) <= set(spans.COUNT_NAMES), name
            assert all(isinstance(v, int) and v >= 0 for v in counts.values()), name
