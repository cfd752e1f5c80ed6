"""The benchmark tracer's names still resolve in the library.

``perfbench/run.py --trace 1`` wraps the functions that ``perfbench/spans.py``
names; a rename or a signature change in the library would otherwise only
show when a traced run fails.
"""

import importlib
import sys
from pathlib import Path

from bogolib import suites

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
