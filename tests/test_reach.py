"""The library holds only what its jobs reach.

Every public top-level function or class in ``src/bogolib`` must be
referenced outside its own definition, from the library itself, the demos
or the benchmark: as a name, an attribute, an import or a string (each
dot-separated part of a string constant other than a docstring counts, so
the benchmark's traced ``("module", "Class.method")`` pairs count).  Tests
do not count: code that only tests call belongs beside the tests.  The
check reads the sources with ``ast`` and imports nothing.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "bogolib"
CALLERS = [LIBRARY, ROOT / "demos", ROOT / "perfbench"]


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of the module, classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    out.add(id(body[0].value))
    return out


def _names(node: ast.AST, docstrings: set[int]) -> set[str]:
    """Every name, attribute, imported name and string part under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                out.update(sub.value.split("."))
    return out


def _top_level_name(stmt: ast.stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def unreached_definitions(library: Path, callers: list[Path]) -> list[str]:
    """``module.name`` of each public top-level definition in ``library``
    that nothing in ``callers`` refers to outside its own body."""
    public = {}  # name -> defining files
    refs = defaultdict(set)  # name -> (file, owning definition) it appears in
    for folder in callers:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstrings(tree)
            for stmt in tree.body:
                owner = _top_level_name(stmt)
                if folder == library and owner and not owner.startswith("_"):
                    public.setdefault(owner, set()).add(path)
                for name in _names(stmt, docstrings):
                    refs[name].add((path, owner))
    unreached = []
    for name, paths in public.items():
        for path in paths:
            if not any((where, owner) != (path, name) for where, owner in refs[name]):
                unreached.append(f"{path.stem}.{name}")
    return sorted(unreached)


def test_every_public_definition_is_reached():
    assert unreached_definitions(LIBRARY, CALLERS) == []


def test_reach_guard_flags_self_and_docstring_references(tmp_path):
    lib, demos = tmp_path / "lib", tmp_path / "demos"
    lib.mkdir()
    demos.mkdir()
    (lib / "mod.py").write_text(
        'def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n'
        "def _private():\n    return 0\n\n\n"
        "def by_name():\n    return 1\n\n\n"
        "class ByString:\n    def method(self):\n        return by_name()\n\n\n"
        "def by_import():\n    return 2\n"
    )
    (demos / "run.py").write_text(
        '"""lonely"""\nfrom lib.mod import by_import\nTRACED = [("mod", "ByString.method")]\n'
    )
    assert unreached_definitions(lib, [lib, demos]) == ["mod.lonely"]
    # without the demo, what only it reaches is flagged too
    assert unreached_definitions(lib, [lib]) == ["mod.ByString", "mod.by_import", "mod.lonely"]
