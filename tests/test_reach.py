"""The library holds only what its jobs reach.

Every public top-level function or class in ``src/bogolib`` must be
referenced outside its own definition, from the library itself, the demos
or the benchmark: as a name, an attribute, an import or a string (each
dot-separated part of a string constant other than a docstring counts, so
the benchmark's traced ``("module", "Class.method")`` pairs count).  Tests
do not count: code that only tests call belongs beside the tests.  The
check reads the sources with ``ast`` and imports nothing.

Every public method of a public library class, properties and classmethods
included, must likewise be named as an attribute (or a string part) outside
its own body.  The check goes by name alone, so it cannot see dunders
(``__len__`` runs through ``len``, ``__neg__`` through ``-``), nor a method
whose name some other attribute carries: a name shared with another
library method (``elements``, ``singleton``) or with numpy (``empty``,
``full``, ``transpose``) counts as reached.
"""

import ast
from collections import Counter, defaultdict
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


def _attributes(node: ast.AST, docstrings: set[int]) -> Counter:
    """How often each attribute name and string part occurs under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                out.update(sub.value.split("."))
    return out


def unreached_methods(library: Path, callers: list[Path]) -> list[str]:
    """``module.Class.method`` of each public method of a public class in
    ``library`` whose name nothing in ``callers`` carries as an attribute
    or a string part outside the method's own body."""
    total = Counter()
    methods = []  # (module, class, method, attribute counts in its own body)
    for folder in callers:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstrings(tree)
            total.update(_attributes(tree, docstrings))
            if folder != library:
                continue
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                    continue
                for fn in cls.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not fn.name.startswith("_"):
                            own = _attributes(fn, docstrings)
                            methods.append((path.stem, cls.name, fn.name, own))
    return sorted(
        f"{module}.{cls}.{name}"
        for module, cls, name, own in methods
        if total[name] <= own[name]
    )


def test_every_public_definition_is_reached():
    assert unreached_definitions(LIBRARY, CALLERS) == []


def test_every_public_method_is_reached():
    assert unreached_methods(LIBRARY, CALLERS) == []


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


def test_method_reach_guard_flags_self_and_docstring_references(tmp_path):
    lib, demos = tmp_path / "lib", tmp_path / "demos"
    lib.mkdir()
    demos.mkdir()
    (lib / "mod.py").write_text(
        "class Box:\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n"
        "    def _private(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def traced(self):\n        return 2\n\n\n"
        "class _Hidden:\n    def loose(self):\n        return 3\n"
    )
    (demos / "run.py").write_text(
        '"""Box.lonely"""\nfrom lib.mod import Box\nprint(Box().size)\n'
        'TRACED = [("mod", "Box.traced")]\n'
    )
    assert unreached_methods(lib, [lib, demos]) == ["mod.Box.lonely"]
    # without the demo, what only it reaches is flagged too
    assert unreached_methods(lib, [lib]) == ["mod.Box.lonely", "mod.Box.size", "mod.Box.traced"]
