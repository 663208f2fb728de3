"""Hygiene: no modcut module imports a name it never uses, no
module-level private name goes unreferenced across the package, and the
package re-exports only names its modules declare public.

``__init__.py`` is exempt from the import check, since re-exporting imported
names is its job.
"""

import ast
from pathlib import Path

import pytest

import modcut

MODULES = sorted(p for p in Path(modcut.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_checker_sees_unused_names():
    src = ("from typing import Iterable, Optional\nimport json, os.path\n"
           "def f(x: Optional[int]) -> None:\n    os.path.join(json.dumps(x))\n")
    assert unused_imports(src) == ["Iterable (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` names (dunders aside) that no module loads, reads
    as an attribute or imports; ``sources`` maps module names to source."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return ["%s.%s" % (module, name) for module, name in defined
            if name not in referenced]


def test_checker_sees_unreferenced_private_names():
    sources = {
        "a": ("__all__ = []\n_TABLE = {}\n_lost, _kept = 1, 2\n"
              "def _helper():\n    return _TABLE\n"
              "def _orphan():\n    _local = 1\n    return _local\n"
              "class _Shape:\n    pass\n"),
        "b": ("from a import _helper\nimport a\n"
              "def f():\n    return _helper(), a._Shape, a._kept\n"),
    }
    assert unreferenced_private_names(sources) == ["a._lost", "a._orphan"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text()
               for p in Path(modcut.__file__).parent.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_reexports_are_public():
    init = Path(modcut.__file__)
    missing = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = getattr(modcut, node.module).__all__
            missing += ["%s.%s" % (node.module, alias.name)
                        for alias in node.names if alias.name not in public]
    assert missing == []
