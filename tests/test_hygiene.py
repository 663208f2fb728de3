"""Import hygiene: no modcut module imports a name it never uses.

``__init__.py`` is exempt, since re-exporting imported names is its job.
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
