"""Hygiene: no modcut module imports a name it never uses, no
module-level private name goes unreferenced across the package, no public
name goes unread, no class stores an attribute that nothing reads, the
package re-exports only names its modules declare public, and README names
no private name that the package does not define.

``__init__.py`` is exempt from the import check, since re-exporting imported
names is its job.
"""

import ast
import re
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


def unread_public_names(sources: dict[str, str], readers=()) -> list[str]:
    """``module.name`` for each name in the ``__all__`` of a module of
    ``sources`` (module name -> source) that no module of ``sources`` or
    ``readers`` loads as a name, reads as an attribute or imports."""
    public = []
    read = set()
    for source in list(sources.values()) + list(readers):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                public += [(module, name) for name in ast.literal_eval(node.value)]
    return ["%s.%s" % key for key in public if key[1] not in read]


def test_checker_sees_unread_public_names():
    sources = {"a": ("__all__ = ['Shape', 'helper', 'lost', 'imported', 'attr']\n"
                     "class Shape:\n    pass\n"
                     "def helper() -> Shape:\n    return Shape()\n"
                     "def lost():\n    return 1\n"
                     "def imported():\n    return 2\n"
                     "def attr():\n    return 3\n"),
               "b": "from a import imported\n"}
    readers = ["import a\na.attr()\n"]
    assert unread_public_names(sources, readers) == ["a.helper", "a.lost"]
    assert unread_public_names(sources) == ["a.helper", "a.lost", "a.attr"]


def test_public_names_are_read():
    """Every name a modcut module declares public is read somewhere in the
    package (not counting ``__init__``'s re-export), its tests or the
    benchmark harness."""
    root = Path(__file__).resolve().parent.parent
    sources = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for pattern in ("tests/*.py", "perfbench/*.py")
               for p in root.glob(pattern)]
    assert unread_public_names(sources, readers) == []


def test_reexports_are_public():
    init = Path(modcut.__file__)
    missing = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = getattr(modcut, node.module).__all__
            missing += ["%s.%s" % (node.module, alias.name)
                        for alias in node.names if alias.name not in public]
    assert missing == []


def write_only_attributes(sources: dict[str, str], readers=()) -> list[str]:
    """``module.Class.x`` for each ``self.x`` that a method in ``sources``
    (module name -> source) stores, when no module of ``sources`` or
    ``readers`` loads an attribute ``x`` outside an assignment to ``self.x``
    itself (so ``self.x = max(self.x, v)`` is not a read)."""
    stored = set()
    loaded = set()
    for source in list(sources.values()) + list(readers):
        tree = ast.parse(source)
        own_loads = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                own = {t.attr for t in targets if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id == "self"}
                own_loads.update(id(n) for n in ast.walk(node)
                                 if isinstance(n, ast.Attribute) and n.attr in own)
        loaded.update(n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                      and id(n) not in own_loads)
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                stored.update((module, cls.name, n.attr) for n in ast.walk(cls)
                              if isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Store)
                              and isinstance(n.value, ast.Name) and n.value.id == "self")
    return ["%s.%s.%s" % key for key in sorted(stored) if key[2] not in loaded]


def test_checker_sees_write_only_attributes():
    sources = {"a": ("class Machine:\n"
                     "    def __init__(self):\n"
                     "        self.count = 0\n"
                     "        self.peak = 0\n"
                     "        self.kept = 1\n"
                     "        self.read_elsewhere = 2\n"
                     "    def step(self):\n"
                     "        self.count += 1\n"
                     "        self.peak = max(self.peak, self.count)\n"
                     "        return self.kept\n")}
    readers = ["def f(m):\n    return m.read_elsewhere\n"]
    assert write_only_attributes(sources, readers) == ["a.Machine.peak"]
    assert write_only_attributes(sources) == ["a.Machine.peak",
                                              "a.Machine.read_elsewhere"]


def test_no_write_only_attributes():
    """Every attribute a modcut class stores is read somewhere in the
    package, its tests or the benchmark harness."""
    root = Path(__file__).resolve().parent.parent
    sources = {p.stem: p.read_text()
               for p in Path(modcut.__file__).parent.glob("*.py")}
    readers = [p.read_text() for pattern in ("tests/*.py", "perfbench/*.py")
               for p in root.glob(pattern)]
    assert write_only_attributes(sources, readers) == []


def stale_private_names(text: str, sources: dict[str, str]) -> list[str]:
    """Backticked private names in ``text`` (`` `_x` `` or `` `module._x` ``)
    that no module of ``sources`` (module name -> source) defines as a
    function, class or assigned name at any depth.  A name qualified by a
    module of ``sources`` must be defined in that module."""
    defined = {}
    for module, source in sources.items():
        names = defined[module] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    everywhere = set().union(*defined.values())
    return ["%s%s" % (qual and qual + ".", name)
            for qual, name in re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)", text)
            if name not in defined.get(qual, everywhere)]


def test_checker_sees_stale_private_names():
    sources = {"a": ("_TABLE = {}\ndef _helper():\n    pass\n"
                     "class Shape:\n    def _area(self):\n        _side = 1\n"),
               "b": "def _other():\n    pass\n"}
    text = ("`_TABLE`, `a._helper()` and `Shape._area` hold; `_side = 1`, "
            "`_other`; but `b._helper`, `_lost(x)` and `a._other` do not")
    assert stale_private_names(text, sources) == ["b._helper", "_lost", "a._other"]


def test_readme_names_only_defined_private_names():
    """A private name that README cites in backticks is defined in
    ``src/modcut/``, in the module it names, if it names one."""
    root = Path(__file__).resolve().parent.parent
    sources = {p.stem: p.read_text()
               for p in Path(modcut.__file__).parent.glob("*.py")}
    assert stale_private_names((root / "README.md").read_text(), sources) == []


def test_the_decider_is_independent_of_its_checks():
    """Lattice reduction (``mgcf_direct``) and the tracer (``trace``) check
    block verdicts from outside, so ``shiftspace`` neither imports nor reads
    either: its witness words come from the segment codec alone."""
    tree = ast.parse((Path(modcut.__file__).parent / "shiftspace.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names & {"mgcf_direct", "trace"} == set()
