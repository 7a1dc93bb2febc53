"""Every name a module of the package imports is used in that module, and
every private module-level name is read somewhere in the package.

``__init__.py`` is left out of the import check: it imports names in order
to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nsfd"
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in PACKAGE if name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no other
    node of it reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nfrom os import path, sep as s\nprint(path)\n")
    assert unused_imports(source) == ["math", "s"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private (leading ``_``, not dunder) function,
    class or constant that a module of ``sources`` defines at its top level
    and that no module reads: by name, as an attribute or in an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names if _private(name) and name not in read]
    return unread


def test_the_walk_finds_an_unread_private_name():
    sources = {
        "a.py": ("__all__ = []\n_read, _dead = 1, 2\n_TABLE: dict = {}\n"
                 "def _f():\n    return _read\nclass _C:\n    pass\n"
                 "def _g():\n    pass\nprint(b._h)\n"),
        "b.py": "from a import _f\ndef _h():\n    pass\n_g = 3\n",
    }
    assert unread_private_names(sources) == ["a.py:_dead", "a.py:_TABLE", "a.py:_C", "a.py:_g",
                                             "b.py:_g"]


def test_no_unread_private_names():
    assert unread_private_names({m: (SRC / m).read_text() for m in PACKAGE}) == []
