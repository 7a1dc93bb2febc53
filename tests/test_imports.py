"""Every name a module of the package imports is used in that module,
every private module-level name is read somewhere in the package, and every
error class is named outside ``errors.py`` or is a base of one that is.

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


def names_read(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: by name, as an attribute or in an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private (leading ``_``, not dunder) function,
    class or constant that a module of ``sources`` defines at its top level
    and that no module reads: by name, as an attribute or in an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
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


def unnamed_error_classes(sources: dict[str, str], errors: str = "errors.py") -> list[str]:
    """The classes ``errors`` defines at its top level that no other module
    of ``sources`` names (by name, as an attribute or in an import) and that
    no class of ``errors`` derives from, in the order they are defined."""
    named = set().union(*(names_read(ast.parse(source))
                          for module, source in sources.items() if module != errors))
    classes = [node for node in ast.parse(sources[errors]).body if isinstance(node, ast.ClassDef)]
    named.update(base.id for node in classes for base in node.bases if isinstance(base, ast.Name))
    return [node.name for node in classes if node.name not in named]


def test_the_walk_finds_an_unnamed_error_class():
    sources = {
        "errors.py": ("class Base(Exception):\n    pass\nclass Raised(Base):\n    pass\n"
                      "class Caught(Base):\n    pass\nclass Dead(Base):\n    pass\n"
                      "class Selfish(Base):\n    pass\n_ALIAS = Selfish\n"),
        "a.py": ("from .errors import Raised\nfrom . import errors\n"
                 "try:\n    raise Raised()\nexcept errors.Caught:\n    pass\n"),
    }
    assert unnamed_error_classes(sources) == ["Dead", "Selfish"]


def test_every_error_class_is_named():
    assert unnamed_error_classes({m: (SRC / m).read_text() for m in PACKAGE}) == []
