"""Every imported name in the package and its tests is used.

The project runs no linter, so this is the check that catches a dead import.
A package ``__init__.py`` imports to re-export and is skipped; any other
line that must keep an import nothing reads carries ``# noqa`` with the
reason.  In the same spirit, every private name the package defines, at
module level or as an attribute of a private class, must be read somewhere
in the package or its scripts; the scan goes by name, so it catches only a
name that nothing reads at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for top in ("src", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (line, name)
        for line, name in imported
        if name not in read and "# noqa" not in lines[line - 1]
    ]


def test_the_scan_sees_names_and_attributes():
    source = (
        "import os\n"
        "import json\n"
        "from typing import Sequence, Mapping\n"
        "from math import lcm  # noqa: F401\n"
        "def f(x: Sequence) -> str:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "Mapping")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = sorted((ROOT / "src" / "ambipref").glob("*.py"))
READERS = sorted(path for top in ("src", "scripts") for path in (ROOT / top).rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _bound(node: ast.stmt) -> list[str]:
    """The names a module- or class-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private module-level name and each attribute of a private class.

    A private class's attributes are the names its body binds and those its
    methods assign on ``self``; dunder names are left out.
    """
    found = []
    for node in ast.parse(source).body:
        found += [(node.lineno, name) for name in _bound(node) if _private(name)]
        if isinstance(node, ast.ClassDef) and _private(node.name):
            for item in node.body:
                found += [(item.lineno, name) for name in _bound(item)
                          if not name.startswith("__")]
            found += [(sub.lineno, sub.attr) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
    return found


def read_names(source: str) -> set[str]:
    """Every name the source loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_the_dead_code_scan_sees_private_names_and_attributes():
    source = (
        "_CACHE = {}\n"
        "_DEAD = 1\n"
        "def _helper(): return _CACHE\n"
        "class _Box:\n"
        "    size = 1\n"
        "    spare = 2\n"
        "    def __init__(self): self.items = []; self.unused = 0\n"
        "    def _grow(self): return self.items, self.size, _helper()\n"
        "class Public:\n"
        "    spare = 3\n"
    )
    read = read_names(source)
    assert sorted(d for d in private_definitions(source) if d[1] not in read) == [
        (2, "_DEAD"), (4, "_Box"), (6, "spare"), (7, "unused"), (8, "_grow")]


def test_every_private_name_is_read():
    """Each private module-level name, and attribute of a private class, in the package
    is read somewhere in the package or the scripts."""
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    dead = [(str(path.relative_to(ROOT)), line, name) for path in PACKAGE
            for line, name in private_definitions(path.read_text()) if name not in read]
    assert dead == []
