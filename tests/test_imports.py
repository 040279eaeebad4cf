"""Every imported name in the package and its tests is used.

The project runs no linter, so this is the check that catches a dead import.
A package ``__init__.py`` imports to re-export and is skipped; any other
line that must keep an import nothing reads carries ``# noqa`` with the
reason.
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
