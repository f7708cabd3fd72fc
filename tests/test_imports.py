"""Every name a module of ``inccat`` imports is used in that module.

The scan reads each module's syntax tree with the standard library's
``ast``, so it needs no linter.  ``__init__.py`` is exempt: the names it
imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "inccat"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Sequence as Seq\n"
        "def f(x: Seq) -> str:\n"
        "    return os.path.join(*x)\n"
    )
    assert unused_imports(source) == ["Any"]
