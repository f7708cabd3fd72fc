"""Every name a module of ``inccat`` imports is used in that module, and
every source file parses with the oldest supported Python's grammar.

The scans read syntax trees with the standard library's ``ast``, so they
need no linter.  ``__init__.py`` is exempt from the import scan: the
names it imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "inccat"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ROOT = PACKAGE.parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench", "demos") for path in (ROOT / top).rglob("*.py"))


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


def test_every_source_file_parses_as_python_3_10():
    """The syntax half of the CI's Python 3.10 leg, run on any newer Python.

    This checks syntax only: a call to a standard-library function added
    after 3.10 still passes.
    """
    assert len(SOURCES) > 30
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_python_3_11_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
