"""The package's public API: `gafsim.__all__` lists exactly what `__init__` imports."""

import ast
from pathlib import Path

import gafsim


def imported_public_names() -> list[str]:
    """Names bound by the `from .module import ...` statements of gafsim/__init__.py."""
    tree = ast.parse(Path(gafsim.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_export_resolves():
    missing = [name for name in gafsim.__all__ if not hasattr(gafsim, name)]
    assert missing == []


def test_all_equals_the_imported_names():
    imported = imported_public_names()
    assert len(gafsim.__all__) == len(set(gafsim.__all__)), "duplicate __all__ entry"
    assert len(imported) == len(set(imported)), "name imported twice"
    assert set(gafsim.__all__) == set(imported)
