"""Modules of the package use each other through public names only."""

import ast
from pathlib import Path

import splinetree

PACKAGE = Path(splinetree.__file__).resolve().parent


def _private_imports(path):
    """``from`` imports of underscored names out of the package, as text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "splinetree":
            continue
        found += [
            f"{path.name}: from {'.' * node.level}{module} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _private_imports(path)] == []
