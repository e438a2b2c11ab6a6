"""Modules of the package use each other through public names only."""

import ast
from pathlib import Path

import splinetree

PACKAGE = Path(splinetree.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_uses(path):
    """Underscored names taken out of another module of the package, as text.

    Both ways count: ``from .module import _name``, and ``module._name`` on
    a name that an import bound to a module of the package.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "splinetree":
                continue
            found += [
                f"{path.name}: from {'.' * node.level}{module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
            if module in ("", "splinetree"):  # from . import basis [as name]
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name in MODULES}
    found += [
        f"{path.name}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _private_uses(path)] == []
