"""Every name a flowmcg module imports is used in that module.

`__init__.py` only re-exports, and `from __future__` imports are
directives, so both are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flowmcg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re as r\nfrom x import y\nr.sub\n"
    assert unused_imports(source) == ["os (line 2)", "y (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_roots(source: str) -> set[str]:
    """Top-level package names a module imports."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_the_polynomial_layers_import_sympy():
    """Factoring, root counting and a few number-theory helpers come from
    sympy; the integer kernels (Smith form, characteristic polynomials,
    inverses in Q(lambda)) are local, with sympy's kept as test oracles."""
    users = sorted(p.name for p in SRC.glob("*.py") if "sympy" in imported_roots(p.read_text()))
    assert users == ["coinvariants.py", "mcg.py", "numberfield.py"]
