"""Every name a flowmcg module imports is used in that module, no module
imports another's private name, every private helper it defines has a
caller, every public method or property is named in the package or its
tests, and nothing the package runs loads sympy.

`__init__.py` only re-exports, and `from __future__` imports are
directives, so both are exempt from the import check."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flowmcg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


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


def private_imports(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed names a module imports from another flowmcg module."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if not (node.level or (node.module or "").split(".")[0] == "flowmcg"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{module}:{alias.name} (line {node.lineno})")
    return sorted(found)


def test_the_check_finds_a_private_import():
    sources = {
        "a.py": "from __future__ import annotations\nfrom .b import _hidden, shown\n"
        "from os import _exit\n",
        "b.py": "from flowmcg.a import _other\nfrom . import words\n",
    }
    assert private_imports(sources) == ["a.py:_hidden (line 2)", "b.py:_other (line 1)"]


def test_no_module_imports_a_private_name():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert private_imports(sources) == []


def orphan_helpers(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed functions and methods (dunders aside) named nowhere in
    the sources outside their own definitions."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    references = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    orphans = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(
                id(ref) not in own and (ref.id if isinstance(ref, ast.Name) else ref.attr) == name
                for ref in references
            ):
                orphans.append(f"{module}:{name} (line {node.lineno})")
    return sorted(orphans)


def test_the_check_finds_an_orphan_helper():
    sources = {
        "a.py": "def _used(): pass\ndef _alone(n): return _alone(n - 1)\nclass C:\n"
        "    def __init__(self): self._step()\n    def _step(self): pass\n    def _idle(self): pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert orphan_helpers(sources) == ["a.py:_alone (line 2)", "a.py:_idle (line 6)"]


def test_every_private_helper_has_a_caller():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphan_helpers(sources) == []


def orphan_members(sources: dict[str, str], owners: set[str]) -> list[str]:
    """Public methods and properties of the public classes in the `owners`
    modules, named nowhere in the sources outside their own definitions.
    Dunders are exempt, and so are the members of a private class, which
    may override a base class's hooks."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(id(node))
    orphans = []
    for module in sorted(owners):
        for cls in ast.walk(trees[module]):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                    continue
                own = {id(inner) for inner in ast.walk(node)}
                if all(ref in own for ref in named.get(node.name, [])):
                    orphans.append(f"{module}:{cls.name}.{node.name} (line {node.lineno})")
    return sorted(orphans)


def test_the_check_finds_an_orphan_member():
    sources = {
        "a.py": "class C:\n    @property\n    def size(self): return 1\n"
        "    def grow(self, n): return self.grow(n - 1)\n    def used(self): pass\n"
        "    def __len__(self): return 0\n    def _hidden(self): pass\n"
        "class _P(C):\n    def error(self): pass\n",
        "test_a.py": "from a import C\nC().used()\n",
    }
    assert orphan_members(sources, {"a.py"}) == ["a.py:C.grow (line 4)", "a.py:C.size (line 3)"]


def test_every_public_member_is_named():
    sources = {f"src/{p.name}": p.read_text() for p in SRC.glob("*.py")}
    owners = set(sources)
    sources.update({f"tests/{p.name}": p.read_text() for p in TESTS.glob("*.py")})
    assert orphan_members(sources, owners) == []


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
    """No layer imports sympy, the polynomial ones included: factoring,
    real-root isolation and counting, the number-theory predicates and the
    integer kernels are all local, and sympy is a test oracle only."""
    users = sorted(p.name for p in SRC.glob("*.py") if "sympy" in imported_roots(p.read_text()))
    assert users == []


def test_the_cli_runs_without_loading_sympy(tmp_path):
    """In a fresh interpreter, importing the CLI and running `pf` (which
    factors and isolates roots) and `odometer` (which tests primality)
    loads no sympy module, directly or through a dependency."""
    fib = tmp_path / "fib.json"
    fib.write_text(json.dumps({"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}))
    code = (
        "import contextlib, io, sys\n"
        "from flowmcg import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(['pf', sys.argv[1]]), cli.run(['odometer', '--period', '2,3'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(fib)], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert out.stdout.strip() == "[0, 0] []"
