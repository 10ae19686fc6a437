"""Every name a flowmcg module imports is used in that module, no module
imports another's private name, every private helper it defines has a
caller, every public method or property is named in the package or its
tests, every `Record` field is read, no parameter gains a default, and
nothing the package runs loads sympy.  Importing the package loads none of
its modules, the first name looked up on it loads every layer, and each CLI
command loads only the modules it runs.

`from __future__` imports are directives, so they are exempt from the
import check."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowmcg

SRC = Path(__file__).resolve().parent.parent / "src" / "flowmcg"
MODULES = sorted(SRC.glob("*.py"))
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


def unread_constants(sources: dict[str, str], owners: set[str]) -> list[str]:
    """UPPER_CASE names assigned at module level in the `owners` modules and
    read nowhere in the sources outside their own assignments."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(id(node))
    unread = []
    for module in sorted(owners):
        for node in trees[module].body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
            own = {id(inner) for inner in ast.walk(node)}
            unread += [
                f"{module}:{name} (line {node.lineno})"
                for name in names
                if all(ref in own for ref in reads.get(name, []))
            ]
    return sorted(unread)


def test_the_check_finds_an_unread_constant():
    sources = {
        "a.py": "LIMIT = 3\n_CAP = 4\nSTEP: int = 2\nlower = 1\nGROW = GROW + 1\n"
        "def f():\n    HIDDEN = 1\n    return LIMIT\n",
        "test_a.py": "import a\na.STEP\na._CAP = 5\n",
    }
    assert unread_constants(sources, {"a.py"}) == ["a.py:GROW (line 5)", "a.py:_CAP (line 2)"]


def test_every_constant_is_read():
    sources = {f"src/{p.name}": p.read_text() for p in SRC.glob("*.py")}
    owners = set(sources)
    sources.update({f"tests/{p.name}": p.read_text() for p in TESTS.glob("*.py")})
    assert unread_constants(sources, owners) == []


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


def defaulted_parameters(sources: dict[str, str]) -> set[str]:
    """`module.function.param` for every parameter with a default value,
    keyword-only and positional-only ones and those of lambdas included."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            name = getattr(node, "name", "<lambda>")
            found.update(f"{module}.{name}.{a.arg}" for a in defaulted)
    return found


def test_the_check_finds_defaulted_parameters():
    sources = {
        "a": "def f(x, y=1, *, z, w=2): pass\nclass C:\n    def m(self, k=0, /, j=1): pass\n"
        "g = lambda n=3: n\ndef h(a, *b, **c): pass\n",
    }
    assert defaulted_parameters(sources) == {"a.f.y", "a.f.w", "a.m.k", "a.m.j", "a.<lambda>.n"}


# every parameter with a default in the package; an option or a budget
# passed as a defaulted parameter is a new knob, so this set may only shrink
DEFAULTED = {
    "cli.run.argv",
    "coinvariants.derived_proper.base",
    "coinvariants.build_coinvariants.base",
    "coinvariants.induced_action.group",
    "flows.cocycle_slopes.x0",
    "flows.cocycle_slopes.k_range",
    "intpoly._add.c",
    "intpoly._prod.c",
    "mcg.assemble_mcg.aut_radius",
    "mcg.virtually_abelian_report.n_max",
    "substitution.fixed_point.left",
    "substitution.from_rules.alphabet",
}


def test_no_new_defaulted_parameter():
    assert defaulted_parameters({p.stem: p.read_text() for p in MODULES}) <= DEFAULTED


def pass_throughs(sources: dict[str, str]) -> list[str]:
    """`module.Class.function` (or `module.function`) for every function
    whose body, docstring aside, is one `return g(...)` that passes its own
    positional parameters, in order, and nothing else: a second name for g."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]
                params = [a.arg for a in child.args.posonlyargs + child.args.args]
                call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
                if (
                    isinstance(call, ast.Call)
                    and not call.keywords
                    and [getattr(a, "id", None) for a in call.args] == params
                ):
                    found.append(f"{prefix}{child.name}")
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for module, text in sources.items():
        visit(ast.parse(text), f"{module}.")
    return sorted(found)


def test_the_check_finds_a_pass_through():
    sources = {
        "a": "def f(x, y):\n    'doc'\n    return g(x, y)\ndef h(x, y): return g(y, x)\n"
        "def k(x): return g(x, 1)\ndef n(x): return g(x, key=1)\n"
        "class C:\n    def __neg__(self): return self.field.neg(self)\n"
        "    def sign(self): return self.field.signs([self])[0]\n"
        "    def wrap(self, x):\n        def inner(x): return self.f(x)\n        return inner\n",
    }
    assert pass_throughs(sources) == ["a.C.__neg__", "a.C.wrap.inner", "a.f"]


# functions that only pass their parameters on to another; a second name for
# one operation is a second way to it, so this set may only shrink.
# `integer_charpoly` names the Berkowitz core for perfbench's tracer, which
# wraps every public numberfield function at every binding: calling the
# public name inside numberfield would send its own Cayley–Hamilton calls
# through the tracer
PASS_THROUGHS = {
    "numberfield.integer_charpoly",
}


def test_no_function_only_passes_its_parameters_on():
    assert set(pass_throughs({p.stem: p.read_text() for p in MODULES})) <= PASS_THROUGHS


def unread_fields(sources: dict[str, str], owners: set[str]) -> list[str]:
    """`module.Class.field` for every annotated field of a `Record` subclass
    in the `owners` modules that is read nowhere in the sources outside its
    class body, by an attribute load or by `getattr` with its literal name.
    An attribute that is called, like `Alphabet.labels(n)`, is a method of
    that name and reads no field."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads: dict[str, list[int]] = {}
    for tree in trees.values():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in called:
                reads.setdefault(node.attr, []).append(id(node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                reads.setdefault(node.args[1].value, []).append(id(node))
    unread = []
    for module in sorted(owners):
        for cls in ast.walk(trees[module]):
            if not isinstance(cls, ast.ClassDef) or not any(
                isinstance(base, ast.Name) and base.id == "Record" for base in cls.bases
            ):
                continue
            own = {id(inner) for inner in ast.walk(cls)}
            unread += [
                f"{module}.{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and all(ref in own for ref in reads.get(node.target.id, []))
            ]
    return sorted(unread)


def test_the_check_finds_an_unread_field():
    sources = {
        "a": "from .errors import Record\nclass P(Record):\n    x: int\n    y: int = 0\n"
        "    z: int\n    w: int\n    u: int\n    def f(self): return self.y\nclass Q:\n    v: int\n"
        "def g(p): return p.x, getattr(p, 'z'), getattr(p, 'v' + 'w'), Q.u(3)\n",
        "test_a": "import a\na.P(1, 2, 3, 4, 5).w = 5\n",
    }
    assert unread_fields(sources, {"a"}) == ["a.P.u", "a.P.w", "a.P.y"]


# every Record field read nowhere outside its class; a field no code reads
# is a value carried for nothing, so this set may only shrink
UNREAD_FIELDS = {
    "coinvariants.ActionReport.basis_images",
    "coinvariants.ActionReport.trace_scale",
}


def test_every_record_field_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    owners = set(sources)
    sources.update({f"tests/{p.name}": p.read_text() for p in TESTS.glob("*.py")})
    assert set(unread_fields(sources, owners)) <= UNREAD_FIELDS


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


def test_no_module_imports_dataclasses():
    """Value types subclass `errors.Record`, which generates no code, so no
    module pays for `dataclasses` and the `inspect` it loads."""
    users = sorted(p.name for p in SRC.glob("*.py") if "dataclasses" in imported_roots(p.read_text()))
    assert users == []


# Modules a command loads besides the package, `cli` and `errors`, and its
# exit status.  `{name}` stands for the file of one of the INPUTS.
INPUTS = {
    "fib": {"0": "01", "1": "0"},
    "not_primitive": {"0": "01", "1": "11"},
    "periodic": {"0": "0101", "1": "01"},
    "identity": {"0": "0", "1": "1"},
}
SUBSTITUTION = {"substitution", "words"}
PERRON = SUBSTITUTION | {"intpoly", "numberfield", "pf"}
CLOSED_FORM = {"intpoly", "mcg"}
FOOTPRINTS = [
    (["pf", "{fib}"], 0, PERRON),
    (["cr", "{fib}"], 0, PERRON),
    (["complexity", "{fib}"], 0, SUBSTITUTION),
    (["language", "{fib}", "--n", "8"], 0, SUBSTITUTION),
    (["sturmian", "--surd", "(1,-1,5,2)"], 0, CLOSED_FORM),
    (["odometer", "--period", "2,3"], 0, CLOSED_FORM),
    (["checklist", "--hierarchical", "2,2,2"], 0, CLOSED_FORM),
    (["hierarchical", "--n", "2,2,2,2", "--tables", "12"], 0, CLOSED_FORM | {"words"}),
    (["analyze", "{fib}"], 0, CLOSED_FORM | PERRON | {"asymptotics", "automorphisms"}),
    (["analyze", "{not_primitive}"], 1, CLOSED_FORM | SUBSTITUTION),
    (["analyze", "{periodic}"], 1, CLOSED_FORM | SUBSTITUTION | {"numberfield"}),
    (["analyze", "{identity}"], 1, CLOSED_FORM | SUBSTITUTION),
]


def test_the_cli_runs_without_loading_sympy(tmp_path):
    """In a fresh interpreter per command, running it loads no sympy module,
    directly or through a dependency, and exactly the flowmcg modules it
    needs: `pf` and `cr` the Perron layers, `complexity` and `language`
    only substitutions and words, `analyze` no coinvariants or flows (λ is
    read off the PF data), the closed forms and the refused `analyze`
    inputs no Aut search, and
    `hierarchical --tables` only `words` besides the closed forms' modules.  Importing the
    package alone loads none of its modules, and the first name looked up on
    it loads every layer.  Neither a command nor that lookup loads
    `dataclasses` or `inspect`."""
    files = {}
    for name, rules in INPUTS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"alphabet": sorted(rules), "rules": rules}))
    code = (
        "import contextlib, io, json, sys\n"
        "import flowmcg\n"
        "argv = json.loads(sys.argv[1])\n"
        "status = None\n"
        "if isinstance(argv, str):\n"
        "    status = getattr(flowmcg, argv).__name__\n"
        "elif argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        status = flowmcg.cli.run(argv)\n"
        "roots = ('flowmcg', 'sympy', 'dataclasses', 'inspect')\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] in roots)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}

    def loaded(what):
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(what)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(out.stdout)

    assert loaded(None) == [None, ["flowmcg"]]
    layers = sorted(f"flowmcg.{p.stem}" for p in MODULES if p.stem not in ("__init__", "cli"))
    assert loaded("Substitution") == ["Substitution", ["flowmcg"] + layers]
    for argv, status, modules in FOOTPRINTS:
        argv = [a.format(**files) for a in argv]
        expected = ["flowmcg"] + sorted(f"flowmcg.{m}" for m in modules | {"cli", "errors"})
        assert loaded(argv) == [status, expected], argv


# flowmcg modules each front module may import when it is loaded; the
# layers it runs are imported where they are used
MODULE_LEVEL_IMPORTS = {
    "__init__.py": set(),
    "automorphisms.py": {"errors", "substitution", "words"},
    "cli.py": {"errors"},
    "mcg.py": {"errors", "intpoly"},
    "substitution.py": {"errors", "words"},
}


def module_level_imports(source: str) -> set[str]:
    """flowmcg modules a source imports when it runs: function bodies and
    `if TYPE_CHECKING:` blocks do not count."""
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "flowmcg"):
                module = (node.module or "") if node.level else node.module.partition(".")[2]
                found.update([module.split(".")[0]] if module else [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("flowmcg."))
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def test_the_check_finds_a_module_level_import():
    source = (
        "from typing import TYPE_CHECKING\nfrom .errors import E\nfrom . import words\n"
        "import flowmcg.pf\nfrom flowmcg import intlat, intpoly\nif TYPE_CHECKING:\n    from .flows import F\n"
        "class C:\n    from .mcg import M\ndef f():\n    from .coinvariants import g\n"
    )
    assert module_level_imports(source) == {"errors", "words", "pf", "intlat", "intpoly", "mcg"}


@pytest.mark.parametrize("name", sorted(MODULE_LEVEL_IMPORTS))
def test_front_modules_import_only_what_every_command_needs(name):
    assert module_level_imports((SRC / name).read_text()) <= MODULE_LEVEL_IMPORTS[name]


def test_every_export_is_the_object_of_its_home_module():
    assert len(set(flowmcg.__all__)) == len(flowmcg.__all__)
    for module, names in flowmcg._EXPORTS.items():
        home = importlib.import_module(f"flowmcg.{module}")
        for name in names:
            value = getattr(flowmcg, name)
            assert value is vars(home)[name]
            assert getattr(value, "__module__", home.__name__) == home.__name__


def test_submodules_resolve_as_attributes():
    for name in ("errors", "words"):
        assert flowmcg.__getattr__(name) is sys.modules[f"flowmcg.{name}"]
    assert flowmcg.errors.ValidationError is flowmcg.ValidationError


def test_dir_and_star_import_cover_the_exports():
    assert set(flowmcg.__all__) <= set(dir(flowmcg))
    namespace: dict = {}
    exec("from flowmcg import *", namespace)
    assert {name: namespace[name] for name in flowmcg.__all__} == {
        name: getattr(flowmcg, name) for name in flowmcg.__all__
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flowmcg.no_such_name
    assert not hasattr(flowmcg, "no_such_name")
