"""The package surface that other code relies on still resolves.

The benchmark under perfbench/ wraps ncrep functions by (module, qualified
name) and calls others by attribute; its own tests are not part of the main
suite, so a deletion in the package that blinds the tracer or breaks a
workload would go unseen here without these checks.  They read perfbench's
sources and change nothing there.  The layer benchmark, benchmarks/layers.py,
is held to the same check.
"""

import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LAYERS = ROOT / "benchmarks" / "layers.py"
INIT = ROOT / "src" / "ncrep" / "__init__.py"


def _resolve(module, qualname):
    owner = importlib.import_module(f"ncrep.{module}" if module else "ncrep")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def _imported_modules(statements, refs):
    """The ncrep modules that the statements (and what they nest) import, by local name; every
    other ncrep name they import is added to refs as (module, name)."""
    modules = {}
    for node in (node for statement in statements for node in ast.walk(statement)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncrep":
            package = node.module[len("ncrep."):] if "." in node.module else ""
            for alias in node.names:
                if package == "" and (INIT.parent / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = alias.name
                else:
                    refs.add((package, alias.name))
    return modules


def _bench_references(paths):
    """(module, name) for every ncrep name the scripts at paths import or read
    as an attribute of an imported ncrep module.  A module imported inside a
    top-level function is read in that function only, where another name may
    mean something else (layers.py has a dict of states)."""
    refs = set()
    scoped = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in paths:
        body = ast.parse(path.read_text()).body
        top = _imported_modules([s for s in body if not isinstance(s, scoped)], refs)
        for statement in body:
            modules = {**top, **_imported_modules([statement], refs)} if isinstance(statement, scoped) else top
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    refs.add((modules[node.value.id], node.attr))
    return sorted(refs)


def test_traced_targets_resolve():
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    targets = [(module, qualname) for module, qualname, *_ in tracing["TARGETS"] + tracing["MEMORY_TARGETS"]]
    assert len(targets) > 20
    for module, qualname in targets:
        assert callable(_resolve(module, qualname)), f"{module}.{qualname}"


def _unresolved(refs):
    missing = []
    for module, name in refs:
        try:
            _resolve(module, name)
        except AttributeError:
            missing.append(f"{module}.{name}")
    return missing


def test_benchmark_references_resolve():
    refs = _bench_references(sorted(PERFBENCH.glob("*.py")))
    assert ("cli", "run_suite") in refs
    assert not _unresolved(refs)


def test_layer_benchmark_references_resolve():
    refs = _bench_references([LAYERS])
    assert {("linalg", "unit_frame_gaps"), ("linalg", "bimodule_gaps"), ("representing", "DCharacter")} <= set(refs)
    assert not _unresolved(refs)


def test_package_exports_resolve():
    tree = ast.parse(INIT.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    names = [(node.module, alias.name) for node in imports for alias in node.names]
    assert len(names) > 30
    package = importlib.import_module("ncrep")
    for module, name in names:
        assert getattr(package, name) is _resolve(module, name)


def test_the_unit_declaration_is_read_behind_linalg_and_algebras():
    # OperatorSubspace.declared, and the columns linalg derives from it, decide which rows are read
    # by index; every other module asks algebras (_unit_frame, _coordinate_mask) or linalg
    # (_identity_rows), so the decision stays in those two, and only algebras._unit_space hands a
    # space its declaration
    readers, writers = set(), []
    for path in sorted(INIT.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers |= {path.name for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in ("declared", "_columns")}
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for call in (node for node in ast.walk(func) if isinstance(node, ast.Call)):
                if getattr(call.func, "id", None) == "OperatorSubspace" and (len(call.args) > 2 or call.keywords):
                    writers.append(f"{path.name}:{func.name}")
    assert readers == {"linalg.py", "algebras.py"}
    assert writers == ["algebras.py:_unit_space"]
