"""The package surface that other code relies on still resolves.

The benchmark under perfbench/ wraps ncrep functions by (module, qualified
name) and calls others by attribute; its own tests are not part of the main
suite, so a deletion in the package that blinds the tracer or breaks a
workload would go unseen here without these checks.  They read perfbench's
sources and change nothing there.
"""

import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
INIT = ROOT / "src" / "ncrep" / "__init__.py"


def _resolve(module, qualname):
    owner = importlib.import_module(f"ncrep.{module}" if module else "ncrep")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def _bench_references():
    """(module, name) for every ncrep name perfbench's scripts import or read
    as an attribute of an imported ncrep module."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncrep":
                package = node.module[len("ncrep."):] if "." in node.module else ""
                for alias in node.names:
                    if package == "" and (INIT.parent / f"{alias.name}.py").exists():
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((package, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    refs.add((modules[node.value.id], node.attr))
    return sorted(refs)


def test_traced_targets_resolve():
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    targets = [(module, qualname) for module, qualname, *_ in tracing["TARGETS"] + tracing["MEMORY_TARGETS"]]
    assert len(targets) > 20
    for module, qualname in targets:
        assert callable(_resolve(module, qualname)), f"{module}.{qualname}"


def test_benchmark_references_resolve():
    refs = _bench_references()
    assert ("cli", "run_suite") in refs
    missing = []
    for module, name in refs:
        try:
            _resolve(module, name)
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert not missing


def test_package_exports_resolve():
    tree = ast.parse(INIT.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    names = [(node.module, alias.name) for node in imports for alias in node.names]
    assert len(names) > 30
    package = importlib.import_module("ncrep")
    for module, name in names:
        assert getattr(package, name) is _resolve(module, name)
