"""The package's public names, and the references' independence from it."""
import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import stratperm

MODULES = sorted(m.name for m in pkgutil.iter_modules(stratperm.__path__))


def test_the_package_has_modules():
    assert "hypothesis_tests" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"stratperm.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


REFERENCE = pathlib.Path(__file__).parent / "reference"


@pytest.mark.parametrize("script", ["orbits.py", "make_power_reference.py", "fwl.py"])
def test_references_import_nothing_from_the_package(script):
    # The references are independent oracles: a bug in the package must not
    # reach them through an import.
    imported = []
    for node in ast.walk(ast.parse((REFERENCE / script).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert [name for name in imported if name.split(".")[0] == "stratperm"] == []


TESTS = pathlib.Path(__file__).parent
PACKAGE = pathlib.Path(stratperm.__file__).parent


def _unused_imports(source: str) -> list:
    """The names a module binds by a module-level import and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and name != "annotations"]


def test_the_import_check_finds_an_unused_name():
    assert _unused_imports("import os\nfrom math import pi, tau as t\nprint(os.sep, t)") == ["pi"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced(sources: dict) -> list:
    """The module-level functions and classes of ``sources`` ({module:
    source}) that no module reads by name and their own module's ``__all__``
    does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for module, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        found += [f"{module}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in read | exported]
    return found


def test_the_reference_check_finds_an_unreferenced_name():
    sources = {"a": "__all__ = ['f']\ndef f(): return g()\ndef g(): pass\ndef h(): pass",
               "b": "import a\nclass C: pass\nclass D: pass\na.C = C"}
    assert _unreferenced(sources) == ["a.h", "b.D"]


def test_package_defines_no_unreferenced_name():
    assert _unreferenced({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_the_benchmark_tracer_wraps_and_restores_the_package(monkeypatch):
    # The benchmark's tracer replaces the package's public functions at every
    # name bound to them; a name it reads that the package no longer has
    # would break every traced benchmark run, and the benchmark's own tests
    # lie outside this suite.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    hyp = importlib.import_module("stratperm.hypothesis_tests")
    plans = importlib.import_module("stratperm.randomization")
    namespaces = [vars(importlib.import_module(f"stratperm.{m}"))
                  for m in tracing.LAYER_MODULES] + [hyp.METHODS]
    before = [dict(namespace) for namespace in namespaces]
    data = hyp.TrialData.from_arrays([0] * 4 + [1] * 4, [1, 0, 1, 0, 0, 1, 1, 0],
                                     [0.3, 1.2, -0.4, 0.8, 1.1, -0.2, 0.5, 0.9],
                                     [0.9, 1.0, -0.1, 0.2, 1.6, 0.4, 0.3, 0.6])
    plan = plans.PermutationPlan(layout=data.layout, draws=50, master_seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = len(tracer._patches)
        exact = hyp.METHODS["freedman_lane"](
            data, plans.PermutationPlan(layout=data.layout, mode="exact"))
        sampled = hyp.run_trial([data], plan, ["lm_permutation", "exchangeability"])[0]
    finally:
        tracer.uninstall()
    assert patched
    assert exact.p_value.draws == 576 and sampled["lm_permutation"].p_value.draws == 50
    assert {"hypothesis_tests.run_trial", "randomization.orbit_blocks"} <= {
        span.name for span in tracer.spans}
    assert [[name for name, value in old.items() if namespace.get(name) is not value]
            for namespace, old in zip(namespaces, before)] == [[] for _ in namespaces]
