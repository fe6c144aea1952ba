"""The package's public names, and the references' independence from it."""
import ast
import importlib
import pathlib
import pkgutil

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


@pytest.mark.parametrize("script", ["orbits.py", "make_power_reference.py"])
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
