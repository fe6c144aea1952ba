"""The package's public names."""
import importlib
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
