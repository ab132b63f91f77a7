"""Every exported name resolves, so ``from softlogic... import *`` works."""

import importlib
import pkgutil

import pytest

import softlogic

MODULES = ["softlogic"] + [f"softlogic.{m.name}" for m in pkgutil.iter_modules(softlogic.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
