"""Every name a module lists in `__all__` resolves, so the public API holds
no stale exports."""

import importlib
import pkgutil

import pytest

import conlab

MODULES = [conlab] + [
    importlib.import_module(f"conlab.{info.name}")
    for info in pkgutil.iter_modules(conlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    names = getattr(module, "__all__", ())
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
