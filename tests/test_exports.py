import importlib
import pkgutil

import pytest

import azarin

MODULES = ["azarin"] + ["azarin." + info.name
                        for info in pkgutil.iter_modules(azarin.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    # a name left in __all__ after its definition is gone breaks
    # ``from <module> import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [key for key in exported if not hasattr(module, key)] == []
