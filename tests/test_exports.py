import importlib
import pkgutil

import pytest

import rigidlab

_MODULES = sorted(f"rigidlab.{info.name}"
                  for info in pkgutil.iter_modules(rigidlab.__path__)
                  if info.name != "__main__")


def test_every_module_is_listed():
    assert "rigidlab.flex" in _MODULES and "rigidlab.cli" in _MODULES


@pytest.mark.parametrize("name", ["rigidlab", *_MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
