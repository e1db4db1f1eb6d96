"""Every module's ``__all__`` matches the public functions and classes it defines."""

import importlib
import inspect
import pkgutil

import pytest

import hyperblock

# the command-line entry point is run, not imported from
MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(hyperblock.__path__)
                 if name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_public_definitions(name):
    mod = importlib.import_module(f"hyperblock.{name}")
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    assert [x for x in exported if not hasattr(mod, x)] == []
    defined = {x for x, obj in vars(mod).items()
               if not x.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(defined - set(exported)) == []
