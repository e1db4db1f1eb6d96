"""The package's lazy re-exports, and every module's ``__all__``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hyperblock
from hyperblock import model, pipeline, spectral

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


def test_no_private_scipy_imports():
    private = []
    for path in sorted(Path(hyperblock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] == "scipy"
                        and any(part.startswith("_") for part in name.split(".")[1:])]
    assert private == []


class TestPackageExports:
    def test_all_has_no_duplicates_and_dir_lists_it(self):
        exported = hyperblock.__all__
        assert len(exported) == len(set(exported))
        assert set(exported) <= set(dir(hyperblock))

    def test_each_name_is_its_submodule_attribute(self):
        for name in hyperblock.__all__:
            mod = importlib.import_module(f"hyperblock.{hyperblock._SOURCE[name]}")
            assert getattr(hyperblock, name) is getattr(mod, name), name

    def test_star_and_from_imports(self):
        namespace = {}
        exec("from hyperblock import *", namespace)
        assert set(hyperblock.__all__) <= set(namespace)
        from hyperblock import partition
        assert partition is pipeline.partition

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            hyperblock.nope
        assert not hasattr(hyperblock, "nope")

    def test_exceptions_are_one_class_wherever_imported(self):
        assert pipeline.PartitionFailure is model.PartitionFailure is hyperblock.PartitionFailure
        assert spectral.ConvergenceError is model.ConvergenceError is hyperblock.ConvergenceError
