"""The package's lazy re-exports, every module's ``__all__``, and its declared floors."""

import ast
import importlib
import importlib.metadata
import inspect
import pkgutil
import re
import tomllib
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


def test_masked_copies_called_only_in_spectral():
    # every matrix a solve reads is counted from the edges; mask_matrix and
    # bipartite_embed stay as public names and test oracles, free to move
    named = []
    for path in sorted(Path(hyperblock.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            named += [f"{path.name}: {x}" for x in names if x in ("mask_matrix", "bipartite_embed")]
    assert named == []


def test_one_pipeline_function_ands_packed_rows():
    # the stages hold their sets in one packed form, and one kernel ANDs an
    # edge's endpoint rows of it for the density count and the neighbor votes
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def ands_packed_rows(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd):
                operands = (node.target, node.value)
            else:
                continue
            # packed[ids] gathers rows; packed[:, j], a column, is no row
            if any(isinstance(x, ast.Subscript) and isinstance(x.value, ast.Name)
                   and x.value.id == "packed" and not isinstance(x.slice, ast.Tuple)
                   for x in operands):
                return True
        return False

    def called(fn):
        return {node.func.id for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    kernels = [name for name, fn in functions.items() if ands_packed_rows(fn)]
    assert len(kernels) == 1, kernels
    for caller in ("blue_weighted_count", "_neighbor_scores"):
        assert kernels[0] in called(functions[caller]), caller


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


def test_benchmark_trace_hook_names_resolve(monkeypatch):
    # the benchmark's start-up hook wraps these functions by name; a raise
    # there does not stop the CLI (site prints "Error in sitecustomize" and
    # the run goes on untraced), so a renamed function would zero every
    # per-layer metric without failing anything else
    hook = Path(__file__).resolve().parent.parent / "perfbench" / "tracehook" / "sitecustomize.py"
    namespace = {"__name__": "benchmark_trace_hook"}
    monkeypatch.delenv("HYPERBLOCK_BENCH_TRACE", raising=False)
    exec(compile(hook.read_text(encoding="utf-8"), str(hook), "exec"), namespace)
    missing = [f"{mod}.{fn}" for mod, fn in namespace["SPANS"]
               if not callable(getattr(importlib.import_module(f"hyperblock.{mod}"), fn, None))]
    assert namespace["SPANS"] and missing == []


def _floor(spec: str) -> tuple[int, ...]:
    """The version after ``>=`` in a requirement specifier, as a tuple of ints."""
    return tuple(map(int, re.search(r">=\s*([\d.]+)", spec).group(1).split(".")))


def test_declared_floors_admit_the_installed_scipy():
    # a floor below what the required scipy itself needs declares an
    # environment that cannot be installed
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    ours = {re.match(r"[\w-]+", dep).group(0): _floor(dep) for dep in project["dependencies"]}
    scipy_numpy = next(r for r in importlib.metadata.requires("scipy")
                       if re.match(r"numpy\b", r) and "extra ==" not in r)
    assert _floor(project["requires-python"]) >= _floor(
        importlib.metadata.metadata("scipy")["Requires-Python"])
    assert ours["numpy"] >= _floor(scipy_numpy)
