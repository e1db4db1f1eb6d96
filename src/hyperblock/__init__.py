"""Community detection on sparse non-uniform hypergraph block models.

Sampling, regularized spectral partitioning with correction and merging
refinements, accuracy metrics, and spectral-norm concentration
experiments, plus a CLI (``hyperblock``) wrapping all of it.

The names below are re-exported lazily (PEP 562): importing the package
loads no submodule, and each submodule loads on the first use of one of
its names, so numpy-only work (sampling, model algebra, file I/O) never
imports scipy.

Importing the package before numpy makes OpenBLAS start one thread: the
pipeline is sparse, and its only BLAS calls are level-1/2 calls on
n-vectors, where extra OpenBLAS threads spin without shortening a run.
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, and pool
workers inherit the loaded library (fork) or the environment (spawn,
forkserver).  A ``*_NUM_THREADS`` variable the user set, or a numpy that
is already loaded, leaves the environment as it is.
"""

import importlib
import os
import sys

if "numpy" not in sys.modules and not any(k.endswith("_NUM_THREADS") for k in os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "model": (
        "ConvergenceError",
        "ModelParams",
        "PartitionFailure",
        "ResourceLimitError",
        "blue_density_thresholds",
        "degree_scale",
        "expected_adjacency",
        "expected_eigenvalues",
        "expected_rates",
        "merging_threshold",
        "preprocess_select",
        "snr_subset",
    ),
    "sampler": (
        "BLUE",
        "RED",
        "UNASSIGNED",
        "Hypergraph",
        "color_edges",
        "restrict",
        "sample_hsbm",
        "split_vertices",
    ),
    "spectral": ("adjacency", "regularize", "spectral_norm", "top_subspace"),
    "pipeline": ("PipelineConfig", "partition"),
    "metrics": ("AccuracyReport", "accuracy_report", "gamma_correctness", "matched_accuracy"),
    "concentration": ("ConcentrationRecord", "concentration_trial"),
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
