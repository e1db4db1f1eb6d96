"""Community detection on sparse non-uniform hypergraph block models.

Sampling, regularized spectral partitioning with correction and merging
refinements, accuracy metrics, and spectral-norm concentration
experiments, plus a CLI (``hyperblock``) wrapping all of it.

Importing the package before numpy makes OpenBLAS start one thread: the
pipeline is sparse, and its only BLAS calls are level-1/2 calls on
n-vectors, where extra OpenBLAS threads spin without shortening a run.
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, and pool
workers inherit the loaded library (fork) or the environment (spawn,
forkserver).  A ``*_NUM_THREADS`` variable the user set, or a numpy that
is already loaded, leaves the environment as it is.
"""

import os
import sys

if "numpy" not in sys.modules and not any(k.endswith("_NUM_THREADS") for k in os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .model import (
    ModelParams,
    OrderSubset,
    ResourceLimitError,
    blue_density_thresholds,
    degree_scale,
    expected_adjacency,
    expected_eigenvalues,
    expected_rates,
    merging_threshold,
    preprocess_select,
    snr_subset,
)
from .sampler import (
    BLUE,
    RED,
    UNASSIGNED,
    Hypergraph,
    SplitAssignment,
    color_edges,
    restrict,
    sample_hsbm,
    split_vertices,
)
from .spectral import ConvergenceError, adjacency, regularize, spectral_norm, top_subspace
from .pipeline import PartitionFailure, PipelineConfig, partition
from .metrics import AccuracyReport, accuracy_report, gamma_correctness, matched_accuracy
from .concentration import ConcentrationRecord, concentration_trial

__version__ = "0.1.0"
