"""Community detection on sparse non-uniform hypergraph block models.

Sampling, regularized spectral partitioning with correction and merging
refinements, accuracy metrics, and spectral-norm concentration
experiments, plus a CLI (``hyperblock``) wrapping all of it.
"""

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
from .pipeline import PartitionFailure, PipelineConfig, partition, partition_2, partition_k
from .metrics import AccuracyReport, accuracy_report, gamma_correctness, matched_accuracy
from .concentration import ConcentrationRecord, concentration_trial

__version__ = "0.1.0"
