"""Accuracy accounting for block estimates against planted labels.

Both scores maximize over relabelings of the estimate: matched accuracy
maximizes the total agreement (an assignment problem), while the
min-block overlap score maximizes the worst per-block overlap ratio (a
bottleneck assignment, solved by thresholding plus bipartite matching).
Unassigned estimates count as misclassified under every relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching, min_weight_full_bipartite_matching

from .sampler import UNASSIGNED

__all__ = [
    "AccuracyReport",
    "contingency",
    "gamma_correctness",
    "matched_accuracy",
    "accuracy_report",
]


@dataclass(frozen=True)
class AccuracyReport:
    """Per-trial accuracy summary: min-block overlap, matched accuracy, counts."""

    gamma: float
    matched_accuracy: float
    per_block_overlap: np.ndarray
    misclassified: int


def _check_pair(truth: np.ndarray, estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth, dtype=np.int64)
    estimate = np.asarray(estimate, dtype=np.int64)
    if truth.shape != estimate.shape or truth.ndim != 1:
        raise ValueError("truth and estimate must be equal-length 1-d arrays")
    if (truth < 0).any():
        raise ValueError("truth labels must be fully assigned")
    if (estimate < UNASSIGNED).any():
        raise ValueError(f"estimate labels must be >= {UNASSIGNED}")
    return truth, estimate


def contingency(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Counts C[i, j] = #vertices with true block i and estimated block j.

    Rows cover the true blocks; columns are padded up to the row count so
    an injective relabeling always exists.  Unassigned estimates appear in
    no column.
    """
    truth, estimate = _check_pair(truth, estimate)
    k_true = int(truth.max()) + 1
    k_est = max(k_true, int(estimate.max()) + 1)
    counts = np.zeros((k_true, k_est), dtype=np.int64)
    assigned = estimate != UNASSIGNED
    np.add.at(counts, (truth[assigned], estimate[assigned]), 1)
    return counts


def _feasible(ratio: np.ndarray, t: float) -> bool:
    graph = sp.csr_array((ratio >= t).astype(np.int8))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def _gamma(counts: np.ndarray, sizes: np.ndarray) -> float:
    """Bottleneck assignment on the contingency table, given the true block sizes.

    Binary search on the candidate ratio values with a perfect-matching
    feasibility test.  A block with no vertices meets its overlap condition
    for every gamma, so its ratio row is 1 and never binds.
    """
    ratio = counts / np.maximum(sizes, 1)[:, None]
    ratio[sizes == 0] = 1.0
    values = np.unique(ratio)
    lo, hi = 0, len(values) - 1
    # invariant: values[lo] is feasible (0 always is), values above hi are not
    if _feasible(ratio, values[hi]):
        return float(values[hi])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(ratio, values[mid]):
            lo = mid
        else:
            hi = mid
    return float(values[lo])


def gamma_correctness(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Best-over-relabelings minimum per-block overlap ratio.

    max over bijections pi of min_i |V_i intersect Vhat_pi(i)| / |V_i|,
    solved exactly as a bottleneck assignment.
    """
    truth, estimate = _check_pair(truth, estimate)
    counts = contingency(truth, estimate)
    return _gamma(counts, np.bincount(truth))


def _matched(counts: np.ndarray) -> int:
    """Most vertices any relabeling gets right: an assignment on the contingency table.

    A full matching of least total cost C.max() + 1 - C is one of most
    total C; the cost is positive, so the sparse solver sees every cell.
    """
    cost = sp.csr_array(counts.max() + 1 - counts)
    rows, cols = min_weight_full_bipartite_matching(cost)
    return int(counts[rows, cols].sum())


def matched_accuracy(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Best-over-relabelings fraction of correctly labeled vertices."""
    truth, estimate = _check_pair(truth, estimate)
    return _matched(contingency(truth, estimate)) / len(truth)


def accuracy_report(truth: np.ndarray, estimate: np.ndarray) -> AccuracyReport:
    """Bundle both scores with the contingency table and misclassified count."""
    truth, estimate = _check_pair(truth, estimate)
    counts = contingency(truth, estimate)
    matched = _matched(counts)
    return AccuracyReport(
        gamma=_gamma(counts, np.bincount(truth)),
        matched_accuracy=matched / len(truth),
        per_block_overlap=counts,
        misclassified=len(truth) - matched,
    )
