"""Empirical spectral-norm concentration trials.

One trial samples an instance, forms the centered adjacency A - E[A] as a
sparse-plus-low-rank operator (E[A] is block-constant: rank k plus a
diagonal correction), and records the spectral-norm ratios before and
after zeroing heavy rows, serialized as one CSV row per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from . import model
from .model import ModelParams, ResourceLimitError
from .sampler import sample_hsbm
from .spectral import adjacency, row_sums, spectral_norm

__all__ = [
    "ConcentrationRecord",
    "expected_adjacency_operator",
    "centered_operator",
    "concentration_trial",
    "CSV_HEADER",
]

DENSE_CAP = 4000
CSV_HEADER = "n,k,d,tau,seed,raw_ratio,reg_ratio,kept_fraction,high_degree_count"


@dataclass(frozen=True)
class ConcentrationRecord:
    """One trial: norm ratios, kept fraction, and the heavy-vertex count."""

    n: int
    k: int
    d: float
    tau: float
    seed: int
    raw_ratio: float
    reg_ratio: float
    kept_fraction: float
    high_degree_count: int

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), str(self.k), repr(self.d), repr(self.tau), str(self.seed),
            repr(self.raw_ratio), repr(self.reg_ratio), repr(self.kept_fraction),
            str(self.high_degree_count),
        ])


def expected_adjacency_operator(params: ModelParams) -> LinearOperator:
    """E[A] as a rank-k plus diagonal operator matching the dense construction."""
    n, k = params.n, params.k
    rates = model.expected_rates(params)
    alpha, beta = rates.alpha, rates.beta
    labels = np.repeat(np.arange(k), model.block_sizes(n, k))
    indicators = np.zeros((n, k))
    indicators[np.arange(n), labels] = 1.0

    def matvec(v):
        v = np.asarray(v, dtype=np.float64)
        flat = v.ndim == 1
        v2 = v[:, None] if flat else v
        out = (alpha - beta) * (indicators @ (indicators.T @ v2))
        out += beta * np.sum(v2, axis=0, keepdims=True)
        out -= alpha * v2
        return out[:, 0] if flat else out

    return LinearOperator((n, n), matvec=matvec, rmatvec=matvec,
                          matmat=matvec, rmatmat=matvec, dtype=np.float64)


def centered_operator(params: ModelParams, a, kept: np.ndarray | None = None) -> LinearOperator:
    """(A - E[A]) as an operator, optionally masked to the kept index set."""
    n = params.n
    ea = expected_adjacency_operator(params)
    a_op = aslinearoperator(a)
    mask = None
    if kept is not None:
        mask = np.zeros(n)
        mask[kept] = 1.0

    def matvec(v):
        v = np.asarray(v, dtype=np.float64)
        w = v if mask is None else (mask[:, None] if v.ndim == 2 else mask) * v
        out = a_op.matmat(w if w.ndim == 2 else w[:, None]) - ea.matmat(
            w if w.ndim == 2 else w[:, None])
        if mask is not None:
            out = (mask[:, None]) * out
        return out[:, 0] if v.ndim == 1 else out

    return LinearOperator((n, n), matvec=matvec, rmatvec=matvec,
                          matmat=matvec, rmatmat=matvec, dtype=np.float64)


def concentration_trial(
    params: ModelParams,
    seed: int,
    tau: float,
    dense_cap: int = DENSE_CAP,
) -> ConcentrationRecord:
    """Sample one instance and measure |A - E A| / sqrt(d) raw and regularized.

    The kept set is {i : row(i) <= tau * d} with d = sum (m-1) a_m over all
    orders of the model.
    """
    if params.n > dense_cap:
        raise ResourceLimitError(f"n = {params.n} exceeds the trial cap {dense_cap}")
    h, _ = sample_hsbm(params, seed)
    a = adjacency(h).astype(np.float64)
    d = float(sum((m - 1) * ab[0] for m, ab in params.orders.items()))
    rows = row_sums(a)
    kept = np.flatnonzero(rows <= tau * d)
    if d == 0.0:
        return ConcentrationRecord(params.n, params.k, d, tau, seed, 0.0, 0.0,
                                   1.0, 0)
    raw = spectral_norm(centered_operator(params, a), seed=seed)
    reg = spectral_norm(centered_operator(params, a, kept), seed=seed)
    sqrt_d = d ** 0.5
    return ConcentrationRecord(
        n=params.n,
        k=params.k,
        d=d,
        tau=tau,
        seed=seed,
        raw_ratio=raw / sqrt_d,
        reg_ratio=reg / sqrt_d,
        kept_fraction=len(kept) / params.n,
        high_degree_count=params.n - len(kept),
    )


def records_to_csv(records: list[ConcentrationRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
