"""Empirical spectral-norm concentration trials.

One trial samples an instance, forms the centered adjacency A - E[A] as a
sparse-plus-low-rank operator (E[A] is block-constant: rank k plus a
diagonal correction), and records the spectral-norm ratios before and
after zeroing heavy rows, serialized as one CSV row per trial.  Heavy rows
are zeroed by masking the operator's input and output vectors, so both
norms read the one adjacency the trial builds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator

from . import model
from .model import ModelParams
from .sampler import sample_hsbm
from .spectral import adjacency, spectral_norm

__all__ = [
    "ConcentrationRecord",
    "centered_operator",
    "concentration_trial",
    "records_to_csv",
    "CSV_HEADER",
]

log = logging.getLogger("hyperblock")

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


def centered_operator(params: ModelParams, a, kept: np.ndarray | None = None) -> LinearOperator:
    """(A - E[A]) as an operator, optionally masked to the kept index set.

    E[A] is applied as (alpha - beta) P P^T + beta 1 1^T - alpha I, with P
    the n x k block indicator matrix, which matches the dense construction.
    With ``kept``, the operator is M (A - E[A]) M for the 0/1 diagonal M of
    the kept set: it masks the vectors going in and coming out, never A
    itself.  A zeroed input entry only adds exact zeros to a row's sum, so
    the kept rows equal those of the masked matrix bit for bit.
    """
    n, k = params.n, params.k
    rates = model.expected_rates(params)
    alpha, beta = rates.alpha, rates.beta
    indicators = (model.ground_truth_labels(n, k)[:, None] == np.arange(k)).astype(np.float64)
    mask = None
    if kept is not None:
        mask = np.zeros((n, 1))
        mask[kept] = 1.0

    def matmat(v):
        v = np.asarray(v, dtype=np.float64)
        w = v.reshape(n, -1) if mask is None else mask * v.reshape(n, -1)
        expected = (alpha - beta) * (indicators @ (indicators.T @ w))
        expected += beta * np.sum(w, axis=0, keepdims=True)
        expected -= alpha * w
        out = a @ w - expected
        if mask is not None:
            out = mask * out
        return out.reshape(v.shape)

    return LinearOperator((n, n), matvec=matmat, rmatvec=matmat,
                          matmat=matmat, rmatmat=matmat, dtype=np.float64)


def concentration_trial(
    params: ModelParams,
    seed: int,
    tau: float,
) -> ConcentrationRecord:
    """Sample one instance and measure |A - E A| / sqrt(d) raw and regularized.

    The kept set is {i : degree(i) <= tau * d} with d = sum (m-1) a_m over
    all orders of the model; a degree is a row sum of A.  When it holds
    every vertex, the regularized operator does the raw one's arithmetic,
    so its norm is the raw norm and is not solved again.  The sampled
    edges are dropped once A is formed.  A negative or NaN ``tau`` is
    rejected, as in the configuration.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be a nonnegative number, got {tau}")
    h, _ = sample_hsbm(params, seed)
    d = model.degree_scale(params, tuple(params.orders))
    kept = np.flatnonzero(h.degrees() <= tau * d)
    a = adjacency(h)
    del h
    if d == 0.0:
        return ConcentrationRecord(params.n, params.k, d, tau, seed, 0.0, 0.0,
                                   1.0, 0)
    raw = spectral_norm(centered_operator(params, a), seed=seed)
    trimmed = len(kept) < params.n
    reg = spectral_norm(centered_operator(params, a, kept), seed=seed) if trimmed else raw
    log.debug("concentration trial: n=%d seed=%d kept=%d regularized norm %s", params.n,
              seed, len(kept), "solved" if trimmed else "reused from raw")
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
    """The CSV text of the records: header, then one row per record."""
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
