"""Sparse adjacency construction and truncated spectral decompositions.

Adjacency matrices are scipy CSR with integer weights: entry (i, j) counts
the hyperedges containing both endpoints, so the i-th row sum equals
``sum_m (m-1) * #(order-m edges through i)``.  The incidence matrix H
holds one 0/1 row per hyperedge, all orders stacked, so ``H @ X`` counts
the endpoints of every edge inside each column set of a 0/1 matrix X.
Subspaces are extracted by randomized block power iteration with
orthonormalization at every step; degenerate spectra are compared
through projectors, never through individual vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sampler import Hypergraph, subset_mask

__all__ = [
    "ConvergenceError",
    "SubspaceBasis",
    "incidence",
    "adjacency",
    "bipartite_embed",
    "row_sums",
    "regularize",
    "mask_matrix",
    "top_subspace",
    "spectral_norm",
]

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 500
OVERSAMPLE = 4


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal n x k basis with its singular values, descending."""

    vectors: np.ndarray
    singular_values: np.ndarray

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


def incidence(h: Hypergraph) -> tuple[sp.csr_array, np.ndarray]:
    """Edge x vertex 0/1 incidence matrix and the order of each row.

    Rows run through the orders in ascending order and, within one order,
    follow ``h.edges[m]``; column indices within a row are ascending.
    """
    orders = sorted(m for m, arr in h.edges.items() if len(arr))
    sizes = np.repeat(np.array(orders, dtype=np.int64),
                      [len(h.edges[m]) for m in orders])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = (np.concatenate([h.edges[m].ravel() for m in orders]) if orders
               else np.empty(0, dtype=np.int64))
    data = np.ones(len(indices), dtype=np.int64)
    return sp.csr_array((data, indices, indptr), shape=(len(sizes), h.n)), sizes


def adjacency(h: Hypergraph) -> sp.csr_array:
    """Symmetric integer adjacency: (i, j) counts hyperedges containing both."""
    n = h.n
    rows, cols = [], []
    for m, arr in h.edges.items():
        if len(arr) == 0:
            continue
        for p, q in itertools.combinations(range(m), 2):
            rows.append(arr[:, p])
            cols.append(arr[:, q])
    if not rows:
        return sp.csr_array((n, n), dtype=np.int64)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = np.ones(len(r), dtype=np.int64)
    upper = sp.coo_array((data, (r, c)), shape=(n, n)).tocsr()
    return (upper + upper.T).tocsr()


def _selector(mask: np.ndarray) -> sp.dia_array:
    n = len(mask)
    return sp.dia_array((mask.astype(np.int64)[None, :], [0]), shape=(n, n))


def bipartite_embed(a, rows, cols) -> sp.csr_array:
    """Adjacency ``a`` restricted to the rows x cols rectangle, zero elsewhere.

    The two vertex sets must be disjoint; the result is n x n and not
    symmetric.
    """
    n = a.shape[0]
    in_rows, in_cols = subset_mask(n, rows), subset_mask(n, cols)
    if (in_rows & in_cols).any():
        raise ValueError("row and column vertex sets must be disjoint")
    return (_selector(in_rows) @ a @ _selector(in_cols)).tocsr()


def row_sums(a) -> np.ndarray:
    """Vector of row sums of a sparse or dense matrix."""
    return np.asarray(a.sum(axis=1)).ravel()


def mask_matrix(a, kept: np.ndarray):
    """Zero out the rows and columns not indexed by ``kept``."""
    d = _selector(subset_mask(a.shape[0], kept))
    return (d @ a @ d).tocsr()


def regularize(a, threshold: float) -> tuple[sp.csr_array, np.ndarray]:
    """Drop heavy rows: keep indices with row sum <= threshold, zero the rest.

    Returns the masked matrix and the kept index set.  Every row sum of
    the output is <= threshold by construction.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    kept = np.flatnonzero(row_sums(a) <= threshold)
    return mask_matrix(a, kept), kept


def _matmat(a, x: np.ndarray) -> np.ndarray:
    if sp.issparse(a) or isinstance(a, np.ndarray):
        return a @ x
    return a.matmat(x)


def _rmatmat(a, x: np.ndarray) -> np.ndarray:
    if sp.issparse(a) or isinstance(a, np.ndarray):
        return a.T @ x
    return a.rmatmat(x)


def _nnz(a) -> int:
    if sp.issparse(a):
        return a.nnz
    if isinstance(a, np.ndarray):
        return int(np.count_nonzero(a))
    return -1  # operator form: assume nonzero


def top_subspace(
    a,
    k: int,
    mode: str = "left-singular",
    tol: float = SOLVER_TOL,
    max_iter: int = SOLVER_MAX_ITER,
    seed: int = 0,
) -> SubspaceBasis:
    """Orthonormal basis of the dominant k-dimensional subspace.

    ``mode`` is ``"left-singular"`` (left singular vectors of a) or
    ``"symmetric-eigen"`` (eigenvectors of a symmetric matrix ordered by
    absolute eigenvalue; singular_values holds those magnitudes).
    Randomized block power iteration with k+4 oversampling; a converged
    triple satisfies ``|a v - s u| <= tol * s_1``.  Raises
    ConvergenceError when max_iter is exhausted.
    """
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    if mode not in ("left-singular", "symmetric-eigen"):
        raise ValueError(f"unknown mode {mode!r}")
    if _nnz(a) == 0:
        return SubspaceBasis(np.eye(n, k), np.zeros(k))

    rng = np.random.default_rng(seed)
    p = min(n, k + OVERSAMPLE)
    q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    residual = np.inf
    for _ in range(max_iter):
        if mode == "left-singular":
            q = np.linalg.qr(_matmat(a, _rmatmat(a, q)))[0]
            b = _rmatmat(a, q).T  # p x n, equals q^T a
            u_small, svals, _ = np.linalg.svd(b, full_matrices=False)
            u = q @ u_small[:, :k]
            # right vectors of the leading triples, for the residual test
            av = b.T @ u_small[:, :k]  # n x k, equals a^T u = v * s
            svals = svals[:k]
            resid = _matmat(a, np.where(svals > 0, av / np.where(svals > 0, svals, 1.0), av))
            residual = np.linalg.norm(resid - u * svals, axis=0).max()
        else:
            aq = _matmat(a, q)
            q_next = np.linalg.qr(aq)[0]
            t = q.T @ aq
            t = 0.5 * (t + t.T)
            theta, y = np.linalg.eigh(t)
            order = np.argsort(-np.abs(theta))[:k]
            u = q @ y[:, order]
            svals = np.abs(theta[order])
            residual = np.linalg.norm(_matmat(a, u) - u * theta[order], axis=0).max()
            q = q_next
        scale = svals[0] if svals[0] > 0 else 1.0
        if residual <= tol * scale:
            return SubspaceBasis(u, svals)
    raise ConvergenceError(f"subspace iteration did not converge in {max_iter} steps", residual)


def spectral_norm(a, tol: float = 1e-8, max_iter: int = 2000, seed: int = 0) -> float:
    """Largest singular value by block power iteration on a^T a.

    Accepts sparse matrices, dense arrays, or linear operators exposing
    matmat/rmatmat.  Stops when the estimate moves by less than
    ``tol * estimate`` between iterations.
    """
    n = a.shape[0]
    if _nnz(a) == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    p = min(n, OVERSAMPLE)
    q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    last = 0.0
    for _ in range(max_iter):
        z = _rmatmat(a, q)
        w = _matmat(a, z)
        est = float(np.linalg.norm(q.T @ w, 2)) ** 0.5
        q = np.linalg.qr(w)[0]
        if est > 0 and abs(est - last) <= tol * est:
            return est
        last = est
    raise ConvergenceError(f"norm iteration did not converge in {max_iter} steps",
                           abs(est - last))
