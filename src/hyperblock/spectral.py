"""Sparse adjacency construction and truncated spectral decompositions.

Adjacency matrices are scipy CSR with integer weights: entry (i, j) counts
the hyperedges containing both endpoints, so the i-th row sum equals
``sum_m (m-1) * #(order-m edges through i)``.  The incidence matrix H
holds one 0/1 row per hyperedge, all orders stacked, so ``H @ X`` counts
the endpoints of every edge inside each column set of a 0/1 matrix X.
Subspaces and norms come from ARPACK's implicitly restarted Lanczos method
(Lehoucq, Sorensen & Yang 1998) through ``scipy.sparse.linalg.eigsh``,
started from a seeded vector so that results are deterministic;
degenerate spectra are compared through projectors, never through
individual vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, aslinearoperator, eigsh

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
    """Restart budget exhausted before every wanted eigenpair converged."""


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


def _nnz(a) -> int:
    if sp.issparse(a):
        return a.nnz
    if isinstance(a, np.ndarray):
        return int(np.count_nonzero(a))
    return -1  # operator form: assume nonzero


def _eigsh(op, k: int, tol: float, max_iter: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of the symmetric operator op, by descending |eigenvalue|."""
    n = op.shape[0]
    if k == n:  # ARPACK needs k < n
        theta, u = np.linalg.eigh(op.matmat(np.eye(n)))
    else:
        rng = np.random.default_rng(seed)
        try:
            # ARPACK's default Krylov dimension (at least 20) spans a small
            # matrix whole, which then converges in one pass whatever
            # max_iter says; a smaller one keeps the restart budget binding
            theta, u = eigsh(op, k, which="LM", v0=rng.standard_normal(n),
                             ncv=min(n, 2 * k + 1 + OVERSAMPLE), tol=tol,
                             maxiter=max_iter, rng=rng)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(str(exc)) from exc
    order = np.argsort(-np.abs(theta), kind="stable")[:k]
    return theta[order], u[:, order]


def _left_singular(op, k: int, tol: float, max_iter: int, seed: int) -> SubspaceBasis:
    """Top k left singular vectors and singular values of the operator op."""
    # eigenvalues of op op^T are the squared singular values
    theta, u = _eigsh(op @ op.H, k, tol, max_iter, seed)
    return SubspaceBasis(u, np.sqrt(np.maximum(theta, 0.0)))


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
    ARPACK's implicitly restarted Lanczos method (scipy's ``eigsh``) runs
    on a, or on a a^T in the left-singular mode, from a start vector drawn
    from ``seed``.  An eigenpair (theta, u) of that operator is converged
    when ``|op u - theta u| <= tol * |theta|``.  ``max_iter`` is the
    budget of implicit restarts; ConvergenceError is raised when it runs
    out.  k == n, which ARPACK cannot serve, is solved densely.
    """
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    if mode not in ("left-singular", "symmetric-eigen"):
        raise ValueError(f"unknown mode {mode!r}")
    if _nnz(a) == 0:
        return SubspaceBasis(np.eye(n, k), np.zeros(k))
    op = aslinearoperator(a)
    if mode == "symmetric-eigen":
        theta, u = _eigsh(op, k, tol, max_iter, seed)
        return SubspaceBasis(u, np.abs(theta))
    return _left_singular(op, k, tol, max_iter, seed)


def spectral_norm(a, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER,
                  seed: int = 0) -> float:
    """Spectral norm: the largest singular value of a.

    Accepts sparse matrices, dense arrays, or linear operators of any
    shape.  ARPACK runs on a a^T as in the left-singular mode of
    ``top_subspace``, with the same ``tol``, ``max_iter`` and
    ConvergenceError.
    """
    if _nnz(a) == 0:
        return 0.0
    return float(_left_singular(aslinearoperator(a), 1, tol, max_iter, seed).singular_values[0])
