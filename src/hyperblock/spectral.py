"""Sparse adjacency construction and truncated spectral decompositions.

Adjacency matrices are scipy CSR with integer weights: entry (i, j) counts
the hyperedges containing both endpoints, so the i-th row sum equals
``sum_m (m-1) * #(order-m edges through i)``, the degree
``Hypergraph.degrees`` gives.  ``regularize``, the one regularization of
every pipeline, counts the regularized adjacency, or a rectangle of it,
straight from the edge arrays.  Subspaces and norms come
from ARPACK's implicitly restarted Lanczos method (Lehoucq, Sorensen &
Yang 1998) through ``scipy.sparse.linalg.eigsh``, started from a seeded
vector so that results are deterministic; degenerate spectra are compared
through projectors, never through individual vectors.  A solve casts an
integer CSR's data to float64 once, sharing its index arrays, where scipy
would cast it again in each of ARPACK's operator applications.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, aslinearoperator, eigsh

from .model import ConvergenceError
from .sampler import Hypergraph, _id_dtype, subset_mask

__all__ = [
    "ConvergenceError",
    "SubspaceBasis",
    "adjacency",
    "bipartite_embed",
    "regularize",
    "mask_matrix",
    "top_subspace",
    "spectral_norm",
]

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 500
OVERSAMPLE = 4


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal n x k basis with its singular values, descending."""

    vectors: np.ndarray
    singular_values: np.ndarray


def _index_dtype(n: int, nnz: int) -> type:
    """CSR index dtype of an n x n matrix with nnz stored entries: int32 when both fit."""
    return _id_dtype(max(n, nnz))


def adjacency(h: Hypergraph) -> sp.csr_array:
    """Symmetric integer adjacency: (i, j) counts hyperedges containing both.

    Its indices are int32 unless n or the entry count needs int64; every
    masked copy keeps the index dtype.
    """
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
    # the symmetric sum stores at most two entries per pair
    idx = _index_dtype(n, 2 * sum(map(len, rows)))
    r = np.concatenate(rows, dtype=idx)
    c = np.concatenate(cols, dtype=idx)
    data = np.ones(len(r), dtype=np.int64)
    upper = sp.coo_array((data, (r, c)), shape=(n, n)).tocsr()
    return (upper + upper.T).tocsr()


def _pair_counts(edges: dict[int, np.ndarray], row_of: np.ndarray, col_of: np.ndarray,
                 shape: tuple[int, int]) -> sp.csr_array:
    """CSR whose (i, j) entry counts the edges holding a vertex of row i and another of column j.

    ``row_of[v]`` and ``col_of[v]`` give vertex v's row and column, or -1
    where it has none.  When ``col_of is row_of`` the counts are
    symmetric, so each unordered pair is counted once and the counts are
    added to their transpose, as ``adjacency`` does.  The indices are
    sorted, int32 unless the shape or the number of counted pairs needs
    int64, and the data int64, as in a masked ``adjacency``.
    """
    symmetric = col_of is row_of
    pairs = itertools.combinations if symmetric else itertools.permutations
    rows, cols = [row_of[:0]], [col_of[:0]]  # typed, for an input without edges
    for m, arr in edges.items():
        r, c = row_of[arr], col_of[arr]
        for p, q in pairs(range(m), 2):
            hit = (r[:, p] >= 0) & (c[:, q] >= 0)
            rows.append(r[hit, p])
            cols.append(c[hit, q])
    r, c = np.concatenate(rows), np.concatenate(cols)
    del rows, cols
    counts = sp.coo_array((np.ones(len(r), dtype=np.int64), (r, c)), shape=shape).tocsr()
    del r, c
    return (counts + counts.T).tocsr() if symmetric else counts


def _keep_entries(a, in_rows: np.ndarray, in_cols: np.ndarray) -> sp.csr_array:
    """CSR copy of ``a`` holding the stored entries whose row and column pass the masks."""
    a = sp.csr_array(a)
    keep = np.repeat(in_rows, np.diff(a.indptr)) & in_cols[a.indices]
    kept_before = np.zeros(len(keep) + 1, dtype=a.indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    indptr = kept_before[a.indptr]
    return sp.csr_array((a.data[keep], a.indices[keep], indptr), shape=a.shape)


def bipartite_embed(a, rows, cols) -> sp.csr_array:
    """Adjacency ``a`` restricted to the rows x cols rectangle, zero elsewhere.

    The two vertex sets must be disjoint; the result is n x n and not
    symmetric.  The k >= 3 pipeline counts its Z x Y1 block from the edges
    instead; the tests take this as that block's oracle, and the benchmark's
    trace hook wraps it by name.
    """
    n = a.shape[0]
    in_rows, in_cols = subset_mask(n, rows), subset_mask(n, cols)
    if (in_rows & in_cols).any():
        raise ValueError("row and column vertex sets must be disjoint")
    return _keep_entries(a, in_rows, in_cols)


def mask_matrix(a, kept: np.ndarray):
    """Zero out the rows and columns not indexed by ``kept``."""
    mask = subset_mask(a.shape[0], kept)
    return _keep_entries(a, mask, mask)


def regularize(h: Hypergraph, threshold: float, rows=None,
               cols=None) -> tuple[sp.csr_array, np.ndarray]:
    """Drop heavy vertices: keep those of degree <= threshold, and count the rest out.

    A vertex's degree is its row sum in ``adjacency(h)`` (``h.degrees()``).
    Entry (i, j) of the n x n result counts the edges holding a kept i of
    ``rows`` and a kept j of ``cols``; None stands for every vertex, which
    gives ``mask_matrix(adjacency(h), kept)``.  Returns the matrix and the
    kept index set.  Every row sum of the output is <= threshold by
    construction.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    n = h.n
    kept = np.flatnonzero(h.degrees() <= threshold)
    ids = np.where(subset_mask(n, kept), np.arange(n, dtype=_id_dtype(n)), -1)
    row_of = ids if rows is None else np.where(subset_mask(n, rows), ids, -1)
    col_of = ids if cols is None else np.where(subset_mask(n, cols), ids, -1)
    return _pair_counts(h.edges, row_of, col_of, (n, n)), kept


def _float_data(a):
    """An integer CSR ``a`` with its data cast to float64 and its index arrays shared; else ``a``.

    scipy casts integer data to float64 in every sparse product, so a solve
    that casts once spares ARPACK's every operator application that copy;
    the products are the same floats.
    """
    if isinstance(a, sp.csr_array) and a.dtype.kind in "biu":
        return sp.csr_array((a.data.astype(np.float64), a.indices, a.indptr), shape=a.shape)
    return a


def _eigsh(op, k: int, tol: float, max_iter: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of the symmetric operator op, by descending |eigenvalue|.

    The zero operator, which maps ARPACK's start vector to zero, has the
    eigenpairs (0, e_1), ..., (0, e_k).
    """
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
        except ArpackError as exc:
            # scipy keeps ARPACK's info code only in the message
            if not str(exc).startswith("ARPACK error -9:"):
                raise
            return np.zeros(k), np.eye(n, k)
    order = np.argsort(-np.abs(theta), kind="stable")[:k]
    return theta[order], u[:, order]


def _left_singular(a, k: int, tol: float, max_iter: int, seed: int) -> SubspaceBasis:
    """Top k left singular vectors and singular values of a (matrix or operator)."""
    op = aslinearoperator(a)
    # a sparse a's transpose is a view on its arrays, where op.H would copy them
    op_t = aslinearoperator(a.T) if sp.issparse(a) else op.H
    # eigenvalues of a a^T are the squared singular values
    theta, u = _eigsh(op @ op_t, k, tol, max_iter, seed)
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
    a = _float_data(a)
    if mode == "symmetric-eigen":
        theta, u = _eigsh(aslinearoperator(a), k, tol, max_iter, seed)
        return SubspaceBasis(u, np.abs(theta))
    return _left_singular(a, k, tol, max_iter, seed)


def spectral_norm(a, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER,
                  seed: int = 0) -> float:
    """Spectral norm: the largest singular value of a.

    Accepts sparse matrices, dense arrays, or linear operators of any
    shape.  ARPACK runs on a a^T as in the left-singular mode of
    ``top_subspace``, with the same ``tol``, ``max_iter`` and
    ConvergenceError.
    """
    return float(_left_singular(_float_data(a), 1, tol, max_iter, seed).singular_values[0])
