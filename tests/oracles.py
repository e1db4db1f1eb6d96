"""Checkers the tests use as oracles; the package itself never calls them."""

import itertools
import math

import numpy as np

from hyperblock.model import block_sizes, ground_truth_labels
from hyperblock.sampler import (BLUE, RED, _bernoulli_ranks, _has_repeats, _id_dtype, _row_order,
                                _stream)
from hyperblock.spectral import mask_matrix


def comb(c: np.ndarray, j: int) -> np.ndarray:
    """Elementwise C(c, j) by steps C(c, i + 1) = C(c, i) (c - i) / (i + 1) up to min(j, c - j)."""
    t = np.minimum(j, c - j)
    out = (t >= 0).astype(np.int64)
    for i in range(int(t.max(initial=0))):
        f = np.where(i < t, c - i, i + 1)
        q, r = np.divmod(out, i + 1)
        out = q * f + r * f // (i + 1)
    return out


def unrank(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Rows of the m-subsets of ``range(n)`` with these colex ranks, by float roots and steps."""
    rows = np.empty((len(ranks), m), dtype=np.int64)
    r = np.array(ranks, dtype=np.int64)
    hi = np.full(len(r), n - 1, dtype=np.int64)
    for j in range(m, 1, -1):
        root = np.exp((np.log(np.maximum(r, 1)) + math.lgamma(j + 1)) / j)
        c = np.clip(np.floor(root + (j - 1) / 2).astype(np.int64), j - 1, hi)
        while (up := comb(c + 1, j) <= r).any():
            c += up
        while (down := comb(c, j) > r).any():
            c -= down
        rows[:, j - 1] = c
        r -= comb(c, j)
        hi = c - 1
    rows[:, 0] = r
    return rows


def sample_edges(params, seed: int) -> dict[int, np.ndarray]:
    """``sample_hsbm``'s edges from the same ranks, unranked whole and sorted by ``np.lexsort``."""
    n, k = params.n, params.k
    sizes = block_sizes(n, k).tolist()
    starts = [sum(sizes[:b]) for b in range(k)]
    labels = ground_truth_labels(n, k)
    edges = {}
    for m in sorted(params.orders):
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        rng_w = _stream(seed, m, 0)
        parts = [start + unrank(_bernoulli_ranks(rng_w, math.comb(size, m), a / denom), size, m)
                 for start, size in zip(starts, sizes)]
        cross = unrank(_bernoulli_ranks(_stream(seed, m, 1), math.comb(n, m), b / denom), n, m)
        parts.append(cross[labels[cross[:, 0]] != labels[cross[:, -1]]])
        rows = np.concatenate(parts, dtype=_id_dtype(n))
        edges[m] = rows[np.lexsort(rows.T[::-1])]
    return edges


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order: ``rows`` itself when they are in order already."""
    perm = _row_order(rows)
    return rows if perm is None else rows[perm]


def validate(h) -> None:
    """Check a hypergraph's tuple ordering, id range, per-order uniqueness and colors.

    The sampler's rows are valid by construction and the reader checks its
    own rows, so this is the independent check of both.
    """
    for m, arr in h.edges.items():
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"order {m}: edge array must be (*, {m})")
        if len(arr):
            if arr.min() < 0 or arr.max() >= h.n:
                raise ValueError(f"order {m}: vertex id out of range")
            if not (np.diff(arr, axis=1) > 0).all():
                raise ValueError(f"order {m}: tuples must be strictly ascending")
            if _has_repeats(sort_rows(arr)):
                raise ValueError(f"order {m}: duplicate edge tuples")
        if h.colors is not None:
            if m not in h.colors or len(h.colors[m]) != len(arr):
                raise ValueError(f"order {m}: colors out of sync with edges")
            if not np.isin(h.colors[m], (RED, BLUE)).all():
                raise ValueError(f"order {m}: colors must be RED ({RED}) or BLUE ({BLUE})")


def dense_adjacency(h) -> np.ndarray:
    """Dense n x n pair counts: ``np.add.at`` over each pair of edge columns, plus the transpose."""
    a = np.zeros((h.n, h.n))
    for m, arr in h.edges.items():
        for p, q in itertools.combinations(range(m), 2):
            np.add.at(a, (arr[:, p], arr[:, q]), 1.0)
    return a + a.T


def row_sums(a) -> np.ndarray:
    """Vector of row sums of a sparse or dense matrix."""
    return np.asarray(a.sum(axis=1)).ravel()


def regularize_matrix(a, threshold: float):
    """``spectral.regularize`` on a matrix: mask the rows and columns of row sum above threshold.

    Returns the masked matrix and the kept index set.
    """
    kept = np.flatnonzero(row_sums(a) <= threshold)
    return mask_matrix(a, kept), kept
