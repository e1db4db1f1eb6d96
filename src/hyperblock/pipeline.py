"""The detection pipeline over hypergraph instances.

``partition`` is its one entry point and makes every per-run decision
once: it picks the order subset of largest signal-to-noise ratio (a
sorted tuple of orders), keeps only the edges of those orders, colors an
uncolored hypergraph red or blue at random and splits it into its red and
blue halves.  The stages take the subset and the halves, and read the
halves through their per-order edge arrays ``h.edges``.

For k >= 3 the pipeline splits the vertices into Z / Y1 / Y2, extracts a
singular subspace from the regularized red bipartite adjacency between Z
and Y1, reads candidate sets off projected red columns between Z and Y2,
filters them by blue-edge density, corrects Z by a weighted red-neighbor
vote, and finally merges Y into the corrected sets using blue edges.  Once
split into its halves, ``partition`` drops the instance, so each edge is
held once.  No red adjacency is built whole: ``spectral.regularize``
counts the regularized Z x Y1 block straight from the red edge arrays,
and the s sampled Y2 rows against Z are counted the same way.  The
projection goes through the k x s subspace coordinates of the s sampled
columns, never an n x s float block.  The s candidate sets are held
once, bit-packed: row v of an n x ceil(s/8) byte matrix says which sets
hold v, and the k accepted ones leave packed the same way.  A partition
is a label vector, -1 marking an unassigned vertex: correction labels Z,
and merging labels Y.  Both ask of each edge whether its other endpoints
lie in a set, which is one AND of packed rows (``_shared_sets``, the
kernel of the blue density count too), so they pack labels into that
form.  The two-block
pipeline (k = 2) takes the regularized red adjacency from
``spectral.regularize`` too, splits the vertices into 0/1 labels and swaps
suspicious vertices by a blue cross-neighbor test.

Every stage is deterministic given the pipeline seed, from which each
draw takes its own stream through ``sampler.trial_seed``; independent
seeds are embarrassingly parallel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model
from .model import ModelParams, PartitionFailure
from .sampler import (
    SIDE_Y1,
    SIDE_Y2,
    Hypergraph,
    SplitAssignment,
    _id_dtype,
    _stream,
    color_edges,
    restrict,
    restrict_orders,
    split_vertices,
    subset_mask,
    trial_seed,
)
from .spectral import _pair_counts, regularize, top_subspace

__all__ = [
    "PartitionFailure",
    "PipelineConfig",
    "centering_vector",
    "blue_weighted_count",
    "spectral_partition_k",
    "correction_k",
    "merging",
    "spectral_partition_2",
    "correction_2",
    "partition",
]

log = logging.getLogger("hyperblock")

# blue_weighted_count works in blocks of at most this many bytes (edge x
# set bits and edge ids), which bounds its memory whatever the number of sets
_COUNT_BLOCK = 1 << 19


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run: target correctness nu and seed."""

    nu: float = 0.75
    seed: int = 0

    def __post_init__(self):
        model._check_nu(self.nu)


def centering_vector(params: ModelParams, subset: tuple[int, ...], z_set) -> np.ndarray:
    """Column-centering vector: (alpha_bar + beta_bar)/2 on Z, zero elsewhere.

    alpha_bar / beta_bar are the expected within- and cross-block entries
    of the bipartite split adjacency under a perfect three-quarter split.
    """
    n, k = params.n, params.k
    abar = 0.0
    bbar = 0.0
    for m in subset:
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        same = model.comb_floor(3 * n / (4 * k) - 2, m - 2)
        allp = model.comb_floor(3 * n / 4 - 2, m - 2)
        abar += model._ratio_sum(denom, (same, a - b), (allp, b))
        bbar += model._ratio_sum(denom, (allp, b))
    return np.where(subset_mask(n, z_set), 0.5 * (abar + bbar), 0.0)


def _shared_sets(packed: np.ndarray, rows: np.ndarray, skip: int | None = None) -> np.ndarray:
    """Per edge, the AND of its endpoints' rows of ``packed``, endpoint ``skip`` left out.

    ``rows`` is an (E, m) edge array and ``packed`` an n x ceil(s/8) byte
    matrix of sets in ``np.packbits`` order.  Row e of the E x ceil(s/8)
    result has bit j set when every endpoint of edge e, but the one in
    column ``skip``, lies in set j.
    """
    ends = [v for j, v in enumerate(rows.T) if j != skip]
    shared = packed[ends[0]]
    for v in ends[1:]:
        shared &= packed[v]
    return shared


def blue_weighted_count(h_blue: Hypergraph, packed: np.ndarray, s: int) -> np.ndarray:
    """Weighted count of blue edges fully inside each set: sum of m(m-1) each.

    Row v of the n x ceil(s/8) byte matrix ``packed`` holds the sets of
    vertex v in ``np.packbits`` order: bit j says v lies in set j.  Returns
    one count per set.  An edge lies inside exactly the sets whose bits
    survive the AND of its endpoints' rows (``_shared_sets``).
    """
    in_union = packed.any(axis=1)
    total = np.zeros(s, dtype=np.int64)
    for m, rows in h_blue.edges.items():
        count = np.zeros(s, dtype=np.int64)
        step = max(1, _COUNT_BLOCK // (s + 8 * m))  # bytes of set bits and ids per edge
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            # an edge inside one of the sets lies inside their union; drop the rest
            inside = _shared_sets(packed, block[in_union[block].all(axis=1)])
            # a block has at most _COUNT_BLOCK edges, so int32 sums are exact
            count += np.unpackbits(inside, axis=1, count=s).sum(axis=0, dtype=np.int32)
        total += m * (m - 1) * count
    return total.astype(np.float64)


def _top_positions(scores: np.ndarray, size: int) -> np.ndarray:
    """Mask of each row's first ``size`` entries in a stable descending sort.

    That is every entry above the row's size-th largest value, then the
    lowest positions equal to it.
    """
    cut = np.partition(scores, scores.shape[1] - size, axis=1)[:, -size]
    keep = scores > cut[:, None]
    for row, vals, value, room in zip(keep, scores, cut, size - keep.sum(axis=1)):
        row[np.flatnonzero(vals == value)[:room]] = True
    return keep


def _neighbor_scores(h: Hypergraph, packed: np.ndarray, s: int) -> np.ndarray:
    """S[v, i] = sum of (m_e - 1) over edges e through v with the rest in set i.

    ``packed`` holds the s sets as ``blue_weighted_count`` reads them.  For
    the endpoint in each column of an order's edges, ``_shared_sets`` gives
    the sets holding the other m - 1 endpoints, and each set's edges are
    counted at that endpoint.
    """
    scores = np.zeros((h.n, s), dtype=np.int64)
    for m, rows in h.edges.items():
        for j, v in enumerate(rows.T):
            rest = np.unpackbits(_shared_sets(packed, rows, skip=j), axis=1, count=s).view(bool)
            for i in range(s):
                scores[:, i] += (m - 1) * np.bincount(v[rest[:, i]], minlength=h.n)
    return scores


def _sampled_rows(h_red: Hypergraph, z: np.ndarray, y2: np.ndarray,
                  sampled: np.ndarray) -> sp.csr_array:
    """Rows ``sampled`` and columns Z of the red adjacency induced on Z u Y2.

    Counted from the induced red edges that hold a sampled vertex.  The
    arrays equal those of ``adjacency(restrict(h_red, Z u Y2))[sampled][:, z]``.
    """
    n = h_red.n
    inside = subset_mask(n, np.concatenate([z, y2]))
    is_sampled = subset_mask(n, sampled)
    edges = {m: arr[inside[arr].all(axis=1) & is_sampled[arr].any(axis=1)]
             for m, arr in h_red.edges.items()}
    rows = np.full(n, -1, dtype=_id_dtype(n))
    rows[sampled] = np.arange(len(sampled))
    cols = np.full(n, -1, dtype=_id_dtype(n))
    cols[z] = np.arange(len(z))
    return _pair_counts(edges, rows, cols, (len(sampled), len(z)))


def spectral_partition_k(
    h_red: Hypergraph,
    h_blue: Hypergraph,
    split: SplitAssignment,
    params: ModelParams,
    subset: tuple[int, ...],
    cfg: PipelineConfig,
) -> np.ndarray:
    """Candidate blocks from the red bipartite spectrum, filtered by blue density.

    V is the top-k left singular subspace of the regularized red Z x Y1
    block.  The s sampled, centered red columns A[:, S] - c/2, A the red
    adjacency induced on Z u Y2, enter only through their k x s coordinates
    W = V^T A[:, S] - V^T c / 2: one sparse product with the s x |Z| rows
    A[S, Z], and a rank-one term, since the centering c is shared.  Both
    sparse matrices are counted from the red edges; A itself is never
    built.  Each column of V[Z] W (formed 8 at a time) yields its
    floor(n/2k) largest Z coordinates: every vertex strictly above the cut
    value, then the lowest ids equal to it.

    Reads the halves of the instance restricted to ``subset``.  Returns k
    candidate sets of size floor(n/2k) drawn from Z, with pairwise overlaps
    below ceil((1-nu) n / k), packed as ``blue_weighted_count`` reads them:
    an n x ceil(k/8) byte matrix.  Raises PartitionFailure when fewer than
    k sufficiently distinct sets survive.
    """
    n, k = params.n, params.k
    if n < 4 * k:
        raise ValueError("n must be at least 4k")
    z, y1, y2 = split.z, split.y1, split.y2
    set_size = n // (2 * k)
    if len(z) < set_size:
        raise PartitionFailure("side Z is too small for candidate sets",
                               {"z": len(z), "set_size": set_size})

    # subspace from the red edges induced on Z u Y1
    block, kept = regularize(restrict(h_red, np.concatenate([z, y1])),
                             model.regularization_threshold(params, subset), z, y1)
    basis = top_subspace(block, k, "left-singular", seed=trial_seed(cfg.seed, 3))
    del block  # freed before the sampled rows are counted
    if basis.singular_values[0] == 0.0:
        raise PartitionFailure("red bipartite adjacency carries no signal")

    # project sampled red columns from the Z u Y2 side
    s = min(int(math.ceil(2 * k * math.log(n) ** 2)), len(y2))
    if s == 0:
        raise PartitionFailure("side Y2 is empty")
    sampled = _stream(cfg.seed, 4).choice(y2, size=s, replace=False)
    v_z = basis.vectors[z]
    sampled_rows = _sampled_rows(h_red, z, y2, sampled)
    # the sampled columns live on the red half of the coloring, so their
    # background expectation is half the nominal centering value; without
    # the 1/2 the uncanceled bias drives every column to the same ranking
    # when the signal is weak
    coords = ((sampled_rows @ v_z).T
              - 0.5 * (basis.vectors.T @ centering_vector(params, subset, z))[:, None])

    # rank the Z coordinates of one byte of sets (8 projected columns) at a
    # time; bit j of row v of packed, in np.packbits order, says v is in set j
    bits = np.uint8(0x80) >> np.arange(8, dtype=np.uint8)
    packed = np.zeros((n, -(-s // 8)), dtype=np.uint8)
    for j in range(0, s, 8):
        top = _top_positions(coords[:, j:j + 8].T @ v_z.T, set_size)
        packed[z, j // 8] = (top * bits[:len(top), None]).sum(axis=0, dtype=np.uint8)

    densities = blue_weighted_count(h_blue, packed, s)
    # drop the low-density half, but never a set that clears the aligned-set
    # density threshold: same-block candidates share edges, so one block's
    # whole cluster can fluctuate below the median at moderate n
    mu_t = model.blue_density_thresholds(params, subset, cfg.nu)[2]
    survivors = np.union1d(np.lexsort((np.arange(s), densities))[s // 2:],
                           np.flatnonzero(densities >= mu_t))
    survivors = survivors[np.lexsort((survivors, -densities[survivors]))]

    overlap_cap = math.ceil((1.0 - cfg.nu) * n / k)
    accepted: list[np.ndarray] = []
    max_overlap = 0
    for j in survivors.tolist():
        column = (packed[:, j // 8] & bits[j % 8]) != 0
        overlap = max((int(np.count_nonzero(other & column)) for other in accepted), default=0)
        if overlap < overlap_cap:
            accepted.append(column)
            max_overlap = max(max_overlap, overlap)
            if len(accepted) == k:
                break
    diag = {"z": len(z), "y1": len(y1), "y2": len(y2), "kept_fraction": len(kept) / n,
            "s": s, "discarded": s - len(survivors), "accepted": len(accepted),
            "max_overlap": max_overlap, "overlap_cap": overlap_cap}
    log.debug("spectral partition: %s", diag)
    if len(accepted) < k:
        raise PartitionFailure(
            f"only {len(accepted)} of {k} sufficiently distinct candidate sets found", diag)
    return np.packbits(np.stack(accepted, axis=1), axis=1)


def correction_k(h_red: Hypergraph, z_set, candidates: np.ndarray, k: int) -> np.ndarray:
    """Reassign every Z vertex to the candidate set holding most red neighbors.

    ``candidates`` holds the k candidate sets packed, as
    ``spectral_partition_k`` returns them.  Neighbor counts are weighted by
    (m-1); ties go to the lowest set index.  Returns labels: the chosen set
    on Z, -1 elsewhere.
    """
    choice = np.argmax(_neighbor_scores(h_red, candidates, k), axis=1)
    return np.where(subset_mask(h_red.n, z_set), choice, -1)


def merging(h_blue: Hypergraph, y_set, labels: np.ndarray, k: int, mu_m: float) -> np.ndarray:
    """Attach every Y vertex to the labeled sets by the blue-neighbor test.

    ``labels`` puts vertices in k disjoint sets, -1 marking none, and the
    labeled vertices keep their sets.  A vertex of Y joins each set whose
    weighted blue-neighbor count reaches mu_m; conflicts and vertices
    qualifying nowhere fall back to the argmax count with lowest-index
    ties.  Returns a new labeling, full when every vertex outside Y is
    labeled.
    """
    in_y = subset_mask(h_blue.n, y_set)
    sets = np.packbits(labels[:, None] == np.arange(k), axis=1)
    scores = _neighbor_scores(h_blue, sets, k)[in_y]
    qualify = scores >= mu_m
    unique = qualify.sum(axis=1) == 1
    labels = labels.copy()
    labels[in_y] = np.where(unique, np.argmax(qualify, axis=1), np.argmax(scores, axis=1))
    return labels


def spectral_partition_2(
    h_red: Hypergraph,
    params: ModelParams,
    subset: tuple[int, ...],
    cfg: PipelineConfig,
) -> np.ndarray:
    """Two-block spectral split from the regularized red adjacency.

    Takes the two leading eigenvectors by magnitude, removes the direction
    of the projected all-ones vector, and splits the vertices at the
    median coordinate of the remaining unit vector.  Returns 0/1 labels:
    label 0 goes to the first ceil(n/2) vertices of a stable descending
    sort of that vector, label 1 to the rest.
    """
    n = params.n
    basis = top_subspace(regularize(h_red, model.regularization_threshold(params, subset))[0],
                         2, "symmetric-eigen", seed=trial_seed(cfg.seed, 3))
    if basis.singular_values[0] == 0.0:
        raise PartitionFailure("regularized red adjacency is zero")

    ones_proj = basis.vectors @ (basis.vectors.T @ np.ones(n))
    norm = np.linalg.norm(ones_proj)
    if norm < 1e-12 * math.sqrt(n):
        raise PartitionFailure("all-ones projection vanished; cannot deflate")
    p_hat = ones_proj / norm
    residuals = basis.vectors - np.outer(p_hat, p_hat @ basis.vectors)
    lengths = np.linalg.norm(residuals, axis=0)
    best = int(np.argmax(lengths))
    if lengths[best] < 1e-12:
        raise PartitionFailure("leading subspace is degenerate after deflation")
    v = residuals[:, best] / lengths[best]

    labels = np.ones(n, dtype=np.int64)
    labels[np.argsort(-v, kind="stable")[:(n + 1) // 2]] = 0
    return labels


def correction_2(h_blue: Hypergraph, labels: np.ndarray, threshold: float) -> np.ndarray:
    """Swap vertices whose weighted blue cross-neighbor count reaches the threshold.

    ``labels`` gives every vertex its side, 0 or 1; returns the corrected
    labels.
    """
    scores = _neighbor_scores(h_blue, np.packbits(labels[:, None] == np.arange(2), axis=1), 2)
    cross = np.where(labels == 0, scores[:, 1], scores[:, 0])
    return np.where(cross >= threshold, 1 - labels, labels)


def partition(params: ModelParams, h: Hypergraph, cfg: PipelineConfig) -> np.ndarray:
    """Labels from the two-block (k == 2) or multi-block pipeline.

    A colored ``h`` keeps its colors.  Deterministic given cfg.seed.
    """
    if h.n != params.n:
        raise ValueError(f"hypergraph has n = {h.n} vertices, the model n = {params.n}")
    subset = model.preprocess_select(params)
    h = restrict_orders(h, subset)
    if not h.is_colored:
        h = color_edges(h, trial_seed(cfg.seed, 1))
    if params.k == 2:
        # one reader per half: blue is split off after the spectral stage's peak
        labels = spectral_partition_2(h.red(), params, subset, cfg)
        threshold = model.binary_correction_threshold(params, subset, cfg.nu)
        labels = correction_2(h.blue(), labels, threshold)
        log.debug("partition: subset=%s threshold=%.4f", subset, threshold)
        return labels
    h_red, h_blue = h.red(), h.blue()
    del h  # each edge is held once from here: the caller hands h over
    split = split_vertices(params.n, trial_seed(cfg.seed, 2))
    candidates = spectral_partition_k(h_red, h_blue, split, params, subset, cfg)
    labels = correction_k(h_red, split.z, candidates, params.k)
    mu_m = model.merging_threshold(params, subset, cfg.nu)
    labels = merging(h_blue, split.members(SIDE_Y1, SIDE_Y2), labels, params.k, mu_m)
    log.debug("partition: subset=%s mu_m=%.4f", subset, mu_m)
    return labels
