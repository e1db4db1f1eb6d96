"""Detection pipelines over colored hypergraph instances.

The multi-block pipeline splits the vertices into Z / Y1 / Y2, extracts a
singular subspace from the regularized red bipartite adjacency between Z
and Y1, reads candidate sets off projected red columns between Z and Y2,
filters them by blue-edge density, corrects Z by a weighted red-neighbor
vote, and finally merges Y into the corrected sets using blue edges.  The
two-block pipeline works on the full red adjacency and swaps suspicious
vertices by a blue cross-neighbor test instead of merging.

Every stage is deterministic given the pipeline seed; independent seeds
are embarrassingly parallel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .model import ModelParams, OrderSubset
from .sampler import (
    SIDE_Y1,
    SIDE_Y2,
    Hypergraph,
    SplitAssignment,
    color_edges,
    restrict,
    restrict_orders,
    split_vertices,
    subset_mask,
)
from .spectral import (adjacency, bipartite_embed, incidence, mask_matrix, regularize,
                       row_sums, top_subspace)

__all__ = [
    "PartitionFailure",
    "PipelineConfig",
    "CandidateSet",
    "centering_vector",
    "blue_weighted_count",
    "spectral_partition_k",
    "correction_k",
    "merging",
    "partition_k",
    "spectral_partition_2",
    "correction_2",
    "partition_2",
    "partition",
]

log = logging.getLogger("hyperblock")

REGULARIZATION_FACTOR = 20

# blue_weighted_count scores its sets in blocks of at most this many
# edge x set counts, which bounds its memory whatever the number of sets
_COUNT_BLOCK = 1 << 21


class PartitionFailure(RuntimeError):
    """The pipeline could not produce the required candidate structure."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run: target correctness nu, subset, seed."""

    nu: float = 0.75
    subset: OrderSubset | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0.5, 1), got {self.nu}")


@dataclass(frozen=True)
class CandidateSet:
    """A size-floor(n/2k) vertex set with its weighted blue-edge density."""

    vertices: np.ndarray
    blue_density: float


def _derived_seed(seed: int, tag: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _resolve_subset(params: ModelParams, cfg: PipelineConfig) -> OrderSubset:
    return cfg.subset if cfg.subset is not None else model.preprocess_select(params)


def _membership(n: int, sets) -> np.ndarray:
    """n x len(sets) boolean matrix whose column j indicates sets[j]."""
    members = np.zeros((n, len(sets)), dtype=bool)
    for j, ids in enumerate(sets):
        members[:, j] = subset_mask(n, ids)
    return members


def centering_vector(params: ModelParams, subset: OrderSubset, z_set) -> np.ndarray:
    """Column-centering vector: (alpha_bar + beta_bar)/2 on Z, zero elsewhere.

    alpha_bar / beta_bar are the expected within- and cross-block entries
    of the bipartite split adjacency under a perfect three-quarter split.
    """
    n, k = params.n, params.k
    abar = 0.0
    bbar = 0.0
    for m in subset.sorted():
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        same = model.comb_floor(3 * n / (4 * k) - 2, m - 2)
        allp = model.comb_floor(3 * n / 4 - 2, m - 2)
        abar += (same * (a - b) + allp * b) / denom
        bbar += allp * b / denom
    return np.where(subset_mask(n, z_set), 0.5 * (abar + bbar), 0.0)


def blue_weighted_count(h_blue: Hypergraph, sets) -> np.ndarray:
    """Weighted count of blue edges fully inside each set: sum of m(m-1) each.

    ``sets`` is a sequence of vertex sets; returns one count per set.
    """
    inc, order = incidence(h_blue)
    members = _membership(h_blue.n, sets)
    # an edge inside one of the sets lies inside their union; drop the rest
    keep = inc @ members.any(axis=1) == order
    inc, order = inc[keep], order[keep]
    weight = order * (order - 1)
    out = np.zeros(len(sets))
    step = max(1, _COUNT_BLOCK // max(len(order), 1))
    for j in range(0, len(sets), step):
        inside = inc @ members[:, j:j + step]
        out[j:j + step] = weight @ (inside == order[:, None])
    return out


def _neighbor_scores(h: Hypergraph, members: np.ndarray) -> np.ndarray:
    """S[v, i] = sum of (m_e - 1) over edges e through v with the rest in set i.

    ``members`` is the n x s membership matrix of the sets.  An edge of
    order m has its other endpoints in the set when m of its endpoints lie
    there if v does, and m - 1 if v does not.
    """
    inc, order = incidence(h)
    inside = inc @ members
    weight = (order - 1)[:, None]
    with_v = inc.T @ (weight * (inside == order[:, None]))
    without_v = inc.T @ (weight * (inside == order[:, None] - 1))
    return np.where(members, with_v, without_v)


def spectral_partition_k(
    h: Hypergraph,
    split: SplitAssignment,
    params: ModelParams,
    cfg: PipelineConfig,
) -> list[CandidateSet]:
    """Candidate blocks from the red bipartite spectrum, filtered by blue density.

    Returns k candidate sets of size floor(n/2k) drawn from Z with pairwise
    overlaps below ceil((1-nu) n / k).  Raises PartitionFailure when fewer
    than k sufficiently distinct sets survive the density filter.
    """
    n, k = params.n, params.k
    if n < 4 * k:
        raise ValueError("n must be at least 4k")
    if not h.is_colored:
        raise ValueError("spectral partition needs a colored hypergraph")
    subset = _resolve_subset(params, cfg)
    h = restrict_orders(h, subset)
    h_red, h_blue = h.red(), h.blue()

    z, y1, y2 = split.z, split.y1, split.y2
    set_size = n // (2 * k)
    if len(z) < set_size:
        raise PartitionFailure("side Z is too small for candidate sets",
                               {"z": len(z), "set_size": set_size})

    d = model.degree_scale(params, subset)
    threshold = REGULARIZATION_FACTOR * subset.m_max * d

    # subspace from the red hypergraph induced on Z u Y1
    a_zy1 = adjacency(restrict(h_red, np.concatenate([z, y1])))
    kept = np.flatnonzero(row_sums(a_zy1) <= threshold)
    a1 = mask_matrix(bipartite_embed(a_zy1, z, y1), kept)
    basis = top_subspace(a1, k, "left-singular", seed=_derived_seed(cfg.seed, 3))
    if basis.singular_values[0] == 0.0:
        raise PartitionFailure("red bipartite adjacency carries no signal")

    # project sampled red columns from the Z u Y2 side
    s = min(int(math.ceil(2 * k * math.log(n) ** 2)), len(y2))
    if s == 0:
        raise PartitionFailure("side Y2 is empty")
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=int(cfg.seed), spawn_key=(4,))))
    sampled = rng.choice(y2, size=s, replace=False)
    a2 = bipartite_embed(adjacency(restrict(h_red, np.concatenate([z, y2]))), z, y2)
    # the sampled columns live on the red half of the coloring, so their
    # background expectation is half the nominal centering value; without
    # the 1/2 the uncanceled bias drives every column to the same ranking
    # when the signal is weak
    centered = a2[:, sampled].toarray() - 0.5 * centering_vector(params, subset, z)[:, None]
    proj = basis.vectors @ (basis.vectors.T @ centered)

    # top coordinates inside Z, ties by ascending vertex id
    proj_z = proj[z, :]
    sets = []
    for j in range(s):
        order = np.argsort(-proj_z[:, j], kind="stable")
        sets.append(z[order[:set_size]])
    # scoring allocates too; freeing the n x s float block first keeps it
    # from raising the peak resident set
    del centered, proj, proj_z

    densities = blue_weighted_count(h_blue, sets)
    # drop the low-density half, but never a set that clears the aligned-set
    # density threshold: same-block candidates share edges, so one block's
    # whole cluster can fluctuate below the median at moderate n
    mu_t = model.blue_density_thresholds(params, subset, cfg.nu)[2]
    top_half = np.zeros(s, dtype=bool)
    top_half[np.lexsort((np.arange(s), densities))[s // 2:]] = True
    survivors = np.flatnonzero(top_half | (densities >= mu_t))
    survivors = survivors[np.lexsort((survivors, -densities[survivors]))]

    overlap_cap = math.ceil((1.0 - cfg.nu) * n / k)
    accepted: list[int] = []
    masks: list[np.ndarray] = []
    for j in survivors:
        mask = subset_mask(n, sets[j])
        if all(int((mask & other).sum()) < overlap_cap for other in masks):
            accepted.append(j)
            masks.append(mask)
            if len(accepted) == k:
                break
    diag = {"z": len(z), "y1": len(y1), "y2": len(y2), "s": s,
            "discarded": s - len(survivors), "accepted": len(accepted)}
    log.debug("spectral partition: %s", diag)
    if len(accepted) < k:
        raise PartitionFailure(
            f"only {len(accepted)} of {k} sufficiently distinct candidate sets found", diag)
    return [CandidateSet(np.sort(sets[j]), float(densities[j])) for j in accepted]


def correction_k(
    h_red: Hypergraph,
    z_set,
    candidate_sets: list[CandidateSet],
) -> list[np.ndarray]:
    """Reassign every Z vertex to the candidate set holding most red neighbors.

    Neighbor counts are weighted by (m-1); ties go to the lowest set index.
    Returns a partition of Z.
    """
    in_z = subset_mask(h_red.n, z_set)
    scores = _neighbor_scores(h_red, _membership(h_red.n, [cs.vertices for cs in candidate_sets]))
    choice = np.argmax(scores[in_z], axis=1)
    z_ids = np.flatnonzero(in_z)
    return [z_ids[choice == i] for i in range(len(candidate_sets))]


def merging(
    h_blue: Hypergraph,
    y_set,
    corrected_sets: list[np.ndarray],
    mu_m: float,
) -> np.ndarray:
    """Attach every Y vertex to corrected sets by the blue-neighbor test.

    A vertex joins each set whose weighted blue-neighbor count reaches
    mu_m; conflicts and vertices qualifying nowhere fall back to the
    argmax count with lowest-index ties.  Returns a full labeling.
    """
    n = h_blue.n
    in_y = subset_mask(n, y_set)
    labels = np.full(n, -1, dtype=np.int64)
    for i, ids in enumerate(corrected_sets):
        labels[ids] = i
    scores = _neighbor_scores(h_blue, _membership(n, corrected_sets))[in_y]
    qualify = scores >= mu_m
    unique = qualify.sum(axis=1) == 1
    labels[in_y] = np.where(unique, np.argmax(qualify, axis=1), np.argmax(scores, axis=1))
    return labels


def partition_k(params: ModelParams, h: Hypergraph, cfg: PipelineConfig) -> np.ndarray:
    """Full multi-block pipeline; deterministic given cfg.seed."""
    if params.k < 3:
        raise ValueError("partition_k requires k >= 3")
    subset = _resolve_subset(params, cfg)
    cfg = replace(cfg, subset=subset)
    h = restrict_orders(h, subset)
    if not h.is_colored:
        h = color_edges(h, _derived_seed(cfg.seed, 1))
    split = split_vertices(params.n, _derived_seed(cfg.seed, 2))
    candidates = spectral_partition_k(h, split, params, cfg)
    corrected = correction_k(h.red(), split.z, candidates)
    mu_m = model.merging_threshold(params, subset, cfg.nu)
    labels = merging(h.blue(), split.members(SIDE_Y1, SIDE_Y2), corrected, mu_m)
    log.debug("partition_k: subset=%s mu_m=%.4f", subset.sorted(), mu_m)
    return labels


def spectral_partition_2(
    h_red: Hypergraph,
    params: ModelParams,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-block spectral split from the regularized red adjacency.

    Takes the two leading eigenvectors by magnitude, removes the direction
    of the projected all-ones vector, and splits the vertices at the
    median coordinate of the remaining unit vector.
    """
    n = params.n
    subset = _resolve_subset(params, cfg)
    h_red = restrict_orders(h_red, subset)
    d = model.degree_scale(params, subset)
    threshold = REGULARIZATION_FACTOR * subset.m_max * d
    a_reg, _ = regularize(adjacency(h_red), threshold)
    basis = top_subspace(a_reg, 2, "symmetric-eigen", seed=_derived_seed(cfg.seed, 3))
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

    order = np.argsort(-v, kind="stable")
    half = (n + 1) // 2
    return np.sort(order[:half]), np.sort(order[half:])


def correction_2(
    h_blue: Hypergraph,
    side_1,
    side_2,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Swap vertices whose weighted blue cross-neighbor count reaches the threshold."""
    n = h_blue.n
    m1 = subset_mask(n, side_1)
    m2 = subset_mask(n, side_2)
    if (m1 & m2).any() or not (m1 | m2).all():
        raise ValueError("the two sides must partition the vertex set")
    scores = _neighbor_scores(h_blue, np.column_stack([m1, m2]))
    cross = np.where(m1, scores[:, 1], scores[:, 0])
    bad = cross >= threshold
    to_1 = (m1 & ~bad) | (m2 & bad)
    return np.flatnonzero(to_1), np.flatnonzero(~to_1)


def partition_2(params: ModelParams, h: Hypergraph, cfg: PipelineConfig) -> np.ndarray:
    """Full two-block pipeline; deterministic given cfg.seed."""
    if params.k != 2:
        raise ValueError("partition_2 requires k == 2")
    subset = _resolve_subset(params, cfg)
    cfg = replace(cfg, subset=subset)
    h = restrict_orders(h, subset)
    if not h.is_colored:
        h = color_edges(h, _derived_seed(cfg.seed, 1))
    side_1, side_2 = spectral_partition_2(h.red(), params, cfg)
    threshold = model.binary_correction_threshold(params, subset, cfg.nu)
    hat_1, hat_2 = correction_2(h.blue(), side_1, side_2, threshold)
    labels = np.zeros(params.n, dtype=np.int64)
    labels[hat_2] = 1
    log.debug("partition_2: subset=%s threshold=%.4f", subset.sorted(), threshold)
    return labels


def partition(params: ModelParams, h: Hypergraph, cfg: PipelineConfig) -> np.ndarray:
    """Dispatch to the two-block or multi-block pipeline on k."""
    if params.k == 2:
        return partition_2(params, h, cfg)
    return partition_k(params, h, cfg)
