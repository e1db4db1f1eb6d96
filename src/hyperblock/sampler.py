"""Sampling of non-uniform hypergraph block-model instances.

Instances are drawn in two strata per edge order: the within-block stratum
(all m-sets fully inside one block) and the cross stratum (everything
else).  Each stratum's edge count is an exact Binomial draw, after which
that many distinct m-sets are chosen uniformly inside the stratum.  This
keeps the joint edge distribution exact while never enumerating the
O(n^m) candidate sets in the sparse regime.

All randomness flows through counter-based Philox generators keyed by
``(seed, role, ...)`` so samples, colorings, and splits are reproducible
and independent trials can run in parallel.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, block_sizes

__all__ = [
    "RED",
    "BLUE",
    "SIDE_Z",
    "SIDE_Y1",
    "SIDE_Y2",
    "UNASSIGNED",
    "Hypergraph",
    "SplitAssignment",
    "ground_truth_labels",
    "sample_hsbm",
    "color_edges",
    "split_vertices",
    "subset_mask",
    "restrict",
    "restrict_orders",
]

log = logging.getLogger("hyperblock")

RED = 0
BLUE = 1

SIDE_Z = 0
SIDE_Y1 = 1
SIDE_Y2 = 2

UNASSIGNED = -1

# enumerate a stratum outright instead of rejection-sampling once it is
# this small or the draw covers most of it
_ENUMERATION_CAP = 200_000


def _stream(seed: int, *tags: int) -> np.random.Generator:
    """Philox stream keyed by (seed, tags...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus per-order edge arrays, optionally red/blue colored.

    ``edges[m]`` is an (num_edges, m) int64 array whose rows are strictly
    ascending vertex tuples, sorted lexicographically.  ``colors[m]`` is a
    parallel uint8 array with values RED/BLUE, or None when uncolored.
    """

    n: int
    edges: dict[int, np.ndarray]
    colors: dict[int, np.ndarray] | None = None

    @property
    def is_colored(self) -> bool:
        return self.colors is not None

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))

    def num_edges(self, m: int | None = None) -> int:
        if m is not None:
            return len(self.edges.get(m, ()))
        return sum(len(e) for e in self.edges.values())

    def only_color(self, color: int) -> "Hypergraph":
        """Uncolored sub-hypergraph holding just the edges of one color."""
        if self.colors is None:
            raise ValueError("hypergraph is not colored")
        kept = {}
        for m, arr in self.edges.items():
            mask = self.colors[m] == color
            if mask.any():
                kept[m] = arr[mask]
        return Hypergraph(self.n, kept, None)

    def red(self) -> "Hypergraph":
        return self.only_color(RED)

    def blue(self) -> "Hypergraph":
        return self.only_color(BLUE)

    def validate(self) -> None:
        """Check tuple ordering, id range, and per-order uniqueness."""
        for m, arr in self.edges.items():
            if arr.ndim != 2 or arr.shape[1] != m:
                raise ValueError(f"order {m}: edge array must be (*, {m})")
            if len(arr):
                if arr.min() < 0 or arr.max() >= self.n:
                    raise ValueError(f"order {m}: vertex id out of range")
                if not (np.diff(arr, axis=1) > 0).all():
                    raise ValueError(f"order {m}: tuples must be strictly ascending")
                if len(_dedupe(arr)) != len(arr):
                    raise ValueError(f"order {m}: duplicate edge tuples")
            if self.colors is not None:
                if m not in self.colors or len(self.colors[m]) != len(arr):
                    raise ValueError(f"order {m}: colors out of sync with edges")


@dataclass(frozen=True)
class SplitAssignment:
    """Per-vertex side tags in {Z, Y1, Y2} from two rounds of fair coins."""

    side: np.ndarray

    def members(self, *sides: int) -> np.ndarray:
        return np.flatnonzero(np.isin(self.side, sides))

    @property
    def z(self) -> np.ndarray:
        return self.members(SIDE_Z)

    @property
    def y1(self) -> np.ndarray:
        return self.members(SIDE_Y1)

    @property
    def y2(self) -> np.ndarray:
        return self.members(SIDE_Y2)


def ground_truth_labels(n: int, k: int) -> np.ndarray:
    """Planted labels: consecutive blocks, remainder on the lowest-index ones."""
    return np.repeat(np.arange(k, dtype=np.int64), block_sizes(n, k))


def _row_order(rows: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts the rows of an (E, m) array lexicographically."""
    return np.lexsort(rows.T[::-1])


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    return rows[_row_order(rows)]


def _binomial_count(rng: np.random.Generator, size: int, p: float) -> int:
    if size == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return size
    if size > 2**62:
        raise ValueError("stratum too large for an exact binomial draw")
    return int(rng.binomial(size, p))


def _within_enumeration(blocks: list[np.ndarray], m: int) -> np.ndarray:
    rows = []
    for verts in blocks:
        rows.extend(itertools.combinations(verts.tolist(), m))
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), m)


def _cross_enumeration(n: int, labels: np.ndarray, m: int) -> np.ndarray:
    rows = [c for c in itertools.combinations(range(n), m)
            if not (labels[list(c)] == labels[c[0]]).all()]
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), m)


def _take_enumerated(rng: np.random.Generator, universe: np.ndarray, count: int) -> np.ndarray:
    idx = rng.choice(len(universe), size=count, replace=False)
    return universe[np.sort(idx)]


def _distinct_rows_mask(rows: np.ndarray) -> np.ndarray:
    return (np.diff(rows, axis=1) > 0).all(axis=1)


def _dedupe(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``."""
    rows = _sort_rows(rows)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _draw_within(
    rng: np.random.Generator,
    blocks: list[np.ndarray],
    m: int,
    count: int,
) -> np.ndarray:
    """Uniformly draw ``count`` distinct m-sets, each inside a single block."""
    weights = np.array([math.comb(len(b), m) for b in blocks], dtype=object)
    total = int(sum(weights))
    if count == 0 or total == 0:
        return np.empty((0, m), dtype=np.int64)
    count = min(count, total)
    if total <= _ENUMERATION_CAP and count > total // 3:
        return _take_enumerated(rng, _within_enumeration(blocks, m), count)

    cum = np.cumsum([int(w) for w in weights])
    collected = np.empty((0, m), dtype=np.int64)
    while len(collected) < count:
        need = count - len(collected)
        batch = max(2 * need, 16)
        # choose blocks proportionally to their number of m-sets
        picks = np.searchsorted(cum, rng.integers(0, total, size=batch), side="right")
        draws = np.empty((batch, m), dtype=np.int64)
        for b in np.unique(picks):
            rows = np.flatnonzero(picks == b)
            verts = blocks[b]
            cand = rng.integers(0, len(verts), size=(len(rows), m))
            cand.sort(axis=1)
            draws[rows] = verts[cand]
        draws = draws[_distinct_rows_mask(draws)]
        collected = _dedupe(np.concatenate([collected, draws]))
    if len(collected) > count:
        keep = rng.choice(len(collected), size=count, replace=False)
        collected = collected[np.sort(keep)]
    return collected


def _draw_cross(
    rng: np.random.Generator,
    n: int,
    labels: np.ndarray,
    m: int,
    count: int,
    total: int,
) -> np.ndarray:
    """Uniformly draw ``count`` distinct m-sets spanning at least two blocks."""
    if count == 0 or total == 0:
        return np.empty((0, m), dtype=np.int64)
    count = min(count, total)
    if total <= _ENUMERATION_CAP and count > total // 3:
        return _take_enumerated(rng, _cross_enumeration(n, labels, m), count)

    collected = np.empty((0, m), dtype=np.int64)
    while len(collected) < count:
        need = count - len(collected)
        batch = max(2 * need, 16)
        draws = rng.integers(0, n, size=(batch, m))
        draws.sort(axis=1)
        draws = draws[_distinct_rows_mask(draws)]
        if len(draws):
            lab = labels[draws]
            draws = draws[(lab != lab[:, :1]).any(axis=1)]
        collected = _dedupe(np.concatenate([collected, draws]))
    if len(collected) > count:
        keep = rng.choice(len(collected), size=count, replace=False)
        collected = collected[np.sort(keep)]
    return collected


def sample_hsbm(params: ModelParams, seed: int) -> tuple[Hypergraph, np.ndarray]:
    """Draw one instance; returns the hypergraph and its planted labels.

    Within-block m-sets appear independently with probability
    ``a_m / comb(n, m-1)``, all other m-sets with ``b_m / comb(n, m-1)``;
    probabilities above 1 are clamped with a warning.  Deterministic in
    ``seed``.
    """
    n, k = params.n, params.k
    labels = ground_truth_labels(n, k)
    blocks = [np.flatnonzero(labels == b) for b in range(k)]
    edges: dict[int, np.ndarray] = {}
    for m in sorted(params.orders):
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        pa, pb = a / denom, b / denom
        if pa > 1.0 or pb > 1.0:
            log.warning("order %d: rate/comb(n, m-1) above 1, clamping", m)
            pa, pb = min(pa, 1.0), min(pb, 1.0)
        n_within = sum(math.comb(len(blk), m) for blk in blocks)
        n_cross = math.comb(n, m) - n_within

        rng_w = _stream(seed, m, 0)
        cnt_w = _binomial_count(rng_w, n_within, pa)
        within = _draw_within(rng_w, blocks, m, cnt_w)

        rng_c = _stream(seed, m, 1)
        cnt_c = _binomial_count(rng_c, n_cross, pb)
        cross = _draw_cross(rng_c, n, labels, m, cnt_c, n_cross)

        edges[m] = _sort_rows(np.concatenate([within, cross]))
    return Hypergraph(n, edges, None), labels


def color_edges(h: Hypergraph, seed: int) -> Hypergraph:
    """Color every edge red or blue independently with probability 1/2."""
    if h.is_colored:
        raise ValueError("hypergraph is already colored")
    colors = {}
    for m in sorted(h.edges):
        rng = _stream(seed, 101, m)
        colors[m] = rng.integers(0, 2, size=len(h.edges[m])).astype(np.uint8)
    return Hypergraph(h.n, dict(h.edges), colors)


def split_vertices(n: int, seed: int) -> SplitAssignment:
    """Assign each vertex Z vs Y by a fair coin, then Y1 vs Y2 inside Y."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _stream(seed, 202)
    in_z = rng.random(n) < 0.5
    in_y1 = rng.random(n) < 0.5
    side = np.where(in_z, SIDE_Z, np.where(in_y1, SIDE_Y1, SIDE_Y2))
    return SplitAssignment(side.astype(np.int8))


def subset_mask(n: int, vertex_set) -> np.ndarray:
    """Length-n boolean indicator of a vertex set (array or any iterable of ids).

    Raises ValueError on ids outside [0, n).
    """
    mask = np.zeros(n, dtype=bool)
    ids = np.asarray(list(vertex_set) if not isinstance(vertex_set, np.ndarray) else vertex_set,
                     dtype=np.int64)
    if len(ids):
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError("vertex set contains out-of-range ids")
        mask[ids] = True
    return mask


def restrict(h: Hypergraph, vertex_set) -> Hypergraph:
    """Induced sub-hypergraph: keep edges with every endpoint in the set.

    Vertex ids are preserved (no re-indexing); colors ride with edges.
    """
    mask = subset_mask(h.n, vertex_set)
    edges = {}
    colors = {} if h.is_colored else None
    for m, arr in h.edges.items():
        keep = mask[arr].all(axis=1) if len(arr) else np.zeros(0, dtype=bool)
        edges[m] = arr[keep]
        if colors is not None:
            colors[m] = h.colors[m][keep]
    return Hypergraph(h.n, edges, colors)


def restrict_orders(h: Hypergraph, subset) -> Hypergraph:
    """Keep only the edges whose order lies in ``subset``."""
    wanted = set(int(m) for m in subset)
    edges = {m: arr for m, arr in h.edges.items() if m in wanted}
    colors = None
    if h.is_colored:
        colors = {m: h.colors[m] for m in edges}
    return Hypergraph(h.n, edges, colors)
