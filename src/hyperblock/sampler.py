"""Sampling of non-uniform hypergraph block-model instances.

Every m-set is an edge on its own: with probability ``p_a`` inside a block
and ``p_b`` across blocks.  Blocks are contiguous id ranges, so each block
draws a Bernoulli(p_a) subset of the m-sets of ``range(|B|)`` and shifts
it by the block's first id; the cross stratum draws a Bernoulli(p_b)
subset of all m-sets of ``range(n)`` and drops the rows that fall inside
one block, which thins it exactly.  A Bernoulli(p) subset of N sets is an
exact Binomial(N, p) count, then that many distinct ranks in ``range(N)``,
then colex unranking through the combinatorial number system (Batagelj &
Brandes 2005, "Efficient generation of large random networks").  Nothing
is enumerated, rejected or redrawn.

Each order's rows are returned in lexicographic order.  A drawn row is
kept only as one int64 key, minus the colex rank of its reflection
n - 1 - c, whose ascending order is the rows' lexicographic one; the keys
are sorted in place and the rows decoded from them.  Ranks are unranked
and keys decoded a block at a time, so next to one block the sampler
holds one stratum's ranks, the keys and the final rows.

All randomness flows through counter-based Philox generators keyed by
``(seed, role, ...)`` so samples, colorings, and splits are reproducible
and independent trials can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, block_sizes, ground_truth_labels

__all__ = [
    "RED",
    "BLUE",
    "SIDE_Z",
    "SIDE_Y1",
    "SIDE_Y2",
    "UNASSIGNED",
    "trial_seed",
    "Hypergraph",
    "ground_truth_labels",
    "sample_hsbm",
    "color_edges",
    "split_vertices",
    "subset_mask",
    "restrict",
    "restrict_orders",
]

RED = 0
BLUE = 1

SIDE_Z = 0
SIDE_Y1 = 1
SIDE_Y2 = 2

UNASSIGNED = -1

# the most sets one binomial draw covers; ranks must fit int64, so a
# stratum is drawn over a range of fewer than 2**63 sets
_RANK_PART = 2**62
# the most ranks unranked at once, which bounds the sampler's int64 temporaries
_BLOCK = 2**13
# the largest j for which _comb steps from C(c, 2) without per-element limits
_STEP_MAX = 34


def _id_dtype(n: int) -> type:
    """dtype of the edge arrays of an n-vertex hypergraph: int32 when n < 2**31, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _stream(seed: int, *tags: int) -> np.random.Generator:
    """Philox stream keyed by (seed, tags...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def trial_seed(base: int, *indices: int) -> int:
    """Stable 64-bit seed derived from a base seed and trial coordinates."""
    ss = np.random.SeedSequence(entropy=int(base),
                                spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus per-order edge arrays, optionally red/blue colored.

    ``edges[m]`` is a (num_edges, m) integer array whose rows are strictly
    ascending vertex tuples, sorted lexicographically.  The sampler and the
    reader give int32 arrays when n < 2**31 and int64 arrays otherwise
    (``_id_dtype``); every stage takes either.  ``colors[m]`` is a
    parallel uint8 array with values RED/BLUE, or None when uncolored.
    """

    n: int
    edges: dict[int, np.ndarray]
    colors: dict[int, np.ndarray] | None = None

    @property
    def is_colored(self) -> bool:
        return self.colors is not None

    def num_edges(self, m: int | None = None) -> int:
        if m is not None:
            return len(self.edges.get(m, ()))
        return sum(len(e) for e in self.edges.values())

    def degrees(self) -> np.ndarray:
        """Per vertex, the sum of m - 1 over its order-m edges (int64).

        These are the row sums of ``spectral.adjacency(self)``.
        """
        deg = np.zeros(self.n, dtype=np.int64)
        for m, arr in self.edges.items():
            deg += (m - 1) * np.bincount(arr.ravel(), minlength=self.n)
        return deg

    def only_color(self, color: int) -> "Hypergraph":
        """Uncolored sub-hypergraph holding just the edges of one color.

        Each call copies that color's edges, so a caller that reads a half
        more than once splits it once and passes it on.
        """
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


def _row_order(rows: np.ndarray) -> np.ndarray | None:
    """Stable permutation that sorts the rows of an (E, m) array lexicographically.

    None when the rows are in order already (as the writer emits them),
    which is found without a sort.
    """
    ordered = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for above, below in zip(rows[:-1].T[::-1], rows[1:].T[::-1]):
        ordered = (above < below) | ((above == below) & ordered)
    if ordered.all():
        return None
    return np.lexsort(rows.T[::-1])


def _has_repeats(rows: np.ndarray) -> bool:
    """Whether a row of lexicographically sorted rows equals the one before it.

    Compares a column at a time, so no (E, m) temporary is made.
    """
    same = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for col in rows.T:
        same &= col[1:] == col[:-1]
    return bool(same.any())


def _binomial_count(rng: np.random.Generator, size: int, p: float) -> int:
    if size == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return size
    return int(rng.binomial(size, p))


def _bernoulli_ranks(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Ranks of a Bernoulli(p) subset of ``range(total)``, in no set order.

    An exact binomial count, then that many distinct ranks.  A range above
    ``_RANK_PART`` is drawn part by part, since Binomial(N1 + N2, p) is
    Binomial(N1, p) + Binomial(N2, p).
    """
    if total >= 2**63:
        raise ValueError("stratum too large for an exact binomial draw")
    parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, total, _RANK_PART):
        size = min(total - lo, _RANK_PART)
        count = _binomial_count(rng, size, p)
        parts.append(lo + rng.choice(size, count, replace=False, shuffle=False))
    return np.concatenate(parts)


def _comb_step(out: np.ndarray, c: np.ndarray, i: int) -> np.ndarray:
    """Elementwise C(c, i + 1) from out = C(c, i), exact in int64.

    The product C(c, i) (c - i) / (i + 1) is split as
    q (c - i) + s (c - i) / (i + 1) for C(c, i) = q (i + 1) + s, so no
    intermediate exceeds the result or (i + 1) c; both quotients are exact.
    """
    q = out // (i + 1)
    s = out - q * (i + 1)
    f = c - i
    return q * f + s * f // (i + 1)


def _comb(c: np.ndarray, j: int) -> np.ndarray:
    """Elementwise C(c, j) for int64 ``c >= 0`` and ``j >= 1``, exact when the result fits int64.

    C(c, 2) is the product of its two halved factors, floor(c / 2) and
    the odd one of c - 1 and c, and ``_comb_step`` takes it on to C(c, j).
    An intermediate C(c, i), i < j, exceeds the result only when
    c <= 2j - 2, and then it is at most C(2j - 2, j - 1), which fits int64
    up to j = ``_STEP_MAX``.  Beyond it, or when every c is so close to j
    that C(c, j) = C(c, c - j) takes less than half the steps, each element
    steps to min(j, c - j) instead.
    """
    if j == 1:
        return c.copy()
    if j == 2:
        return (c >> 1) * ((c - 1) | 1)
    steps = min(j, int(c.max(initial=0)) - j)
    if j <= _STEP_MAX and 2 * steps >= j - 2:
        out = (c >> 1) * ((c - 1) | 1)
        for i in range(2, j):
            out = _comb_step(out, c, i)
        return out
    t = np.minimum(j, c - j)
    out = (t >= 0).astype(np.int64)
    for i in range(steps):
        # an element past its own t steps by (i + 1) / (i + 1)
        out = _comb_step(out, np.where(i < t, c, 2 * i + 1), i)
    return out


def _unrank(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Rows of the m-subsets of ``range(n)`` with the given colex ranks.

    A rank is C(c_m, m) + ... + C(c_1, 1) with c_1 < ... < c_m, the row's
    ascending entries.  Each c_j is the largest c with C(c, j) <= the
    remaining rank r, which is below C(c_(j+1), j).  j! C(c, j) is the
    product of c - i over i < j, and that is about y^j - (j^3 - j) y^(j-2)
    / 24 for y = c - (j - 1)/2, so with x the float root of j! r,
    c_j is about x + (j - 1)/2 + (j^2 - 1) / (24 x) (for j = 2 exactly
    1/2 + sqrt(2r + 1/4)); clipped to [j - 1, c_(j+1) - 1], its floor is
    c_j except after rounding, or for c close to j, where it can be off by
    a step.  One exact evaluation per level gives C(c, j - 1) and C(c, j),
    and so C(c + 1, j) = C(c, j) + C(c, j - 1); only the elements these
    show off step towards c_j, one at a time, and are evaluated again.
    Every C(c, j) taken is at most C(n, m), so it fits int64.
    """
    rows = np.empty((len(ranks), m), dtype=np.int64)
    r = np.array(ranks, dtype=np.int64)
    hi = n - 1
    for j in range(m, 1, -1):
        if j == 2:
            root = np.sqrt(2.0 * r + 0.25) + 0.5
        else:
            x = np.exp((np.log(np.maximum(r, 1)) + math.lgamma(j + 1)) / j)
            root = x + (j - 1) / 2 + (j * j - 1) / (24 * x)
        c = np.clip(np.floor(root).astype(np.int64), j - 1, hi)
        below = _comb(c, j - 1)
        at = _comb_step(below, c, j - 1)
        off = np.flatnonzero((at > r) | (at + below <= r))
        while len(off):
            # one step towards c_j, down where C(c, j) > r and up where C(c + 1, j) <= r
            c[off] += 1 - 2 * (at[off] > r[off])
            b = _comb(c[off], j - 1)
            at[off] = a = _comb_step(b, c[off], j - 1)
            off = off[(a > r[off]) | (a + b <= r[off])]
        rows[:, j - 1] = c
        r -= at
        hi = c - 1
    rows[:, 0] = r  # C(c, 1) = c
    return rows


def _lex_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Int64 keys of ascending rows of ids in ``range(n)``, in the rows' lexicographic order.

    A row's key is minus the colex rank of the reflected row n - 1 - c,
    whose largest entry comes from c_1; it lies in (-C(n, m), 0].
    """
    m = rows.shape[1]
    keys = rows[:, -1] - (n - 1)
    for j in range(2, m + 1):
        keys -= _comb(n - 1 - rows[:, m - j], j)
    return keys


def _stratum_keys(ranks: np.ndarray, size: int, m: int, start: int, n: int,
                  labels: np.ndarray | None = None) -> list[np.ndarray]:
    """``_lex_keys`` of the rows ``start + _unrank(ranks, size, m)``, a block of ranks at a time.

    With ``labels``, the rows that lie inside one block are dropped first.
    """
    keys = []
    for lo in range(0, len(ranks), _BLOCK):
        rows = start + _unrank(ranks[lo:lo + _BLOCK], size, m)
        if labels is not None:
            # blocks are contiguous, so a sorted row lies in one block iff its ends do
            rows = rows[labels[rows[:, 0]] != labels[rows[:, -1]]]
        keys.append(_lex_keys(rows, n))
    return keys


def sample_hsbm(params: ModelParams, seed: int) -> tuple[Hypergraph, np.ndarray]:
    """Draw one instance; returns the hypergraph and its planted labels.

    Within-block m-sets appear independently with probability
    ``a_m / comb(n, m-1)``, all other m-sets with ``b_m / comb(n, m-1)``.
    Deterministic in ``seed``.
    """
    n, k = params.n, params.k
    sizes = block_sizes(n, k).tolist()
    starts = [sum(sizes[:b]) for b in range(k)]
    labels = ground_truth_labels(n, k)
    edges: dict[int, np.ndarray] = {}
    for m in sorted(params.orders):
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        pa, pb = a / denom, b / denom

        # the keys lie in (-C(n, m), 0], which fits int64 whenever the cross
        # stratum can be drawn; when it is refused, the keys go with the error
        keys = [np.empty(0, dtype=np.int64)]
        rng_w = _stream(seed, m, 0)
        for start, size in zip(starts, sizes):
            keys += _stratum_keys(_bernoulli_ranks(rng_w, math.comb(size, m), pa),
                                  size, m, start, n)
        rng_c = _stream(seed, m, 1)
        keys += _stratum_keys(_bernoulli_ranks(rng_c, math.comb(n, m), pb), n, m, 0, n, labels)

        keys = np.concatenate(keys)
        keys.sort()
        rows = np.empty((len(keys), m), dtype=_id_dtype(n))
        for lo in range(0, len(keys), _BLOCK):
            rows[lo:lo + _BLOCK] = n - 1 - _unrank(-keys[lo:lo + _BLOCK], n, m)[:, ::-1]
        edges[m] = rows
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


def split_vertices(n: int, seed: int) -> np.ndarray:
    """Int8 side labels in {SIDE_Z, SIDE_Y1, SIDE_Y2}, one per vertex.

    A fair coin puts each vertex in Z or Y, and a second one puts each
    vertex of Y in Y1 or Y2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _stream(seed, 202)
    in_z = rng.random(n) < 0.5
    in_y1 = rng.random(n) < 0.5
    side = np.where(in_z, SIDE_Z, np.where(in_y1, SIDE_Y1, SIDE_Y2))
    return side.astype(np.int8)


def subset_mask(n: int, vertex_set) -> np.ndarray:
    """Length-n boolean indicator of a vertex set (array or any iterable of ids).

    Raises ValueError on ids outside [0, n), and on a nonempty set whose
    ids are not of an integer type (a boolean mask or float ids).
    """
    mask = np.zeros(n, dtype=bool)
    ids = np.asarray(vertex_set if isinstance(vertex_set, np.ndarray) else list(vertex_set))
    if len(ids):
        if ids.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got dtype {ids.dtype}")
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
    """Keep only the edges whose order lies in ``subset``.

    A hypergraph with no edge array of another order is returned as it is.
    """
    wanted = set(int(m) for m in subset)
    if wanted.issuperset(h.edges):
        return h
    edges = {m: arr for m, arr in h.edges.items() if m in wanted}
    colors = None
    if h.is_colored:
        colors = {m: h.colors[m] for m in edges}
    return Hypergraph(h.n, edges, colors)
