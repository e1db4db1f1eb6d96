"""Detection pipeline stages: unit cases, brute-force oracles, planted runs."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hyperblock import model, pipeline
from hyperblock.metrics import accuracy_report, matched_accuracy
from hyperblock.model import ModelParams, merging_threshold
from hyperblock.pipeline import (
    PartitionFailure,
    PipelineConfig,
    blue_weighted_count,
    centering_vector,
    correction_2,
    correction_k,
    merging,
    partition,
    spectral_partition_2,
    spectral_partition_k,
    _neighbor_scores,
    _sampled_rows,
    _top_positions,
)
from hyperblock.spectral import adjacency, bipartite_embed, regularize
from hyperblock.sampler import (
    BLUE,
    RED,
    Hypergraph,
    color_edges,
    restrict,
    restrict_orders,
    sample_hsbm,
    split_vertices,
)
from oracles import regularize_matrix, side_ids


def colored(n, edges, colors):
    earr = {m: np.array(rows, dtype=np.int64).reshape(len(rows), m)
            for m, rows in edges.items()}
    carr = {m: np.array(colors[m], dtype=np.uint8) for m in earr}
    return Hypergraph(n, earr, carr)


def membership(n, sets):
    """n x len(sets) boolean matrix whose column j marks the ids in sets[j]."""
    return np.stack([np.isin(np.arange(n), x) for x in sets], axis=1)


def columns(members):
    """The ids each column of a membership matrix marks, ascending."""
    return [np.flatnonzero(col) for col in members.T]


def packed_sets(n, sets):
    """The sets in the stages' packed form: n x ceil(s/8) bytes, np.packbits order."""
    return np.packbits(membership(n, sets), axis=1)


def unpacked(packed, s):
    """The n x s membership matrix of s packed sets."""
    return np.unpackbits(packed, axis=1, count=s).astype(bool)


def labeling(n, sets):
    """Labels putting the ids of the disjoint sets[i] in set i, -1 elsewhere."""
    labels = np.full(n, -1, dtype=np.int64)
    for i, ids in enumerate(sets):
        labels[ids] = i
    return labels


def count(h_blue, members):
    """blue_weighted_count of the sets of an n x s membership matrix."""
    return blue_weighted_count(h_blue, np.packbits(members, axis=1), members.shape[1])


def stage_inputs(hcol, params):
    """The selected orders' red and blue halves and the subset, as partition
    passes them to the spectral stages."""
    subset = model.preprocess_select(params)
    h = restrict_orders(hcol, subset)
    return h.red(), h.blue(), subset


def partition_k(hcol, side, params, cfg):
    h_red, h_blue, subset = stage_inputs(hcol, params)
    return spectral_partition_k(h_red, h_blue, side, params, subset, cfg)


def incidence(h):
    """Edge x vertex 0/1 incidence matrix and the order of each row.

    Rows run through the orders in ascending order and, within one order,
    follow ``h.edges[m]``.  ``inc @ X`` counts the endpoints of every edge
    inside each column set of a 0/1 matrix X: the oracle of the blue count
    and of the neighbor votes.
    """
    orders = sorted(m for m, arr in h.edges.items() if len(arr))
    sizes = np.repeat(np.array(orders, dtype=np.int64),
                      [len(h.edges[m]) for m in orders])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = (np.concatenate([h.edges[m].ravel() for m in orders]) if orders
               else np.empty(0, dtype=np.int64))
    data = np.ones(len(indices), dtype=np.int64)
    return sp.csr_array((data, indices, indptr), shape=(len(sizes), h.n)), sizes


class TestIncidence:
    def test_gram_off_diagonal_is_adjacency(self):
        h, _ = sample_hsbm(ModelParams(40, 2, {2: (8, 3), 3: (5, 2)}), 2)
        inc, _ = incidence(h)
        gram = (inc.T @ inc).toarray()
        np.fill_diagonal(gram, 0)
        assert (gram == adjacency(h).toarray()).all()


class TestCenteringVector:
    def test_hand_value(self):
        p = ModelParams(80, 2, {2: (40, 8)})
        z = np.arange(10)
        vec = centering_vector(p, (2,), z)
        assert vec[0] == pytest.approx(0.3)
        assert vec[10] == 0.0

    def test_empty_z(self):
        p = ModelParams(80, 2, {2: (40, 8)})
        assert (centering_vector(p, (2,), []) == 0).all()

    def test_equal_rates_constant(self):
        p = ModelParams(64, 2, {2: (6, 6), 3: (4, 4)})
        vec = centering_vector(p, (2, 3), np.arange(32))
        # alpha_bar equals beta_bar, so the value is just their common rate
        want = sum(math.comb(48 - 2, m - 2) * b / math.comb(64, m - 1)
                   for m, (a, b) in p.orders.items())
        assert vec[0] == pytest.approx(want)


class TestBlueWeightedCount:
    def test_single_inside_edge(self):
        h = colored(6, {3: [[0, 1, 2]]}, {3: [BLUE]})
        sets = membership(6, [[0, 1, 2, 3], [0, 1]])
        assert count(h.blue(), sets).tolist() == [6.0, 0.0]

    def test_no_blue_edges(self):
        h = colored(6, {3: [[0, 1, 2]]}, {3: [RED]})
        assert count(h.blue(), membership(6, [[0, 1, 2]])).tolist() == [0.0]

    def test_brute_force_agreement(self):
        h, _ = sample_hsbm(ModelParams(40, 2, {2: (10, 4), 3: (8, 3), 4: (6, 2)}), 5)
        blue = color_edges(h, 1).blue()
        rng = np.random.default_rng(2)
        sets = [rng.choice(40, size=size, replace=False) for size in (12, 20, 20, 30, 40)]
        want = [sum(m * (m - 1)
                    for m, arr in blue.edges.items()
                    for row in arr if set(row.tolist()) <= set(x.tolist()))
                for x in sets]
        assert count(blue, membership(40, sets)).tolist() == want

    def test_edgeless(self):
        h = colored(5, {2: [], 3: []}, {2: [], 3: []})
        sets = membership(5, [[0, 1], [2, 3, 4]])
        assert count(h.blue(), sets).tolist() == [0.0, 0.0]

    @staticmethod
    def incidence_oracle(h_blue, members):
        """The count as an int64 edge x set product: an edge lies in a set
        when all m of its endpoints do."""
        inc, order = incidence(h_blue)
        inside = inc @ members.astype(np.int64)
        return (order * (order - 1)) @ (inside == order[:, None]).astype(np.float64)

    @staticmethod
    def random_case(rng, n, s, empty=0):
        """A blue half and the n x s membership matrix of s sets on a random
        two-thirds of the vertices."""
        h, _ = sample_hsbm(ModelParams(n, 2, {2: (30, 10), 3: (20, 6), 4: (12, 4)}),
                           int(rng.integers(1 << 30)))
        blue = color_edges(h, int(rng.integers(1 << 30))).blue()
        z = rng.permutation(n)[:2 * n // 3]
        members = np.zeros((n, s), dtype=bool)
        members[z] = rng.random((len(z), s)) < rng.uniform(0.3, 0.9, size=s)
        members[:, rng.permutation(s)[:empty]] = False
        return blue, members

    @pytest.mark.parametrize("s", [1, 7, 8, 9, 589])
    def test_equals_incidence_oracle(self, s):
        rng = np.random.default_rng(s)
        for trial in range(3):
            blue, members = self.random_case(rng, 60, s, empty=min(trial, s))
            assert sorted(blue.edges) == [2, 3, 4]
            got = count(blue, members)
            assert got.dtype == np.float64
            assert np.array_equal(got, self.incidence_oracle(blue, members))

    def test_empty_sets_and_edgeless_hypergraph(self):
        rng = np.random.default_rng(1)
        blue, members = self.random_case(rng, 60, 9)
        assert np.array_equal(count(blue, np.zeros_like(members)), np.zeros(9))
        edgeless = Hypergraph(60, {2: np.empty((0, 2), dtype=np.int64)})
        assert np.array_equal(count(edgeless, members), np.zeros(9))
        assert count(blue, members[:, :0]).shape == (0,)

    @pytest.mark.parametrize("block", [1, 9, 100])
    def test_many_edge_blocks(self, monkeypatch, block):
        blue, members = self.random_case(np.random.default_rng(block), 60, 9)
        want = self.incidence_oracle(blue, members)
        monkeypatch.setattr(pipeline, "_COUNT_BLOCK", block)
        assert np.array_equal(count(blue, members), want)

    def test_peak_memory_bounded_by_the_union_and_one_block(self):
        # the packed sets are read as given: no copy of their n x s/8 bytes
        n, s = 6000, 1600
        h, _ = sample_hsbm(ModelParams(n, 3, {2: (60, 4), 3: (40, 4)}), 8)
        blue = color_edges(h, 9).blue()
        rng = np.random.default_rng(3)
        packed = np.zeros((n, s // 8), dtype=np.uint8)
        packed[rng.permutation(n)[:n // 2]] = rng.integers(256, size=(n // 2, s // 8))
        tracemalloc.start()
        try:
            blue_weighted_count(blue, packed, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert packed.nbytes > n + 2 * pipeline._COUNT_BLOCK
        assert peak < n + 2 * pipeline._COUNT_BLOCK


def neighbor_scores(h, sets):
    return _neighbor_scores(h, packed_sets(h.n, sets), len(sets))


class TestWeightedRedNeighbors:
    """(m-1)-weighted red-neighbor counts, the vote of the correction stages."""

    def test_single_edge(self):
        h = colored(6, {3: [[0, 1, 2]]}, {3: [RED]})
        assert neighbor_scores(h.red(), [[1, 2]])[0, 0] == 2

    def test_empty_target(self):
        h = colored(6, {3: [[0, 1, 2]]}, {3: [RED]})
        assert (neighbor_scores(h.red(), [[]]) == 0).all()

    def test_member_counts_its_other_endpoints(self):
        # vertex 0 belongs to the set; its edges need only their other ends in it
        h = colored(6, {2: [[0, 1], [0, 3]], 3: [[0, 1, 2]]}, {2: [RED, RED], 3: [RED]})
        scores = neighbor_scores(h.red(), [[0, 1, 2]])
        assert scores[:, 0].tolist() == [1 + 2, 1 + 2, 2, 1, 0, 0]

    def test_brute_force_agreement(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (8, 3), 3: (6, 2), 4: (5, 2)}), 9)
        red = color_edges(h, 4).red()
        assert set(red.edges) == {2, 3, 4} and all(len(a) for a in red.edges.values())
        rng = np.random.default_rng(3)
        sets = [set(rng.choice(30, size=size, replace=False).tolist()) for size in (5, 10, 20)]
        got = neighbor_scores(red, [sorted(x) for x in sets])
        for u in range(30):
            for i, target in enumerate(sets):
                want = sum((m - 1)
                           for m, arr in red.edges.items()
                           for row in arr
                           if u in row and set(row.tolist()) - {u} <= target)
                assert got[u, i] == want

    def test_edgeless(self):
        h = Hypergraph(4, {2: np.empty((0, 2), dtype=np.int64)})
        assert neighbor_scores(h, [[0, 1], [2]]).tolist() == [[0, 0]] * 4

    @staticmethod
    def incidence_oracle(h, members):
        """The scores from edge x set and vertex x set products: an edge has
        the rest of its endpoints in a set when m of its endpoints lie there
        if v does, and m - 1 if v does not."""
        inc, order = incidence(h)
        inside = inc @ members
        weight = (order - 1)[:, None]
        with_v = inc.T @ (weight * (inside == order[:, None]))
        without_v = inc.T @ (weight * (inside == order[:, None] - 1))
        return np.where(members, with_v, without_v)

    @pytest.mark.parametrize("s", [1, 2, 3, 7, 9, 16])
    def test_equals_incidence_oracle(self, s):
        rng = np.random.default_rng(s)
        params = ModelParams(40, 2, {2: (12, 4), 3: (10, 3), 4: (8, 2), 5: (6, 2)})
        for trial in range(4):
            h, _ = sample_hsbm(params, int(rng.integers(1 << 30)))
            assert sorted(h.edges) == [2, 3, 4, 5] and all(len(a) for a in h.edges.values())
            if trial == 3:  # an order with no edges
                h = Hypergraph(40, {**h.edges, 3: np.empty((0, 3), dtype=np.int64)})
            members = rng.random((40, s)) < rng.uniform(0.2, 0.9, size=s)
            members[:, rng.permutation(s)[:min(trial, s)]] = False  # empty sets
            got = _neighbor_scores(h, np.packbits(members, axis=1), s)
            want = self.incidence_oracle(h, members)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_peak_memory_bounded_by_one_order(self):
        n, s = 6000, 3
        h, _ = sample_hsbm(ModelParams(n, 3, {2: (60, 4), 3: (40, 4)}), 8)
        packed = np.packbits(np.random.default_rng(3).random((n, s)) < 0.4, axis=1)
        tracemalloc.start()
        try:
            _neighbor_scores(h, packed, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int64 scores; for the order with most edges, the packed AND of
        # one endpoint column and its operand, their unpacked edge x set
        # bits and one set's edge ids; and two int64 bincounts.  No edge x
        # set count is made
        most = max(len(rows) for rows in h.edges.values())
        assert peak < 8 * n * s + most * (2 * math.ceil(s / 8) + s + 8) + 2 * 8 * n + (1 << 16)

    def test_memory_at_n_20000(self):
        # 4.5 MiB when the scores summed an E x s int32 count of endpoints
        n = 20000
        params = ModelParams(n, 3, {2: (80, 2), 3: (40, 2)})
        h, _ = sample_hsbm(params, 1)
        red = stage_inputs(color_edges(h, 2), params)[0]
        del h
        packed = np.packbits(np.random.default_rng(0).random((n, 3)) < 0.3, axis=1)
        tracemalloc.start()
        try:
            _neighbor_scores(red, packed, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def planted_k3(n=900, seed=0):
    params = ModelParams(n, 3, {2: (60, 2), 3: (60, 2)})
    h, truth = sample_hsbm(params, seed)
    cfg = PipelineConfig(nu=0.75, seed=seed + 1000)
    hcol = color_edges(h, seed + 2000)
    side = split_vertices(n, seed + 3000)
    return params, hcol, side, truth, cfg


def dense_candidate_sets(a2, basis, side, params, cfg):
    """Candidate sets by the n x s formula: centered sampled columns projected
    onto the basis, each ranked over Z by a stable descending argsort."""
    n, k = params.n, params.k
    z, _, y2 = side_ids(side)
    s = min(math.ceil(2 * k * math.log(n) ** 2), len(y2))
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(4,))))
    sampled = rng.choice(y2, size=s, replace=False)
    subset = model.preprocess_select(params)
    centered = a2[:, sampled].toarray() - 0.5 * centering_vector(params, subset, z)[:, None]
    proj_z = (basis.vectors @ (basis.vectors.T @ centered))[z]
    size = n // (2 * k)
    return [np.sort(z[np.argsort(-proj_z[:, j], kind="stable")[:size]]) for j in range(s)]


def scored_and_dense_sets(monkeypatch, hcol, side, params, cfg):
    """The sets spectral_partition_k scores, and dense_candidate_sets on its
    own subspace and the red Z x Y2 adjacency."""
    seen = {}

    def spy(name):
        fn = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append((args, fn(*args, **kwargs)))
            return seen[name][-1][1]
        monkeypatch.setattr(pipeline, name, wrapped)

    for name in ("top_subspace", "blue_weighted_count"):
        spy(name)
    try:
        partition_k(hcol, side, params, cfg)
    except PartitionFailure:
        pass
    monkeypatch.undo()
    _, packed, s = seen["blue_weighted_count"][0][0]
    got = columns(unpacked(packed, s))
    h_red = stage_inputs(hcol, params)[0]
    z, _, y2 = side_ids(side)
    a2 = bipartite_embed(adjacency(restrict(h_red, np.concatenate([z, y2]))), z, y2)
    return got, dense_candidate_sets(a2, seen["top_subspace"][0][1], side, params, cfg)


class TestTopPositions:
    @staticmethod
    def oracle(scores, size):
        want = np.zeros(scores.shape, dtype=bool)
        for row, vals in zip(want, scores):
            row[np.argsort(-vals, kind="stable")[:size]] = True
        return want

    def test_all_equal(self):
        scores = np.full((2, 7), 0.25)
        got = _top_positions(scores, 3)
        assert (got == self.oracle(scores, 3)).all()
        assert got[0].tolist() == [True] * 3 + [False] * 4

    def test_zero_ties_straddle_cut(self):
        scores = np.array([[0.0, 2.0, -0.0, 0.0, -1.0, 0.0, 3.0],
                           [-0.0, -1.0, 0.0, 1.0, 0.0, -2.0, 0.0]])
        for size in range(1, 8):
            assert (_top_positions(scores, size) == self.oracle(scores, size)).all()
        assert np.flatnonzero(_top_positions(scores, 4)[0]).tolist() == [0, 1, 2, 6]

    def test_cut_on_last_position(self):
        scores = np.array([[3.0, 0.0, 2.0, 1.0], [1.0, 0.5, 2.0, 0.5]])
        for size in range(1, 5):
            assert (_top_positions(scores, size) == self.oracle(scores, size)).all()
        got = _top_positions(scores, 3)
        assert np.flatnonzero(got[0]).tolist() == [0, 2, 3]  # the cut value is last
        assert np.flatnonzero(got[1]).tolist() == [0, 1, 2]  # ...or tied with the last

    def test_random_tied_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cols = int(rng.integers(1, 30))
            scores = rng.integers(-3, 4, size=(3, cols)) / 2.0
            size = int(rng.integers(1, cols + 1))
            assert (_top_positions(scores, size) == self.oracle(scores, size)).all()


def assert_same_csr(got, want):
    """Same shape, and the same indptr, indices and data, dtypes included."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def block_oracle(h_red, side, threshold):
    """The regularized Z x Y1 block through the whole symmetric adjacency."""
    z, y1, _ = side_ids(side)
    a, kept = regularize_matrix(adjacency(restrict(h_red, np.concatenate([z, y1]))), threshold)
    return bipartite_embed(a, z, y1), kept


def bipartite_block(h_red, z, y1, threshold):
    """The regularized Z x Y1 block as spectral_partition_k counts it."""
    return regularize(restrict(h_red, np.concatenate([z, y1])), threshold, z, y1)


def rows_oracle(h_red, side, sampled):
    """The sampled rows, Z columns, of the whole red adjacency induced on Z u Y2."""
    z, _, y2 = side_ids(side)
    return adjacency(restrict(h_red, np.concatenate([z, y2])))[sampled][:, z]


class TestRedBlocks:
    """The matrices the spectral stages read, counted from the red edges."""

    MODELS = [(300, 3, {2: (30, 3)}), (300, 3, {3: (20, 3)}), (200, 4, {2: (20, 3), 4: (10, 2)}),
              (150, 3, {2: (10, 1), 5: (8, 2)}), (400, 4, {2: (30, 2), 3: (20, 2), 4: (8, 1)})]

    @staticmethod
    def red_half(n, k, orders, seed=1):
        params = ModelParams(n, k, orders)
        h, _ = sample_hsbm(params, seed)
        return params, color_edges(h, seed + 1).red(), split_vertices(n, seed + 2)

    @staticmethod
    def assert_regularized_adjacency(h_red, threshold):
        """The k = 2 matrix equals mask_matrix(adjacency(h_red), kept), with the same kept."""
        reg, kept = regularize(h_red, threshold)
        want, want_kept = regularize_matrix(adjacency(h_red), threshold)
        assert_same_csr(reg, want)
        assert np.array_equal(kept, want_kept)

    @pytest.mark.parametrize("n, k, orders", MODELS)
    @pytest.mark.parametrize("threshold", ["model", 10, 3, 0])
    def test_block_equals_masked_adjacency(self, n, k, orders, threshold):
        params, h_red, side = self.red_half(n, k, orders)
        if threshold == "model":
            threshold = model.regularization_threshold(params, tuple(sorted(orders)))
        z, y1, _ = side_ids(side)
        block, kept = bipartite_block(h_red, z, y1, threshold)
        want, want_kept = block_oracle(h_red, side, threshold)
        assert_same_csr(block, want)
        assert np.array_equal(kept, want_kept)
        self.assert_regularized_adjacency(h_red, threshold)

    def test_thresholds_drop_rows(self):
        # the thresholds above exercise the mask: 3 keeps some entries, 0 none
        params, h_red, side = self.red_half(*self.MODELS[0])
        z, y1, _ = side_ids(side)
        full = bipartite_block(h_red, z, y1, np.inf)[0].nnz
        assert 0 == bipartite_block(h_red, z, y1, 0)[0].nnz
        assert 0 < bipartite_block(h_red, z, y1, 3)[0].nnz < full
        whole = regularize(h_red, np.inf)[0].nnz
        assert 0 == regularize(h_red, 0)[0].nnz
        assert 0 < regularize(h_red, 3)[0].nnz < whole

    @pytest.mark.parametrize("n, k, orders", MODELS)
    def test_sampled_rows_equal_adjacency_rows(self, n, k, orders):
        _, h_red, side = self.red_half(n, k, orders)
        z, _, y2 = side_ids(side)
        for s in (1, 7, len(y2)):
            sampled = np.random.default_rng(s).choice(y2, size=s, replace=False)
            rows = _sampled_rows(h_red, z, y2, sampled)
            assert_same_csr(rows, rows_oracle(h_red, side, sampled))
            assert rows.nnz > 0 or s == 1

    def test_empty_red_half_and_order_without_induced_edge(self):
        n = 60
        side = split_vertices(n, 2)
        z, y1, y2 = side_ids(side)
        cross = np.array([[z[0], y1[0], y2[0]]])  # inside neither Z u Y1 nor Z u Y2
        halves = [
            Hypergraph(n, {}),
            Hypergraph(n, {3: np.zeros((0, 3), dtype=np.int32)}),
            Hypergraph(n, {2: np.sort([[z[0], y1[0]], [z[1], y2[0]]], axis=1),
                           3: np.sort(cross, axis=1)}),
        ]
        for h_red in halves:
            for threshold in (0, 10):
                block, kept = bipartite_block(h_red, z, y1, threshold)
                want, want_kept = block_oracle(h_red, side, threshold)
                assert_same_csr(block, want)
                assert np.array_equal(kept, want_kept)
                self.assert_regularized_adjacency(h_red, threshold)
            assert_same_csr(_sampled_rows(h_red, z, y2, y2[:3]), rows_oracle(h_red, side, y2[:3]))


class TestSpectralPartitionK:
    @pytest.mark.parametrize("orders", [{2: (60, 2), 3: (60, 2)}, {2: (30, 5), 3: (20, 5)},
                                        {3: (6, 3)}])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sets_match_dense_formula(self, monkeypatch, orders, seed):
        n = 1500
        params = ModelParams(n, 3, orders)
        h, _ = sample_hsbm(params, seed)
        cfg = PipelineConfig(nu=0.75, seed=seed + 1000)
        got, want = scored_and_dense_sets(monkeypatch, color_edges(h, seed + 2000),
                                          split_vertices(n, seed + 3000), params, cfg)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(np.sort(a), b)

    def test_memory_below_an_n_by_s_mask(self):
        # the candidate sets live on Z: no n x s array, not even a boolean one
        n, k = 12000, 3
        params = ModelParams(n, k, {2: (80, 2), 3: (40, 2)})
        h, _ = sample_hsbm(params, 1)
        h_red, h_blue, subset = stage_inputs(color_edges(h, 2), params)
        side = split_vertices(n, 3)
        s = min(math.ceil(2 * k * math.log(n) ** 2), len(side_ids(side)[2]))
        tracemalloc.start()
        try:
            spectral_partition_k(h_red, h_blue, side, params, subset, PipelineConfig(seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * s

    def test_sets_held_once_bit_packed(self, monkeypatch):
        # from scoring on, the stage holds the s candidate sets once, as n x
        # ceil(s/8) bytes, beside O(n) vectors: less than two such copies,
        # and far less than an s x |Z| boolean mask of them
        n, k = 60000, 3
        params = ModelParams(n, k, {2: (80, 2), 3: (40, 2)})
        h, _ = sample_hsbm(params, 1)
        h_red, h_blue, subset = stage_inputs(color_edges(h, 2), params)
        side = split_vertices(n, 3)
        z, _, y2 = side_ids(side)
        s = min(math.ceil(2 * k * math.log(n) ** 2), len(y2))

        def spy(*args):
            tracemalloc.reset_peak()  # the peak from here on includes what is held
            return weighted_count(*args)
        weighted_count = pipeline.blue_weighted_count
        monkeypatch.setattr(pipeline, "blue_weighted_count", spy)
        tracemalloc.start()
        try:
            spectral_partition_k(h_red, h_blue, side, params, subset, PipelineConfig(seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = n * math.ceil(s / 8)
        assert 2 * packed < s * len(z)
        assert peak < 2 * packed

    def test_memory_at_n_20000(self):
        # the two red matrices are counted from the edges, not sliced out of
        # whole symmetric adjacencies (8.3 MiB when they were)
        n = 20000
        params = ModelParams(n, 3, {2: (80, 2), 3: (40, 2)})
        h, _ = sample_hsbm(params, 1)
        h_red, h_blue, subset = stage_inputs(color_edges(h, 2), params)
        del h
        side = split_vertices(n, 3)
        tracemalloc.start()
        try:
            spectral_partition_k(h_red, h_blue, side, params, subset, PipelineConfig(seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_postconditions_and_alignment(self):
        good_seeds = 0
        for seed in range(5):
            params, hcol, side, truth, cfg = planted_k3(seed=seed)
            candidates = partition_k(hcol, side, params, cfg)
            n, k = params.n, params.k
            sets = columns(unpacked(candidates, k))
            size = n // (2 * k)
            cap = math.ceil((1 - cfg.nu) * n / k)
            z = set(side_ids(side)[0].tolist())
            assert candidates.shape == (n, math.ceil(k / 8)) and candidates.dtype == np.uint8
            for ids in sets:
                assert len(ids) == size
                assert set(ids.tolist()) <= z
            for a, b in itertools.combinations(sets, 2):
                assert len(np.intersect1d(a, b)) < cap
            aligned = all(
                max(np.mean(truth[ids] == blk) for blk in range(k)) >= cfg.nu
                for ids in sets
            )
            good_seeds += aligned
        assert good_seeds >= 4

    def test_zero_hypergraph_fails(self):
        params = ModelParams(120, 3, {2: (60, 2)})
        h = colored(120, {2: []}, {2: []})
        side = split_vertices(120, 0)
        with pytest.raises(PartitionFailure):
            partition_k(h, side, params, PipelineConfig(seed=0))

    def test_information_isolation(self, monkeypatch):
        densities = []

        def spy(h_blue, packed, s):
            densities.append(weighted_count(h_blue, packed, s))
            return densities[-1]
        weighted_count = pipeline.blue_weighted_count
        monkeypatch.setattr(pipeline, "blue_weighted_count", spy)

        params, hcol, side, _, cfg = planted_k3(seed=3)
        sets_full = partition_k(hcol, side, params, cfg)

        z, y1, y2 = (set(ids.tolist()) for ids in side_ids(side))
        edges, colors = {}, {}
        for m, arr in hcol.edges.items():
            keep = []
            for i, row in enumerate(arr):
                verts = set(row.tolist())
                color = hcol.colors[m][i]
                if color == BLUE and not verts <= z:
                    continue  # blue edges touching Y are never read
                if color == RED and (verts <= y2 or (verts & y1 and verts & y2)):
                    continue  # red edges outside both working sub-hypergraphs
                keep.append(i)
            edges[m] = arr[keep]
            colors[m] = hcol.colors[m][keep]
        pruned = Hypergraph(hcol.n, edges, colors)
        sets_pruned = partition_k(pruned, side, params, cfg)
        assert np.array_equal(sets_full, sets_pruned)
        assert np.array_equal(densities[0], densities[1])


class TestCorrectionK:
    def test_unanimous_vertex(self):
        h = colored(8, {2: [[0, 4], [0, 5]]}, {2: [RED, RED]})
        out = correction_k(h.red(), [0, 1], packed_sets(8, [[2, 3], [4, 5]]), 2)
        assert out.tolist() == [1, 0] + [-1] * 6  # 1: no edges, lowest index

    def test_overlapping_candidates(self):
        # a vertex in two candidate sets counts its neighbors in each
        h = colored(6, {2: [[0, 2], [0, 3], [1, 4]]}, {2: [RED] * 3})
        out = correction_k(h.red(), [0, 1], packed_sets(6, [[2, 4], [2, 3]]), 2)
        assert out.tolist() == [1, 0, -1, -1, -1, -1]

    def test_partition_of_z(self):
        params, hcol, side, _, cfg = planted_k3(seed=1)
        sets = partition_k(hcol, side, params, cfg)
        z = side_ids(side)[0]
        out = correction_k(hcol.red(), z, sets, params.k)
        assert out.shape == (params.n,) and out.dtype == np.int64
        assert np.array_equal(np.flatnonzero(out >= 0), np.sort(z))
        assert set(out[z].tolist()) <= set(range(params.k))

    def test_improves_candidate_labeling(self):
        improved = 0
        for seed in range(8):
            params, hcol, side, truth, cfg = planted_k3(seed=seed + 100)
            sets = partition_k(hcol, side, params, cfg)
            n, k = params.n, params.k
            pre = np.full(n, -1, dtype=np.int64)
            for i, ids in enumerate(columns(unpacked(sets, k))):
                free = ids[pre[ids] == -1]
                pre[free] = i
            z = side_ids(side)[0]
            post = correction_k(hcol.red(), z, sets, k)
            improved += (matched_accuracy(truth[z], post[z])
                         >= matched_accuracy(truth[z], pre[z]))
        assert improved >= 6


class TestMerging:
    def test_unique_qualifier(self):
        h = colored(6, {3: [[0, 1, 4]]}, {3: [BLUE]})
        given = labeling(6, [[0, 1], [2, 3]])
        labels = merging(h.blue(), [4, 5], given, 2, 1.0)
        assert labels[4] == 0
        assert labels[5] == 0  # no counts anywhere: lowest index
        assert labels.tolist()[:4] == [0, 0, 1, 1]
        assert given.tolist() == [0, 0, 1, 1, -1, -1]  # the input is not changed

    def test_fallback_argmax(self):
        h = colored(8, {2: [[2, 6], [3, 6], [0, 6]]}, {2: [BLUE] * 3})
        labels = merging(h.blue(), [6, 7], labeling(8, [[0, 1], [2, 3]]), 2, 100.0)
        assert labels[6] == 1  # two blue neighbors in set 1, one in set 0

    def test_conflict_falls_back_to_argmax(self):
        # vertex 6 qualifies for both sets (2 >= mu in each), so the larger count wins
        h = colored(8, {2: [[0, 6], [1, 6], [2, 6], [3, 6], [4, 6]]}, {2: [BLUE] * 5})
        labels = merging(h.blue(), [6], labeling(8, [[0, 1], [2, 3, 4]]), 2, 2.0)
        assert labels[6] == 1 and labels[7] == -1

    def test_full_labeling(self):
        params, hcol, side, _, cfg = planted_k3(seed=2)
        sets = partition_k(hcol, side, params, cfg)
        z, y1, y2 = side_ids(side)
        out = correction_k(hcol.red(), z, sets, params.k)
        mu = merging_threshold(params, (2, 3), cfg.nu)
        labels = merging(hcol.blue(), np.union1d(y1, y2), out, params.k, mu)
        assert (labels >= 0).all() and labels.max() < params.k
        assert np.array_equal(labels[z], out[z])


class TestPartitionK:
    def test_recovers_planted_blocks(self):
        params = ModelParams(1200, 3, {2: (80, 2), 3: (40, 2)})
        h, truth = sample_hsbm(params, 4)
        labels = partition(params, h, PipelineConfig(nu=0.75, seed=8))
        assert accuracy_report(truth, labels).gamma >= 0.9

    def test_determinism(self):
        params = ModelParams(600, 3, {2: (60, 2), 3: (30, 2)})
        h, _ = sample_hsbm(params, 6)
        cfg = PipelineConfig(nu=0.75, seed=123)
        a = partition(params, h, cfg)
        b = partition(params, h, cfg)
        assert (a == b).all()

    def test_every_stage_reads_one_split_of_the_colors(self, monkeypatch):
        params = ModelParams(600, 3, {2: (60, 2), 3: (30, 2)})
        h, _ = sample_hsbm(params, 6)
        seen = {"red": [], "blue": []}  # the halves themselves, so no id is reused

        def spy(name, color):
            fn = getattr(pipeline, name)

            def wrapped(half, *args, **kwargs):
                seen[color].append(half)
                return fn(half, *args, **kwargs)
            monkeypatch.setattr(pipeline, name, wrapped)

        for name, color in (("restrict", "red"), ("correction_k", "red"),
                            ("blue_weighted_count", "blue"), ("merging", "blue")):
            spy(name, color)
        partition(params, h, PipelineConfig(nu=0.75, seed=123))
        for halves in seen.values():
            assert len(halves) >= 2 and all(half is halves[0] for half in halves)

    def test_truth_permutation_equivariance(self):
        params = ModelParams(600, 3, {2: (60, 2), 3: (30, 2)})
        h, truth = sample_hsbm(params, 9)
        labels = partition(params, h, PipelineConfig(nu=0.75, seed=77))
        rep = accuracy_report(truth, labels)
        perm = np.array([2, 0, 1])
        rep2 = accuracy_report(perm[truth], labels)
        assert rep2.gamma == pytest.approx(rep.gamma)
        assert rep2.matched_accuracy == pytest.approx(rep.matched_accuracy)


class TestPartitionEntry:
    MODELS = {2: ModelParams(600, 2, {2: (40, 4), 3: (2, 2)}),
              3: ModelParams(600, 3, {2: (60, 2), 3: (30, 2), 4: (2, 2)})}

    @pytest.mark.parametrize("k", [2, 3])
    def test_selects_the_orders_once(self, monkeypatch, k):
        params = self.MODELS[k]
        h, _ = sample_hsbm(params, 6)
        calls = []

        def spy(p):
            calls.append(p)
            return select(p)
        select = model.preprocess_select
        monkeypatch.setattr(model, "preprocess_select", spy)
        labels = partition(params, h, PipelineConfig(seed=123))
        assert calls == [params] and len(labels) == params.n

    @pytest.mark.parametrize("k", [2, 3])
    def test_int64_edges_partition_alike(self, k):
        """API callers may pass int64 edge arrays; the sampler's are int32."""
        params = self.MODELS[k]
        h, _ = sample_hsbm(params, 6)
        assert all(rows.dtype == np.int32 for rows in h.edges.values())
        cfg = PipelineConfig(seed=123)
        for given in (h, color_edges(h, 4)):
            wide = Hypergraph(h.n, {m: rows.astype(np.int64) for m, rows in given.edges.items()},
                              given.colors)
            assert np.array_equal(partition(params, wide, cfg), partition(params, given, cfg))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [500, 700])
    def test_vertex_count_mismatch_rejected(self, k, n):
        h, _ = sample_hsbm(self.MODELS[k], 6)
        params = ModelParams(n, k, self.MODELS[k].orders)
        with pytest.raises(ValueError, match=f"hypergraph has n = 600 .* model n = {n}"):
            partition(params, h, PipelineConfig(seed=123))


class TestBinaryPipeline:
    @pytest.mark.parametrize("n", [500, 501])
    def test_spectral_split_sizes(self, n):
        params = ModelParams(n, 2, {2: (40, 4)})
        h, _ = sample_hsbm(params, 3)
        hc = color_edges(h, 5)
        labels = spectral_partition_2(hc.red(), params, (2,), PipelineConfig(seed=1))
        assert labels.dtype == np.int64 and set(labels.tolist()) == {0, 1}
        assert np.count_nonzero(labels == 0) == (n + 1) // 2

    def test_memory_at_n_20000(self):
        # the regularized red adjacency is counted from the edges, in one
        # CSR, not masked out of a whole one (12.7 MiB when it was)
        n = 20000
        params = ModelParams(n, 2, {2: (80, 2)})
        h, _ = sample_hsbm(params, 1)
        h_red, _, subset = stage_inputs(color_edges(h, 2), params)
        del h
        tracemalloc.start()
        try:
            spectral_partition_2(h_red, params, subset, PipelineConfig(seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_correction_2_stay_and_swap(self):
        # vertex 0 has every blue edge crossing: swaps; vertex 3 has none: stays
        h = colored(6, {2: [[0, 3], [0, 4], [0, 5]]}, {2: [BLUE] * 3})
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert correction_2(h.blue(), labels, 2.0).tolist() == [1, 0, 0, 1, 1, 1]

    def test_correction_2_swaps_both_ways(self):
        # vertex 0 (side 0) and vertex 5 (side 1) each have two crossing edges
        h = colored(6, {2: [[0, 3], [0, 4], [1, 5], [2, 5]]}, {2: [BLUE] * 4})
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert correction_2(h.blue(), labels, 2.0).tolist() == [1, 0, 0, 1, 1, 0]

    def test_correction_2_swaps_at_the_threshold(self):
        # an order-3 edge weighs m - 1 = 2: vertex 0's cross count is exactly 2
        h = colored(6, {3: [[0, 4, 5]]}, {3: [BLUE]})
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert correction_2(h.blue(), labels, 2.0)[0] == 1
        assert correction_2(h.blue(), labels, np.nextafter(2.0, 3.0))[0] == 0

    def test_recovers_planted_blocks(self):
        params = ModelParams(1500, 2, {2: (50, 4)})
        h, truth = sample_hsbm(params, 1)
        labels = partition(params, h, PipelineConfig(nu=0.75, seed=2))
        assert accuracy_report(truth, labels).gamma >= 0.9

    def test_null_model_near_coin_flip(self):
        params = ModelParams(1500, 2, {2: (40, 40)})
        h, truth = sample_hsbm(params, 8)
        labels = partition(params, h, PipelineConfig(nu=0.75, seed=9))
        acc = accuracy_report(truth, labels).matched_accuracy
        assert acc < 0.62

    def test_zero_hypergraph_fails(self):
        params = ModelParams(100, 2, {2: (1, 0)})
        h = colored(100, {2: []}, {2: []})
        with pytest.raises(PartitionFailure):
            partition(params, h, PipelineConfig(seed=0))

    def test_determinism(self):
        params = ModelParams(400, 2, {2: (30, 3)})
        h, _ = sample_hsbm(params, 2)
        cfg = PipelineConfig(seed=5)
        assert (partition(params, h, cfg) == partition(params, h, cfg)).all()
