"""Sampler distribution checks, determinism, and sub-hypergraph operations."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hyperblock import sampler
from hyperblock.model import ModelParams, block_sizes
from hyperblock.sampler import (
    BLUE,
    RED,
    SIDE_Y1,
    SIDE_Y2,
    SIDE_Z,
    Hypergraph,
    color_edges,
    ground_truth_labels,
    restrict,
    _comb,
    _has_repeats,
    _id_dtype,
    _row_order,
    _unrank,
    restrict_orders,
    sample_hsbm,
    split_vertices,
    subset_mask,
)

import oracles
from oracles import sort_rows, validate


def edge_set(h, m):
    return {tuple(row) for row in h.edges.get(m, np.empty((0, m), dtype=np.int64))}


class TestSampleHsbm:
    def test_zero_rates_empty(self):
        h, labels = sample_hsbm(ModelParams(30, 2, {2: (0, 0), 3: (0, 0)}), 0)
        assert h.num_edges() == 0
        assert (np.bincount(labels) == 15).all()

    @pytest.mark.parametrize("rates", [(6.0, 6.0), (1e9, 1e9)])
    def test_probability_one_fills_everything(self, rates):
        # a = b = comb(n, 1) makes every pair deterministic; ModelParams clamps larger rates to it
        h, _ = sample_hsbm(ModelParams(6, 2, {2: rates}), 1)
        assert len(edge_set(h, 2)) == math.comb(6, 2)

    def test_determinism(self):
        p = ModelParams(50, 2, {2: (6, 2), 3: (5, 1)})
        h1, _ = sample_hsbm(p, 42)
        h2, _ = sample_hsbm(p, 42)
        for m in h1.edges:
            assert (h1.edges[m] == h2.edges[m]).all()
        h3, _ = sample_hsbm(p, 43)
        assert any(edge_set(h1, m) != edge_set(h3, m) for m in h1.edges)

    def test_edges_valid(self):
        h, labels = sample_hsbm(ModelParams(40, 3, {2: (8, 3), 3: (6, 2)}), 7)
        validate(h)

    def test_within_block_mean_count(self):
        # mean within-block pair count across seeds within 4 sigma
        p = ModelParams(200, 2, {2: (10, 2)})
        n_within = 2 * math.comb(100, 2)
        prob = 10 / 199
        counts = []
        for s in range(200):
            h, labels = sample_hsbm(p, s)
            e = h.edges[2]
            counts.append(int((labels[e[:, 0]] == labels[e[:, 1]]).sum()))
        mean = n_within * prob
        sigma = math.sqrt(n_within * prob * (1 - prob) / 200)
        assert abs(np.mean(counts) - mean) < 4 * sigma

    def test_cross_block_mean_count(self):
        p = ModelParams(120, 3, {3: (9, 3)})
        n_within = 3 * math.comb(40, 3)
        n_cross = math.comb(120, 3) - n_within
        prob = 3 / math.comb(119, 2)
        counts = []
        for s in range(200):
            h, labels = sample_hsbm(p, s)
            e = h.edges[3]
            lab = labels[e]
            counts.append(int(((lab != lab[:, :1]).any(axis=1)).sum()))
        mean = n_cross * prob
        sigma = math.sqrt(n_cross * prob * (1 - prob) / 200)
        assert abs(np.mean(counts) - mean) < 4 * sigma

    def test_per_set_inclusion_frequencies(self):
        # every m-set of a tiny model is its own Bernoulli(p_a) or Bernoulli(p_b)
        # edge; blocks are [0, 3), [3, 6), [6, 8)
        p = ModelParams(8, 3, {2: (4, 2), 3: (14, 7)})
        trials = 2000
        hits = {m: {} for m in p.orders}
        for s in range(trials):
            h, labels = sample_hsbm(p, s)
            for m in p.orders:
                for row in map(tuple, h.edges[m].tolist()):
                    hits[m][row] = hits[m].get(row, 0) + 1
        for m, (a, b) in p.orders.items():
            for within in (True, False):
                sets = [c for c in itertools.combinations(range(8), m)
                        if (len(set(labels[list(c)])) == 1) == within]
                assert sets
                prob = (a if within else b) / math.comb(8, m - 1)
                sd = math.sqrt(prob * (1 - prob) / trials)
                for c in sets:
                    assert abs(hits[m].get(c, 0) / trials - prob) < 4 * sd, (m, c)
            assert set(hits[m]) <= set(itertools.combinations(range(8), m))

    def test_dense_stratum(self):
        # p_a = 0.95 inside each block of 1000
        p = ModelParams(2000, 2, {2: (1900, 10)})
        h, labels = sample_hsbm(p, 1)
        validate(h)
        e = h.edges[2]
        within = int((labels[e[:, 0]] == labels[e[:, 1]]).sum())
        mean = 2 * math.comb(1000, 2) * 0.95
        assert abs(within - mean) < 5 * math.sqrt(mean * 0.05)

    @pytest.mark.parametrize("n, k", [(100_000, 3), (105_000, 2)])
    def test_order_4_at_large_n(self, n, k):
        # at n = 105000 comb(n, 4) exceeds 2**62, so the cross ranks come in two parts
        p = ModelParams(n, k, {4: (10, 2)})
        h, _ = sample_hsbm(p, 1)
        validate(h)
        n_within = sum(math.comb(int(size), 4) for size in block_sizes(n, k))
        mean = (n_within * 10 + (math.comb(n, 4) - n_within) * 2) / math.comb(n, 3)
        assert abs(h.num_edges(4) - mean) < 5 * math.sqrt(mean)
        top = h.edges[4][:, 3]
        if math.comb(n, 4) > 2**62:
            first = next(c for c in range(n) if math.comb(c, 4) >= 2**62)
            assert (top >= first).any()

    def test_stratum_above_int64_refused(self):
        with pytest.raises(ValueError, match="stratum too large"):
            sample_hsbm(ModelParams(100_000, 2, {5: (1, 1)}), 0)


class TestSampleMatchesOracle:
    """``sample_hsbm`` against the whole-array colex unranking and ``np.lexsort`` of ``oracles``."""

    MODELS = [
        ModelParams(60, 2, {2: (20, 5), 3: (300, 40), 4: (2000, 100), 5: (10**4, 600)}),
        ModelParams(60, 3, {2: (20, 5), 3: (300, 40), 4: (2000, 100), 5: (10**4, 600)}),
        ModelParams(61, 4, {2: (20, 5), 3: (300, 40), 4: (2000, 100), 5: (10**4, 600)}),
        ModelParams(12, 3, {2: (11, 11), 3: (55, 55), 4: (165, 165)}),  # probability one
        ModelParams(40, 2, {2: (40, 3), 5: (91390, 10)}),  # within-block strata whole
        ModelParams(30, 2, {2: (0, 0), 3: (0, 0)}),
        ModelParams(3000, 2, {3: (80, 10)}),
        ModelParams(20000, 3, {2: (80, 2), 3: (40, 2)}),
        # orders near n, where the float roots are often one off
        ModelParams(72, 2, {66: (10**4, 10**4)}),
        ModelParams(42, 2, {35: (44000, 44000), 36: (20000, 20000)}),
    ]

    @staticmethod
    def assert_equal(params, seed):
        h, _ = sample_hsbm(params, seed)
        want = oracles.sample_edges(params, seed)
        assert list(h.edges) == list(want)
        for m, rows in want.items():
            got = h.edges[m]
            assert got.dtype == rows.dtype and got.shape == rows.shape, m
            assert np.array_equal(got, rows), m

    @pytest.mark.parametrize("params", MODELS, ids=range(len(MODELS)))
    def test_arrays_and_dtypes_equal_the_oracle(self, params):
        for seed in (1, 2):
            self.assert_equal(params, seed)

    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_many_rank_blocks(self, monkeypatch, block):
        monkeypatch.setattr(sampler, "_BLOCK", block)
        for params in self.MODELS[3:4] if block == 1 else self.MODELS[:7]:
            self.assert_equal(params, 3)

    def test_order_4_in_two_rank_parts(self):
        # comb(105000, 4) > 2**62, so the cross ranks are drawn in two parts
        params = ModelParams(105_000, 2, {4: (10, 2)})
        assert math.comb(params.n, 4) > sampler._RANK_PART
        self.assert_equal(params, 1)

    @pytest.mark.parametrize("n, bound", [(3000, 1.75), (20000, 7)])
    def test_traced_peak(self, n, bound):
        # the keys, the final rows and one block of temporaries; 2.05 and
        # 13.25 MiB when each stratum was unranked whole and lexsorted
        params = ModelParams(n, 3, {2: (80, 2), 3: (40, 2)})
        tracemalloc.start()
        try:
            sample_hsbm(params, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


class TestComb:
    @staticmethod
    def cases(j, top):
        """c from 0 up past 2j, near ``top``, and spread in between, none above ``top``."""
        spread = np.random.default_rng(j).integers(j, top, size=200, endpoint=True).tolist()
        return sorted(set(range(min(3 * j + 3, top))) | set(range(top - 3, top + 1)) | set(spread))

    @staticmethod
    def largest_fitting(j):
        """The largest c with C(c, j) < 2**63."""
        lo, hi = j, 2**63
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, j) < 2**63 else (lo, mid)
        return lo

    @pytest.mark.parametrize("j", range(1, 9))
    def test_matches_math_comb(self, j):
        cs = self.cases(j, self.largest_fitting(j))
        assert j - 1 in cs
        got = _comb(np.array(cs, dtype=np.int64), j)
        assert got.dtype == np.int64
        assert got.tolist() == [math.comb(c, j) for c in cs]

    @pytest.mark.parametrize("j", [20, 33, 34, 35, 40, 66])
    def test_high_orders_one_element_at_a_time_and_together(self, j):
        # near j an element needs fewer steps by symmetry, and above 34 the
        # intermediates of the plain steps would overflow
        cs = self.cases(j, self.largest_fitting(j))
        assert _comb(np.array(cs, dtype=np.int64), j).tolist() == [math.comb(c, j) for c in cs]
        for c in cs[:2 * j] + cs[-3:]:
            assert _comb(np.array([c], dtype=np.int64), j).tolist() == [math.comb(c, j)], c
        assert _comb(np.empty(0, dtype=np.int64), j).shape == (0,)


class TestUnrank:
    def test_matches_colex_combinations(self):
        for n in range(0, 11):
            for m in range(1, n + 1):
                colex = sorted(itertools.combinations(range(n), m), key=lambda c: c[::-1])
                got = _unrank(np.arange(len(colex)), n, m)
                assert got.shape == (len(colex), m)
                assert got.tolist() == [list(c) for c in colex], (n, m)

    @pytest.mark.parametrize("n, m", [(100_000, 4), (3_000_000_000, 2), (200, 12), (70, 66)])
    def test_exact_near_int64(self, n, m):
        total = math.comb(n, m)
        ranks = [0, 1, total // 3, total // 2, total - 2, total - 1]
        rows = _unrank(np.array(ranks, dtype=np.int64), n, m).tolist()
        for rank, row in zip(ranks, rows):
            assert all(x < y for x, y in zip(row, row[1:])) and 0 <= row[0] and row[-1] < n
            assert sum(math.comb(c, j + 1) for j, c in enumerate(row)) == rank


class TestRowHelpers:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_repeats_match_np_unique(self, m):
        rng = np.random.default_rng(m)
        for num, high in [(0, 3), (1, 3), (2, 1), (50, 3), (2000, 6), (2000, 10**6)]:
            rows = rng.integers(0, high, size=(num, m))
            for case in (rows, np.concatenate([rows, rows[rng.integers(0, max(num, 1),
                                                                      size=num // 2)]])):
                distinct = len(np.unique(case, axis=0)) == len(case)
                assert _has_repeats(sort_rows(case)) == (not distinct)

    def test_row_order_is_the_stable_lexicographic_order(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 4, size=(500, 3))
        assert np.array_equal(_row_order(rows), np.lexsort(rows.T[::-1]))
        ordered = sort_rows(rows)
        assert np.array_equal(ordered, rows[np.lexsort(rows.T[::-1])])
        # rows already in order, ties included, need no permutation and no copy
        assert _row_order(ordered) is None and sort_rows(ordered) is ordered
        swapped = ordered.copy()
        swapped[[10, 400]] = swapped[[400, 10]]
        assert np.array_equal(sort_rows(swapped), ordered)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_row_order_equals_lexsort_on_every_shape(self, m):
        rng = np.random.default_rng(m)
        rows = rng.integers(0, 5, size=(300, m))
        ordered = rows[np.lexsort(rows.T[::-1])]
        cases = {
            "random": rows,
            "sorted": ordered,
            "reversed": ordered[::-1],
            "sorted with ties and duplicates": np.repeat(ordered, 2, axis=0),
            "one out of place": np.concatenate([ordered[1:], ordered[:1]]),
            "first column sorted only": rows[np.argsort(rows[:, 0], kind="stable")],
            "all equal": np.zeros((7, m), dtype=np.int64),
            "empty": np.empty((0, m), dtype=np.int64),
            "one row": rows[:1],
            "int32": rows.astype(np.int32),
        }
        for name, case in cases.items():
            want = np.lexsort(case.T[::-1])
            got = _row_order(case)
            if got is None:  # only rows already in order
                assert np.array_equal(want, np.arange(len(case))), name
            else:
                assert got.dtype == np.intp and np.array_equal(got, want), name

    def test_validate_rejects_duplicates(self):
        h = Hypergraph(5, {2: np.array([[0, 1], [2, 3], [0, 1]], dtype=np.int64)})
        with pytest.raises(ValueError, match="order 2: duplicate edge tuples"):
            validate(h)
        validate(Hypergraph(5, {2: np.array([[2, 3], [0, 1]], dtype=np.int64)}))

    @pytest.mark.parametrize("bad", [2, 255, -1])
    def test_validate_rejects_colors_other_than_red_and_blue(self, bad):
        edges = {2: np.array([[0, 1], [2, 3]], dtype=np.int64)}
        for colors in ([bad, bad], [RED, bad]):
            h = Hypergraph(5, edges, {2: np.array(colors, dtype=np.int64)})
            with pytest.raises(ValueError, match="order 2: colors must be RED"):
                validate(h)
        validate(Hypergraph(5, edges, {2: np.array([RED, BLUE], dtype=np.uint8)}))


class TestColorEdges:
    def test_balanced_fraction(self):
        p = ModelParams(300, 2, {2: (60, 40)})
        h, _ = sample_hsbm(p, 0)
        assert h.num_edges() > 5000
        for s in range(100):
            hc = color_edges(h, s)
            red = sum(int((hc.colors[m] == RED).sum()) for m in hc.colors)
            frac = red / hc.num_edges()
            assert 0.45 < frac < 0.55

    def test_determinism_and_edge_preservation(self):
        h, _ = sample_hsbm(ModelParams(50, 2, {2: (8, 2)}), 3)
        c1 = color_edges(h, 9)
        c2 = color_edges(h, 9)
        assert all((c1.colors[m] == c2.colors[m]).all() for m in c1.colors)
        assert edge_set(c1, 2) == edge_set(h, 2)

    def test_double_coloring_rejected(self):
        h, _ = sample_hsbm(ModelParams(20, 2, {2: (4, 1)}), 0)
        hc = color_edges(h, 0)
        with pytest.raises(ValueError):
            color_edges(hc, 1)

    def test_empty_hypergraph(self):
        h = Hypergraph(10, {2: np.empty((0, 2), dtype=np.int64)})
        hc = color_edges(h, 0)
        assert hc.is_colored and hc.num_edges() == 0


class TestSplitVertices:
    def test_single_vertex(self):
        side = split_vertices(1, 0)
        assert side[0] in (SIDE_Z, SIDE_Y1, SIDE_Y2)

    def test_concentration(self):
        side = split_vertices(10_000, 5)
        assert abs(np.count_nonzero(side == SIDE_Z) - 5000) < 4 * math.sqrt(10_000 / 4)

    def test_determinism(self):
        a = split_vertices(500, 11)
        b = split_vertices(500, 11)
        assert (a == b).all()

    def test_partition_of_vertices(self):
        side = split_vertices(1000, 1)
        assert len(side) == 1000 and np.isin(side, (SIDE_Z, SIDE_Y1, SIDE_Y2)).all()

    @pytest.mark.parametrize("n, seed, digest", [
        (3000, 1, "02c71a5b2aad47694ecb09f0fa5d09c83cec6e310440e0ab6f9a0778281dd314"),
        (3000, 2, "a52fc19a2d226aa5811ed800b0d20001da4455f8bc12a2ff202a33676038789b"),
        (20000, 1, "1907141c9b9ba1483868bb250d5d988d06924e7833cd153cba6fd751699adb94"),
        (20000, 2, "b08541453d04b7755e8c885cddcfda558eb6b561c430e249d720e6909b52d346"),
    ])
    def test_labels_pinned(self, n, seed, digest):
        # the labels every k >= 3 run reads: a change here moves every
        # pinned k >= 3 detection output
        side = split_vertices(n, seed)
        assert side.dtype == np.int8 and side.shape == (n,)
        assert hashlib.sha256(side.tobytes()).hexdigest() == digest


class TestRestrict:
    def test_identity(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (5, 2)}), 2)
        r = restrict(h, np.arange(30))
        for m in h.edges:
            assert (r.edges[m] == h.edges[m]).all()

    def test_empty_set(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (5, 2)}), 2)
        assert restrict(h, []).num_edges() == 0

    def test_membership(self):
        h = Hypergraph(6, {3: np.array([[1, 2, 5]])})
        assert restrict(h, [1, 2, 3]).num_edges() == 0
        assert restrict(h, [1, 2, 5]).num_edges() == 1

    def test_colors_ride_with_edges(self):
        h, _ = sample_hsbm(ModelParams(40, 2, {2: (10, 4)}), 4)
        hc = color_edges(h, 1)
        sub = restrict(hc, np.arange(20))
        kept = {tuple(r): c for r, c in zip(sub.edges[2], sub.colors[2])}
        full = {tuple(r): c for r, c in zip(hc.edges[2], hc.colors[2])}
        assert kept == {e: c for e, c in full.items() if max(e) < 20}

    def test_subset_mask(self):
        assert subset_mask(5, range(2)).tolist() == [True, True, False, False, False]
        assert subset_mask(5, np.array([4, 4])).tolist() == [False] * 4 + [True]
        assert not subset_mask(5, set()).any()
        for bad in ([0, 5], [-1]):
            with pytest.raises(ValueError, match="out-of-range"):
                subset_mask(5, bad)

    @pytest.mark.parametrize("bad", [np.array([False, False, True, True, False]), [True],
                                     np.array([1.5]), [0.0, 1.0]])
    def test_non_integer_ids_rejected(self, bad):
        # a boolean mask is not read as the ids {0, 1}, nor float ids truncated
        with pytest.raises(ValueError, match="integers"):
            subset_mask(5, bad)
        h = Hypergraph(5, {2: np.array([[0, 1], [2, 3]])})
        with pytest.raises(ValueError, match="integers"):
            restrict(h, bad)

    @pytest.mark.parametrize("empty", [[], set(), np.array([], dtype=bool),
                                       np.array([], dtype=np.float64)])
    def test_empty_set_of_any_dtype(self, empty):
        assert not subset_mask(5, empty).any()

    def test_restrict_by_ids_of_a_mask(self):
        h = Hypergraph(5, {2: np.array([[0, 1], [2, 3]])})
        mask = np.array([False, False, True, True, False])
        assert restrict(h, np.flatnonzero(mask)).edges[2].tolist() == [[2, 3]]
        assert restrict(h, np.array([2, 3], dtype=np.uint8)).edges[2].tolist() == [[2, 3]]

    def test_restrict_orders(self):
        h, _ = sample_hsbm(ModelParams(40, 2, {2: (8, 2), 3: (6, 2)}), 1)
        only3 = restrict_orders(h, [3])
        assert set(only3.edges) == {3}
        assert restrict_orders(h, [2, 3, 4]) is h  # nothing to drop


class TestSelectionAgainstLoops:
    """Each sub-hypergraph against a loop over the rows: orders, rows, dtypes and colors."""

    @staticmethod
    def instance(colored):
        h, _ = sample_hsbm(ModelParams(60, 3, {2: (10, 5), 3: (8, 2), 4: (2, 1)}), 6)
        assert all(len(rows) for rows in h.edges.values())
        if not colored:
            return h
        colors = color_edges(h, 2).colors
        # order 4 has no red edge, so the red half leaves it out
        return Hypergraph(h.n, h.edges, {**colors, 4: np.full(len(h.edges[4]), BLUE, np.uint8)})

    @pytest.mark.parametrize("color", [RED, BLUE])
    def test_halves(self, color):
        hc = self.instance(colored=True)
        want = oracles.half(hc, color)
        assert (4 in want.edges) == (color == BLUE)
        for got in (hc.only_color(color), hc.red() if color == RED else hc.blue()):
            oracles.assert_same_hypergraph(got, want)

    @pytest.mark.parametrize("colored", [True, False])
    @pytest.mark.parametrize("ids", ["all", "first half", "odd", "one order-3 edge", "none"])
    def test_restrict(self, colored, ids):
        h = self.instance(colored)
        vertex_set = {"all": np.arange(h.n), "first half": np.arange(h.n // 2),
                      "odd": np.arange(1, h.n, 2), "one order-3 edge": h.edges[3][0],
                      "none": np.array([], dtype=np.int64)}[ids]
        got = restrict(h, vertex_set)
        oracles.assert_same_hypergraph(got, oracles.induced(h, vertex_set))
        if ids == "one order-3 edge":  # order 4 is left empty, and kept
            assert len(got.edges[4]) == 0 and len(got.edges[3]) >= 1

    @pytest.mark.parametrize("colored", [True, False])
    @pytest.mark.parametrize("subset", [[2], [4, 3], [2, 3, 4], [2, 3, 4, 5], [5], []])
    def test_restrict_orders(self, colored, subset):
        h = self.instance(colored)
        got = restrict_orders(h, subset)
        want = Hypergraph(h.n, {m: rows for m, rows in h.edges.items() if m in subset},
                          {m: c for m, c in h.colors.items() if m in subset} if colored else None)
        oracles.assert_same_hypergraph(got, want)
        if set(subset) >= set(h.edges):
            assert got is h
        for m in got.edges:  # views, not copies
            assert np.shares_memory(got.edges[m], h.edges[m])
            assert not colored or np.shares_memory(got.colors[m], h.colors[m])


class TestVertexIdDtype:
    def test_rule(self):
        assert _id_dtype(1) == _id_dtype(2**31 - 1) == np.int32
        assert _id_dtype(2**31) == _id_dtype(3 * 10**9) == np.int64

    def test_sampler_and_stages_give_int32_rows_for_small_n(self):
        h, _ = sample_hsbm(ModelParams(60, 2, {2: (10, 5), 3: (8, 2)}), 6)
        hc = color_edges(h, 2)
        for name, g in {"sample_hsbm": h, "color_edges": hc,
                        "restrict": restrict(hc, np.arange(30)),
                        "only_color": hc.only_color(RED), "blue": hc.blue(),
                        "restrict_orders": restrict_orders(hc, [3])}.items():
            assert g.edges and all(a.dtype == np.int32 for a in g.edges.values()), name


class TestColorSplitViews:
    def test_red_blue_partition_edges(self):
        h, _ = sample_hsbm(ModelParams(60, 2, {2: (10, 5), 3: (8, 2)}), 6)
        hc = color_edges(h, 2)
        red, blue = hc.red(), hc.blue()
        for m in h.edges:
            assert edge_set(red, m) | edge_set(blue, m) == edge_set(h, m)
            assert not (edge_set(red, m) & edge_set(blue, m))

    def test_ground_truth_remainder(self):
        labels = ground_truth_labels(11, 3)
        assert np.bincount(labels).tolist() == [4, 4, 3]
