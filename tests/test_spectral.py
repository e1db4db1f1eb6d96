"""Sparse linear algebra against dense references and exact postconditions."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from hyperblock.model import ModelParams
from hyperblock.pipeline import _sampled_rows
from hyperblock.sampler import (SIDE_Y1, SIDE_Z, Hypergraph, restrict, sample_hsbm,
                                split_vertices, subset_mask)
from hyperblock.spectral import (
    ConvergenceError,
    adjacency,
    bipartite_embed,
    mask_matrix,
    regularize,
    spectral_norm,
    top_subspace,
)
from oracles import dense_adjacency, row_sums, side_ids


def planted_hypergraph(n=260, k=2, a=40, b=4, seed=0):
    return sample_hsbm(ModelParams(n, k, {2: (a, b)}), seed)[0]


def planted_instance(n=260, k=2, a=40, b=4, seed=0):
    return adjacency(planted_hypergraph(n, k, a, b, seed))


class TestAdjacency:
    def test_single_triangle_edge(self):
        h = Hypergraph(4, {3: np.array([[0, 1, 2]])})
        a = adjacency(h).toarray()
        want = np.zeros((4, 4))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            want[i, j] = want[j, i] = 1
        assert (a == want).all()

    def test_multiplicity(self):
        h = Hypergraph(3, {2: np.array([[0, 1]]), 3: np.array([[0, 1, 2]])})
        a = adjacency(h).toarray()
        assert a[0, 1] == 2 and a[1, 0] == 2

    def test_empty(self):
        h = Hypergraph(5, {})
        assert adjacency(h).nnz == 0

    def test_sampled_symmetry_zero_diagonal(self):
        for seed in range(5):
            h, _ = sample_hsbm(ModelParams(40, 2, {2: (8, 3), 3: (5, 2)}), seed)
            a = adjacency(h)
            assert (a != a.T).nnz == 0
            assert a.diagonal().sum() == 0


class TestPairCountsMatchDenseOracle:
    """Every builder against ``np.add.at`` pair counts on sampled instances."""

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def case(self, request):
        seed = request.param
        n = 300
        h = sample_hsbm(ModelParams(n, 3, {2: (12, 3), 3: (10, 3), 4: (4, 1)}), seed)[0]
        return h, split_vertices(n, seed), dense_adjacency(h)

    @staticmethod
    def same(got, want):
        assert got.dtype == np.float64 and got.has_canonical_format
        assert np.array_equal(got.toarray(), want)

    def test_adjacency(self, case):
        h, _, dense = case
        self.same(adjacency(h), dense)

    def test_regularize_every_vertex(self, case):
        h, _, dense = case
        for threshold in (0.0, np.median(h.degrees()), np.inf):
            reg, kept = regularize(h, threshold)
            in_kept = subset_mask(h.n, kept)
            assert np.array_equal(in_kept, dense.sum(axis=1) <= threshold)
            self.same(reg, dense * np.outer(in_kept, in_kept))

    def test_regularize_rectangle(self, case):
        h, side, dense = case
        z, y1, _ = side_ids(side)
        reg, kept = regularize(h, np.median(h.degrees()), z, y1)
        in_kept = subset_mask(h.n, kept)
        want = selector_product(sp.csr_array(dense), in_kept & (side == SIDE_Z),
                                in_kept & (side == SIDE_Y1))
        self.same(reg, want.toarray())

    def test_sampled_rows(self, case):
        h, side, _ = case
        z, _, y2 = side_ids(side)
        sampled = y2[::3]
        induced = dense_adjacency(restrict(h, np.concatenate([z, y2])))
        self.same(_sampled_rows(h, z, y2, sampled), induced[np.ix_(sampled, z)])


def test_adjacency_peak_near_its_csr():
    # the pair arrays are freed once counted, before the sum with the transpose
    h = sample_hsbm(ModelParams(20000, 3, {2: (80, 2), 3: (40, 2)}), 1)[0]
    tracemalloc.start()
    try:
        a = adjacency(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


class TestBipartiteEmbed:
    def test_empty_rows(self):
        h = Hypergraph(4, {2: np.array([[0, 1]])})
        assert bipartite_embed(adjacency(h), [], [0, 1]).nnz == 0

    def test_single_edge(self):
        h = Hypergraph(4, {2: np.array([[0, 1]])})
        a = bipartite_embed(adjacency(h), [0], [1]).toarray()
        assert a[0, 1] == 1 and a.sum() == 1

    def test_pattern_inside_rectangle(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (8, 4)}), 3)
        rows, cols = np.arange(0, 15), np.arange(15, 30)
        a = bipartite_embed(adjacency(h), rows, cols)
        r, c = a.nonzero()
        assert set(r) <= set(rows) and set(c) <= set(cols)
        full = adjacency(h).toarray()
        assert (a.toarray()[np.ix_(rows, cols)] == full[np.ix_(rows, cols)]).all()

    def test_overlap_rejected(self):
        h = Hypergraph(4, {2: np.array([[0, 1]])})
        with pytest.raises(ValueError):
            bipartite_embed(adjacency(h), [0, 1], [1, 2])


def selector_product(a, in_rows, in_cols):
    """Masking as diagonal 0/1 products, the oracle for the index-array form."""
    def sel(mask):
        return sp.dia_array((mask.astype(np.int64)[None, :], [0]), shape=(len(mask),) * 2)
    return (sel(in_rows) @ a @ sel(in_cols)).tocsr()


class TestMaskingMatchesSelectorProduct:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_csr_arrays(self, seed):
        n = 2000
        h, _ = sample_hsbm(ModelParams(n, 3, {2: (30, 4), 3: (20, 4)}), seed)
        side = split_vertices(n, seed)
        z, y1, _ = side_ids(side)
        in_z, in_y1 = side == SIDE_Z, side == SIDE_Y1
        a = adjacency(h)
        kept = np.flatnonzero(row_sums(a) <= np.median(row_sums(a)))
        in_kept = np.zeros(n, dtype=bool)
        in_kept[kept] = True
        for b in (a, a.astype(np.int64)):
            pairs = [(bipartite_embed(b, z, y1), selector_product(b, in_z, in_y1)),
                     (mask_matrix(b, kept), selector_product(b, in_kept, in_kept))]
            for got, want in pairs:
                assert got.dtype == want.dtype
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))


def test_builders_count_in_float64_on_int32_indices():
    # ARPACK reads float64, so the counts are stored that way where they are
    # built; the row sums are the integer ones of the degree or a selector product
    n = 2000
    h = sample_hsbm(ModelParams(n, 3, {2: (30, 4), 3: (20, 4)}), 1)[0]
    side = split_vertices(n, 1)
    z, y1, y2 = side_ids(side)
    in_z, in_y1 = side == SIDE_Z, side == SIDE_Y1
    a = adjacency(h)
    every, kept = regularize(h, 20.0)
    in_kept = subset_mask(n, kept)
    sampled = y2[:50]
    zy2 = adjacency(restrict(h, np.concatenate([z, y2])))
    built = [
        (a, h.degrees()),
        (every, row_sums(selector_product(a, in_kept, in_kept))),
        (regularize(h, 20.0, z, y1)[0],
         row_sums(selector_product(a, in_kept & in_z, in_kept & in_y1))),
        (mask_matrix(a, kept), row_sums(selector_product(a, in_kept, in_kept))),
        (bipartite_embed(a, z, y1), row_sums(selector_product(a, in_z, in_y1))),
        (_sampled_rows(h, z, y2, sampled), row_sums(zy2[sampled][:, z])),
    ]
    for m, want in built:
        assert m.dtype == np.float64
        assert (m.indices.dtype, m.indptr.dtype) == (np.int32, np.int32)
        sums = row_sums(m)
        assert np.array_equal(sums, np.round(sums)) and np.array_equal(sums, want)
    assert every.nnz > 0 and len(kept) < n


def with_int64_indices(a):
    return sp.csr_array((a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)),
                        shape=a.shape)


class TestIndexDtype:
    """int32 CSR indices where they fit, kept through every masked copy."""

    N = 2000

    @pytest.fixture(scope="class")
    def h(self):
        return sample_hsbm(ModelParams(self.N, 3, {2: (30, 4), 3: (20, 4)}), 1)[0]

    @pytest.fixture(scope="class")
    def a(self, h):
        return adjacency(h)

    def test_adjacency_and_derived_matrices_are_int32(self, h, a):
        z, y1, _ = side_ids(split_vertices(self.N, 1))
        kept = np.arange(0, self.N, 3)
        counts = a.astype(np.int64)
        derived = [a, counts, mask_matrix(a, kept), mask_matrix(counts, kept),
                   bipartite_embed(a, z, y1), regularize(h, 20.0)[0],
                   adjacency(Hypergraph(5, {}))]
        for m in derived:
            assert (m.indices.dtype, m.indptr.dtype) == (np.int32, np.int32)

    def test_int64_input_stays_int64(self, a):
        wide = with_int64_indices(a)
        assert wide.indices.dtype == np.int64
        m = mask_matrix(wide, np.arange(0, self.N, 3))
        assert (m.indices.dtype, m.indptr.dtype) == (np.int64, np.int64)

    def test_products_equal_int64_copy(self, a):
        f = a.astype(np.float64)
        wide = with_int64_indices(f)
        rng = np.random.default_rng(0)
        v, block = rng.standard_normal(self.N), rng.standard_normal((self.N, 3))
        assert np.array_equal(f @ v, wide @ v)
        assert np.array_equal(f.T @ block, wide.T @ block)


class TestRowSums:
    def test_weighted_edge_count(self):
        h = Hypergraph(4, {3: np.array([[0, 1, 2]])})
        assert row_sums(adjacency(h)).tolist() == [2, 2, 2, 0]
        assert h.degrees().tolist() == [2, 2, 2, 0]

    def test_empty(self):
        h = Hypergraph(3, {})
        assert row_sums(adjacency(h)).tolist() == [0, 0, 0]
        assert h.degrees().tolist() == [0, 0, 0]

    def test_matches_dense(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (6, 3), 3: (4, 2)}), 1)
        a = adjacency(h)
        assert (row_sums(a) == a.toarray().sum(axis=1)).all()
        assert (h.degrees() == a.toarray().sum(axis=1)).all()


class TestRegularize:
    def test_identity_below_threshold(self):
        h = planted_hypergraph(n=60, a=6, b=2)
        reg, kept = regularize(h, h.degrees().max())
        assert (reg != adjacency(h)).nnz == 0
        assert len(kept) == 60

    def test_threshold_zero(self):
        h = planted_hypergraph(n=60, a=6, b=2)
        reg, kept = regularize(h, 0)
        assert reg.nnz == 0
        assert set(kept) == set(np.flatnonzero(row_sums(adjacency(h)) == 0))

    def test_star_vertex_masked(self):
        n = 20
        h = Hypergraph(n, {2: np.stack([np.zeros(n - 1, dtype=int), np.arange(1, n)], axis=1)})
        reg, kept = regularize(h, 5)
        assert 0 not in kept
        dense = adjacency(h).toarray()
        dense[0, :] = 0
        dense[:, 0] = 0
        assert (reg.toarray() == dense).all()

    @pytest.mark.parametrize("threshold", [-1.0, np.nan])
    def test_bad_threshold_rejected(self, threshold):
        h = planted_hypergraph(n=60, a=6, b=2)
        with pytest.raises(ValueError, match="threshold must be a nonnegative number"):
            regularize(h, threshold)

    def test_postcondition_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(20, 80))
            h = planted_hypergraph(n=n, a=float(rng.uniform(2, 30)),
                                   b=float(rng.uniform(0, 2)), seed=int(rng.integers(1e6)))
            thr = float(rng.uniform(0, h.degrees().max() + 1))
            reg, _ = regularize(h, thr)
            assert (row_sums(reg) <= thr).all()


class TestTopSubspace:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(40)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(40)
        v /= np.linalg.norm(v)
        a = 3.5 * np.outer(u, v)
        basis = top_subspace(a, 1, "left-singular", tol=1e-12)
        assert basis.singular_values[0] == pytest.approx(3.5, abs=1e-10)
        pu = np.outer(basis.vectors[:, 0], basis.vectors[:, 0])
        assert np.linalg.norm(pu - np.outer(u, u), 2) < 1e-8

    def test_zero_matrix(self):
        a = sp.csr_array((10, 10))
        basis = top_subspace(a, 3)
        assert (basis.singular_values == 0).all()
        assert basis.vectors.shape == (10, 3)

    def test_matches_dense_svd(self):
        for seed in range(3):
            a = planted_instance(seed=seed)
            basis = top_subspace(a, 2, "left-singular", tol=1e-10, max_iter=2000)
            sv = np.linalg.svd(a.toarray(), compute_uv=False)
            assert np.abs(basis.singular_values - sv[:2]).max() < 1e-8 * sv[0]

    def test_symmetric_mode_orders_by_magnitude(self):
        d = np.diag([5.0, -4.0, 3.0, 1.0, -0.5])
        basis = top_subspace(d, 3, "symmetric-eigen", tol=1e-12)
        assert np.allclose(basis.singular_values, [5.0, 4.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_input_same_basis_as_operator_input(self, seed):
        # sparse input applies a^T through a view; an operator goes through op.H
        for a in (planted_instance(seed=seed), planted_instance(seed=seed).astype(np.int64)):
            direct = top_subspace(a, 2)
            via_operator = top_subspace(aslinearoperator(a), 2)
            assert np.array_equal(direct.vectors, via_operator.vectors)
            assert np.array_equal(direct.singular_values, via_operator.singular_values)
            assert spectral_norm(a) == spectral_norm(aslinearoperator(a))

    @pytest.mark.parametrize("mode", ["left-singular", "symmetric-eigen"])
    def test_integer_csr_solves_as_its_float64_copy(self, mode):
        h, _ = sample_hsbm(ModelParams(600, 2, {2: (20, 4), 3: (10, 2)}), 2)
        a = regularize(h, 60.0)[0].astype(np.int64)
        for k in (1, 3):
            got = top_subspace(a, k, mode, seed=5)
            want = top_subspace(a.astype(np.float64), k, mode, seed=5)
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.singular_values, want.singular_values)
        assert a.dtype == np.int64  # the input is left as it was

    def test_projector_stability_across_solver_seeds(self):
        a = planted_instance()
        b1 = top_subspace(a, 2, "left-singular", tol=1e-10, max_iter=2000, seed=1)
        b2 = top_subspace(a, 2, "left-singular", tol=1e-10, max_iter=2000, seed=2)
        p1 = b1.vectors @ b1.vectors.T
        p2 = b2.vectors @ b2.vectors.T
        assert np.linalg.norm(p1 - p2, 2) < 1e-6

    def test_nonconvergence_raises(self):
        a = np.diag(np.linspace(1.0, 0.99, 12))
        with pytest.raises(ConvergenceError):
            top_subspace(a, 1, "left-singular", tol=1e-15, max_iter=3)

    @pytest.mark.parametrize("mode", ["symmetric-eigen", "left-singular"])
    def test_k_equals_n(self, mode):
        # ARPACK needs k < n; the full basis is solved densely
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]
        dense = q @ np.diag([3.0, -2.0, 1.0, 0.5]) @ q.T
        for a in (dense, sp.csr_array(dense)):
            basis = top_subspace(a, 4, mode)
            assert np.allclose(basis.singular_values, [3.0, 2.0, 1.0, 0.5], atol=1e-12)
            assert np.allclose(np.abs(basis.vectors.T @ q), np.eye(4), atol=1e-10)

    def test_bad_arguments(self):
        a = np.eye(4)
        with pytest.raises(ValueError):
            top_subspace(a, 0)
        with pytest.raises(ValueError):
            top_subspace(a, 2, "sideways")


class TestSpectralNorm:
    def test_all_ones_offdiagonal(self):
        c = 2.5
        a = c * (np.ones((3, 3)) - np.eye(3))
        assert spectral_norm(a, 1e-10) == pytest.approx(2 * c, rel=1e-8)

    def test_zero(self):
        assert spectral_norm(sp.csr_array((5, 5)), 1e-8) == 0.0

    def test_zero_operator(self):
        # ARPACK rejects the zero start vector that op v0 gives
        zero = LinearOperator((5, 5), matvec=np.zeros_like, rmatvec=np.zeros_like,
                              dtype=np.float64)
        assert spectral_norm(zero) == 0.0
        basis = top_subspace(zero, 2, "symmetric-eigen")
        assert np.array_equal(basis.vectors, np.eye(5, 2))
        assert (basis.singular_values == 0).all()

    def test_matches_dense(self):
        for seed in range(3):
            a = planted_instance(n=200, seed=seed)
            want = np.linalg.norm(a.toarray(), 2)
            assert spectral_norm(a, 1e-10) == pytest.approx(want, rel=1e-8)

    def test_nonconvergence_raises(self):
        a = np.diag(np.linspace(1.0, 0.99, 12))
        with pytest.raises(ConvergenceError):
            spectral_norm(a, tol=1e-15, max_iter=3)

    @pytest.mark.parametrize("shape", [(30, 30), (30, 45), (45, 30)])
    def test_nonsymmetric_and_rectangular(self, shape):
        a = np.random.default_rng(7).standard_normal(shape)
        want = np.linalg.norm(a, 2)
        assert spectral_norm(a, 1e-10) == pytest.approx(want, rel=1e-8)
        assert spectral_norm(sp.csr_array(a), 1e-10) == pytest.approx(want, rel=1e-8)
