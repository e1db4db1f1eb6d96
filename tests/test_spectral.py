"""Sparse linear algebra against dense references and exact postconditions."""

import numpy as np
import pytest
import scipy.sparse as sp

from hyperblock.model import ModelParams
from hyperblock.sampler import Hypergraph, sample_hsbm
from hyperblock.spectral import (
    ConvergenceError,
    adjacency,
    bipartite_embed,
    incidence,
    regularize,
    row_sums,
    spectral_norm,
    top_subspace,
)


def planted_instance(n=260, k=2, a=40, b=4, seed=0):
    h, _ = sample_hsbm(ModelParams(n, k, {2: (a, b)}), seed)
    return adjacency(h).astype(np.float64)


class TestIncidence:
    def test_rows_follow_orders_and_edges(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (8, 3), 3: (6, 2), 4: (5, 2)}), 1)
        inc, order = incidence(h)
        rows = [list(row) for m in sorted(h.edges) for row in h.edges[m].tolist()]
        assert inc.shape == (len(rows), 30)
        assert order.tolist() == [len(r) for r in rows]
        assert [inc.indices[inc.indptr[e]:inc.indptr[e + 1]].tolist()
                for e in range(len(rows))] == rows
        assert (inc.data == 1).all()

    def test_gram_off_diagonal_is_adjacency(self):
        h, _ = sample_hsbm(ModelParams(40, 2, {2: (8, 3), 3: (5, 2)}), 2)
        inc, _ = incidence(h)
        gram = (inc.T @ inc).toarray()
        np.fill_diagonal(gram, 0)
        assert (gram == adjacency(h).toarray()).all()

    def test_edgeless(self):
        for h in (Hypergraph(5, {}), Hypergraph(5, {3: np.empty((0, 3), dtype=np.int64)})):
            inc, order = incidence(h)
            assert inc.shape == (0, 5) and len(order) == 0
            assert (inc @ np.ones((5, 2))).shape == (0, 2)


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


class TestRowSums:
    def test_weighted_edge_count(self):
        h = Hypergraph(4, {3: np.array([[0, 1, 2]])})
        assert row_sums(adjacency(h)).tolist() == [2, 2, 2, 0]

    def test_empty(self):
        assert row_sums(adjacency(Hypergraph(3, {}))).tolist() == [0, 0, 0]

    def test_matches_dense(self):
        h, _ = sample_hsbm(ModelParams(30, 2, {2: (6, 3), 3: (4, 2)}), 1)
        a = adjacency(h)
        assert (row_sums(a) == a.toarray().sum(axis=1)).all()


class TestRegularize:
    def test_identity_below_threshold(self):
        a = planted_instance(n=60, a=6, b=2)
        reg, kept = regularize(a, row_sums(a).max())
        assert (reg != a).nnz == 0
        assert len(kept) == 60

    def test_threshold_zero(self):
        a = planted_instance(n=60, a=6, b=2)
        reg, kept = regularize(a, 0)
        assert reg.nnz == 0
        assert set(kept) == set(np.flatnonzero(row_sums(a) == 0))

    def test_star_vertex_masked(self):
        n = 20
        rows = np.zeros(n - 1, dtype=int)
        cols = np.arange(1, n)
        a = sp.coo_array((np.ones(n - 1), (rows, cols)), shape=(n, n)).tocsr()
        a = a + a.T
        reg, kept = regularize(a, 5)
        assert 0 not in kept
        dense = a.toarray()
        dense[0, :] = 0
        dense[:, 0] = 0
        assert (reg.toarray() == dense).all()

    def test_postcondition_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(20, 80))
            a = planted_instance(n=n, a=float(rng.uniform(2, 30)),
                                 b=float(rng.uniform(0, 2)), seed=int(rng.integers(1e6)))
            thr = float(rng.uniform(0, row_sums(a).max() + 1))
            reg, _ = regularize(a, thr)
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
