"""Concentration trials: operator correctness, determinism, and boundedness."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from hyperblock import concentration
from hyperblock.concentration import (
    concentration_trial,
    centered_operator,
    records_to_csv,
)
from hyperblock.config import parse_config
from hyperblock.model import ModelParams, expected_adjacency
from hyperblock.runner import conclab_records
from hyperblock.sampler import sample_hsbm
from hyperblock.spectral import adjacency, spectral_norm


class TestCenteredOperator:
    def test_matches_dense_product(self):
        # on an all-zero adjacency the operator is -E[A]
        rng = np.random.default_rng(0)
        for n, k in ((50, 2), (120, 3), (500, 4)):
            p = ModelParams(n, k, {2: (6, 2), 3: (5, 1)})
            op = centered_operator(p, sp.csr_array((n, n)))
            ea = expected_adjacency(p)
            v = rng.standard_normal(n)
            assert np.abs(op.matvec(v) + ea @ v).max() < 1e-10
            block = rng.standard_normal((n, 3))
            assert np.abs(op.matmat(block) + ea @ block).max() < 1e-10

    def test_centered_norm_matches_dense(self):
        p = ModelParams(200, 2, {2: (10, 5), 3: (10, 5)})
        h, _ = sample_hsbm(p, 3)
        a = adjacency(h).astype(np.float64)
        w = a.toarray() - expected_adjacency(p)
        want = np.linalg.norm(w, 2)
        got = spectral_norm(centered_operator(p, a), tol=1e-10, max_iter=8000, seed=3)
        assert got == pytest.approx(want, rel=1e-8)

    def test_masked_operator_matches_dense_masking(self):
        p = ModelParams(100, 2, {2: (20, 10)})
        h, _ = sample_hsbm(p, 1)
        a = adjacency(h).astype(np.float64)
        kept = np.arange(0, 100, 2)
        w = a.toarray() - expected_adjacency(p)
        mask = np.zeros(100)
        mask[kept] = 1.0
        wm = mask[:, None] * w * mask[None, :]
        got = spectral_norm(centered_operator(p, a, kept), tol=1e-10, max_iter=8000, seed=1)
        assert got == pytest.approx(np.linalg.norm(wm, 2), rel=1e-8)


class TestConcentrationTrial:
    def test_zero_rates(self):
        rec = concentration_trial(ModelParams(100, 2, {2: (0, 0)}), 0, tau=60.0)
        assert rec.raw_ratio == 0.0 and rec.reg_ratio == 0.0
        assert rec.kept_fraction == 1.0

    def test_zero_regularized_operator(self):
        # tau * d = 0.1 keeps one isolated vertex, where A - E[A] is zero
        rec = concentration_trial(ModelParams(500, 2, {2: (10, 5)}), 3, tau=0.01)
        assert rec.reg_ratio == 0.0 and rec.raw_ratio > 0
        assert rec.kept_fraction == 0.002

    def test_ratios_finite_and_fields(self):
        p = ModelParams(300, 2, {2: (10, 5), 3: (10, 5)})
        rec = concentration_trial(p, 7, tau=60.0)
        assert 0 < rec.raw_ratio < 10
        assert 0 < rec.reg_ratio < 10
        assert rec.d == 30.0
        assert 0 <= rec.kept_fraction <= 1
        assert rec.high_degree_count == round((1 - rec.kept_fraction) * 300)

    def test_runs_above_4000(self):
        rec = concentration_trial(ModelParams(5000, 2, {2: (5, 1)}), 0, tau=60.0)
        assert rec.n == 5000
        assert 0 < rec.raw_ratio < 10 and 0 < rec.reg_ratio < 10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ratios_match_dense_norms(self, seed):
        p = ModelParams(500, 2, {2: (10, 5), 3: (10, 5)})
        h, _ = sample_hsbm(p, seed)
        a = adjacency(h).toarray().astype(np.float64)
        # tau just under this instance's heaviest row, so that rows are zeroed
        tau = (a.sum(axis=1).max() - 0.5) / 30.0
        rec = concentration_trial(p, seed, tau=tau)
        assert rec.d == 30.0
        w = a - expected_adjacency(p)
        kept = (a.sum(axis=1) <= tau * rec.d).astype(np.float64)
        assert 0 < kept.sum() < p.n
        wm = kept[:, None] * w * kept[None, :]
        sqrt_d = math.sqrt(rec.d)
        assert rec.raw_ratio * sqrt_d == pytest.approx(np.linalg.norm(w, 2), rel=1e-8)
        assert rec.reg_ratio * sqrt_d == pytest.approx(np.linalg.norm(wm, 2), rel=1e-8)

    @staticmethod
    def count_solves(monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return spectral_norm(*args, **kwargs)

        monkeypatch.setattr(concentration, "spectral_norm", spy)
        return calls

    def test_untrimmed_trial_solves_once(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        rec = concentration_trial(ModelParams(500, 2, {2: (10, 5), 3: (10, 5)}), 1, tau=60.0)
        assert rec.kept_fraction == 1.0
        assert len(calls) == 1
        assert rec.reg_ratio == rec.raw_ratio

    def test_trimmed_trial_solves_twice(self, monkeypatch):
        p = ModelParams(500, 2, {2: (10, 5), 3: (10, 5)})
        h, _ = sample_hsbm(p, 1)
        tau = (adjacency(h).sum(axis=1).max() - 0.5) / 30.0
        calls = self.count_solves(monkeypatch)
        rec = concentration_trial(p, 1, tau=tau)
        assert rec.kept_fraction < 1.0
        assert len(calls) == 2

    def test_mask_keeping_every_vertex_gives_the_raw_norm(self):
        # why an untrimmed trial may reuse the raw norm: the solve is bit-identical
        p = ModelParams(500, 2, {2: (10, 5), 3: (10, 5)})
        h, _ = sample_hsbm(p, 2)
        a = adjacency(h).astype(np.float64)
        raw = spectral_norm(centered_operator(p, a), seed=2)
        assert spectral_norm(centered_operator(p, a, np.arange(p.n)), seed=2) == raw

    def test_log_degree_raw_ratio_bounded(self):
        # degree scale 2 ln n: the unregularized ratio stays under a fixed bound
        for n in (500, 1000, 2000, 4000):
            d = 2 * math.log(n)
            a2 = a3 = d / 3
            p = ModelParams(n, 2, {2: (a2, a2 / 2), 3: (a3, a3 / 2)})
            for seed in range(3):
                rec = concentration_trial(p, seed, tau=60.0)
                assert rec.raw_ratio < 3.0


class TestSweep:
    """The conclab grid: every size x trial seed, in order."""

    @staticmethod
    def config(extra):
        return parse_config("n = 80\nk = 2\norders = 2:6,3;3:4,1\n" + extra, "conclab")

    def test_cardinality(self):
        recs = conclab_records(self.config("sizes = 60\n"))
        assert len(recs) == 1
        recs = conclab_records(self.config("sizes = 60,80\ntrials = 3\n"))
        assert len(recs) == 6
        assert [r.n for r in recs] == [60, 60, 60, 80, 80, 80]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            self.config("sizes =\n")

    def test_csv_deterministic(self):
        cfg = self.config("sizes = 60\ntrials = 2\n")
        a = records_to_csv(conclab_records(cfg))
        b = records_to_csv(conclab_records(cfg))
        assert a == b
        assert a.startswith("n,k,d,tau,seed,raw_ratio,reg_ratio,kept_fraction,")
