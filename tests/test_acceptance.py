"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria
parallelize their independent trials over two worker processes; every
trial seed is fixed, so the whole gate is deterministic.
"""

import itertools
import math
import os
import statistics

import numpy as np
import pytest
import scipy.stats

from hyperblock.cli import main as cli_main
from hyperblock.concentration import concentration_trial
from hyperblock.metrics import gamma_correctness, matched_accuracy
from hyperblock.model import (
    ModelParams,
    expected_adjacency,
    expected_eigenvalues,
    preprocess_select,
)
from hyperblock.runner import DetectTrial, pmap, run_detect_trial
from hyperblock.sampler import sample_hsbm, trial_seed
from hyperblock.spectral import adjacency, top_subspace
from oracles import row_sums

JOBS = min(2, os.cpu_count() or 1)
BASE_SEED = 20260810


def gate(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_closed_form_eigenvalues():
    """Closed-form spectrum matches dense eigendecomposition within 1e-9."""
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = k * int(rng.integers(3, 200 // k + 1))
        orders = {}
        for m in range(2, int(rng.integers(3, 6))):
            if m > n:
                continue
            b = float(rng.uniform(0, 6))
            orders[m] = (b + float(rng.uniform(0, 6)), b)
        p = ModelParams(n, k, orders)
        lam1, lam2, rest = expected_eigenvalues(p)
        closed = np.sort(np.r_[lam1, np.full(k - 1, lam2), np.full(n - k, rest)])
        dense = np.sort(np.linalg.eigvalsh(expected_adjacency(p)))
        worst = max(worst, float(np.abs(closed - dense).max()))
    gate(1, worst < 1e-9, f"50 random configs, worst eigenvalue error {worst:.2e}")


def test_criterion_02_subset_selection_oracle():
    """Subset choice equals exhaustive enumeration on 1000 random models."""

    def oracle(n, k, orders):
        best = None
        for r in range(1, len(orders) + 1):
            for combo in itertools.combinations(sorted(orders), r):
                num = sum((m - 1) * (orders[m][0] - orders[m][1]) / k ** (m - 1)
                          for m in combo)
                den = sum((m - 1) * ((orders[m][0] - orders[m][1]) / k ** (m - 1)
                                     + orders[m][1]) for m in combo)
                snr = 0.0 if den == 0 else num * num / den
                key = (-snr, len(combo), combo)
                if best is None or key < best:
                    best = key
        return best[2]

    rng = np.random.default_rng(BASE_SEED + 1)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        ms = rng.permutation(np.arange(2, 7))[: rng.integers(1, 6)]
        orders = {}
        for m in sorted(int(x) for x in ms):
            b = float(np.round(rng.uniform(0, 5), rng.integers(0, 2)))
            a = b + float(np.round(rng.choice([0.0, rng.uniform(0, 6)]), 1))
            orders[m] = (a, b)
        if all(a == 0 and b == 0 for a, b in orders.values()):
            orders[2] = (1.0, 0.0)
        p = ModelParams(60, k, orders)
        if preprocess_select(p) != oracle(60, k, orders):
            mismatches += 1
    gate(2, mismatches == 0, f"1000 random models, {mismatches} mismatches")


def test_criterion_03_sampler_chi_square():
    """Per-stratum edge counts follow the exact binomial law (alpha = 0.01)."""
    p = ModelParams(60, 2, {2: (6, 3), 3: (6, 3)})
    counts = {(m, s): [] for m in (2, 3) for s in ("within", "cross")}
    for t in range(500):
        h, labels = sample_hsbm(p, trial_seed(BASE_SEED + 3, t))
        for m in (2, 3):
            lab = labels[h.edges[m]]
            within = int((lab == lab[:, :1]).all(axis=1).sum())
            counts[(m, "within")].append(within)
            counts[(m, "cross")].append(len(h.edges[m]) - within)

    strata = {
        (2, "within"): (2 * math.comb(30, 2), 6 / 59),
        (2, "cross"): (math.comb(60, 2) - 2 * math.comb(30, 2), 3 / 59),
        (3, "within"): (2 * math.comb(30, 3), 6 / math.comb(59, 2)),
        (3, "cross"): (math.comb(60, 3) - 2 * math.comb(30, 3), 3 / math.comb(59, 2)),
    }
    failures = []
    for key, (size, prob) in strata.items():
        dist = scipy.stats.binom(size, prob)
        edges = np.unique(dist.ppf(np.linspace(0.1, 0.9, 9)))
        bins = np.r_[-np.inf, edges, np.inf]
        observed, _ = np.histogram(counts[key], bins=bins)
        cdf = dist.cdf(np.r_[edges, np.inf])
        expect = 500 * np.diff(np.r_[0.0, cdf])
        keep = expect >= 5
        stat = float(((observed[keep] - expect[keep]) ** 2 / expect[keep]).sum())
        crit = scipy.stats.chi2.ppf(0.99, df=keep.sum() - 1)
        if stat >= crit:
            failures.append((key, stat, crit))
    gate(3, not failures, f"chi-square per stratum over 500 trials: {failures or 'all ok'}")


def test_criterion_04_regularization_postcondition():
    """After masking heavy rows at 20 * max-order * d, no row sum exceeds it."""
    from hyperblock.spectral import regularize

    rng = np.random.default_rng(BASE_SEED + 4)
    bad = 0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(8 * k, 120))
        orders = {2: (float(rng.uniform(1, 40)), float(rng.uniform(0, 1))),
                  3: (float(rng.uniform(0, 20)), float(rng.uniform(0, 1)))}
        orders = {m: (max(ab), min(ab)) for m, ab in orders.items()}
        p = ModelParams(n, k, orders)
        h, _ = sample_hsbm(p, int(rng.integers(2**32)))
        d = sum((m - 1) * ab[0] for m, ab in orders.items())
        threshold = 20 * max(orders) * d
        reg, _ = regularize(h, threshold)
        if not (row_sums(reg) <= threshold).all():
            bad += 1
    gate(4, bad == 0, f"100 random instances, {bad} row-sum violations")


def test_criterion_05_solver_fidelity():
    """Top-k singular values within 1e-8 relative, projectors within 1e-6."""
    rng = np.random.default_rng(BASE_SEED + 5)
    worst_sv, worst_proj = 0.0, 0.0
    for trial in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(120, 301))
        p = ModelParams(n, k, {2: (50.0, 2.0), 3: (30.0, 1.0)})
        h, _ = sample_hsbm(p, int(rng.integers(2**32)))
        a = adjacency(h).astype(np.float64)
        basis = top_subspace(a, k, "left-singular", tol=1e-11, max_iter=4000,
                             seed=trial)
        u_ref, s_ref, _ = np.linalg.svd(a.toarray())
        worst_sv = max(worst_sv,
                       float(np.abs(basis.singular_values - s_ref[:k]).max() / s_ref[0]))
        p_ours = basis.vectors @ basis.vectors.T
        p_ref = u_ref[:, :k] @ u_ref[:, :k].T
        worst_proj = max(worst_proj, float(np.linalg.norm(p_ours - p_ref, 2)))
    gate(5, worst_sv < 1e-8 and worst_proj < 1e-6,
         f"20 instances, worst value error {worst_sv:.2e}, projector error {worst_proj:.2e}")


def _c6_trial(args):
    n, t = args
    p = ModelParams(n, 2, {2: (10.0, 5.0), 3: (10.0, 5.0)})
    return concentration_trial(p, trial_seed(BASE_SEED + 6, n, t), tau=60.0).reg_ratio


def test_criterion_06_concentration_trend():
    """90th-percentile regularized ratio non-increasing in n and bounded by 10.

    The boundedness half holds with a wide margin.  The monotone half is
    implemented exactly as stated and is expected to fail: at fixed degree
    scale the ratio's mean drifts slightly upward with n while its spread
    shrinks, leaving the percentile flat to within noise.  Measured p90 for
    n = 500, 1000, 2000, 4000: 1.8545, 1.8241, 1.8248, 1.8303 -- far below
    10, but 1.8241 < 1.8248 < 1.8303 breaks the non-increasing chain.
    """
    sizes = (500, 1000, 2000, 4000)
    tasks = [(n, t) for n in sizes for t in range(50)]
    ratios = pmap(_c6_trial, tasks, JOBS)
    p90 = {}
    for n in sizes:
        vals = [r for (m, _), r in zip(tasks, ratios) if m == n]
        p90[n] = float(np.percentile(vals, 90))
    chain = [p90[n] for n in sizes]
    bounded = max(chain) < 10.0
    monotone = all(chain[i] >= chain[i + 1] for i in range(len(chain) - 1))
    gate(6, bounded and monotone,
         "p90 of regularized ratio over n=500..4000: "
         + ", ".join(f"{v:.4f}" for v in chain)
         + f" (bounded: {bounded}, non-increasing: {monotone})")


def _c7_trial(t):
    p = ModelParams(5000, 2, {2: (10.0, 5.0), 3: (10.0, 5.0)})
    h, _ = sample_hsbm(p, trial_seed(BASE_SEED + 7, t))
    rows = row_sums(adjacency(h))
    d = 30.0
    return float((rows > 20 * 3 * d).sum() / 5000) > d**-3


def test_criterion_07_high_degree_sparsity():
    """Heavy-vertex fraction exceeds d^-3 in at most 5% of 100 trials."""
    violations = sum(pmap(_c7_trial, range(100), JOBS))
    gate(7, violations <= 5, f"{violations} of 100 trials exceeded the d^-3 fraction")


def test_criterion_08_recovery_quality():
    """Median min-block overlap >= 0.9 on the planted model; null near 1/3."""
    planted = ModelParams(3000, 3, {2: (80.0, 2.0), 3: (40.0, 2.0)})
    specs = [DetectTrial(planted, 0.75,
                         trial_seed(BASE_SEED + 8, t, 0),
                         trial_seed(BASE_SEED + 8, t, 1)) for t in range(20)]
    gammas = [rep.gamma for rep in pmap(run_detect_trial, specs, JOBS)]
    med_gamma = statistics.median(gammas)

    null = ModelParams(3000, 3, {2: (80.0, 80.0), 3: (40.0, 40.0)})
    specs = [DetectTrial(null, 0.75,
                         trial_seed(BASE_SEED + 80, t, 0),
                         trial_seed(BASE_SEED + 80, t, 1)) for t in range(20)]
    accs = [rep.matched_accuracy for rep in pmap(run_detect_trial, specs, JOBS)]
    med_null = statistics.median(accs)
    gate(8, med_gamma >= 0.9 and 0.28 <= med_null <= 0.40,
         f"median gamma {med_gamma:.4f} (>= 0.9), null accuracy {med_null:.4f} (in [0.28, 0.40])")


def test_criterion_09_weak_consistency_trend():
    """Median misclassification strictly decreasing along the rate-gap ladder."""
    gaps = (10.0, 20.0, 40.0, 80.0)
    base_b = 10.0
    specs, meta = [], []
    for rung, gap in enumerate(gaps):
        p = ModelParams(3000, 2, {3: (base_b + gap, base_b)})
        for t in range(20):
            specs.append(DetectTrial(p, 0.75,
                                     trial_seed(BASE_SEED + 9, rung, t, 0),
                                     trial_seed(BASE_SEED + 9, rung, t, 1)))
            meta.append(rung)
    reports = pmap(run_detect_trial, specs, JOBS)
    medians = []
    for rung in range(len(gaps)):
        fr = [rep.misclassified / 3000 for rep, r in zip(reports, meta) if r == rung]
        medians.append(statistics.median(fr))
    strict = all(medians[i] > medians[i + 1] for i in range(len(medians) - 1))
    gate(9, strict, "medians along the ladder: "
         + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_10_metric_oracle():
    """Assignment-based metrics equal brute force over every injective relabeling.

    1000 random square labelings, then 250 each of three harder kinds:
    more estimated than true blocks, contingency tables with zero cells,
    and estimates with unassigned (-1) labels.
    """

    def brute(truth, estimate, k_true, k_est):
        best_min, best_sum = 0.0, 0
        sizes = np.bincount(truth, minlength=k_true)
        for perm in itertools.permutations(range(k_est), k_true):
            hits = [np.sum((truth == i) & (estimate == perm[i])) for i in range(k_true)]
            best_min = max(best_min, min(h / s for h, s in zip(hits, sizes)))
            best_sum = max(best_sum, sum(hits))
        return best_min, best_sum / len(truth)

    def labelings(rng, kind, count):
        for _ in range(count):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 60))
            truth = rng.integers(0, k, size=n)
            truth[:k] = np.arange(k)
            k_est = k + int(rng.integers(1, 3)) if kind == "rectangular" else k
            if kind == "zero cells":
                # a few labels, few vertices: most of the table stays empty
                truth = truth[:k + int(rng.integers(0, 4))]
                estimate = rng.choice(rng.permutation(k)[:int(rng.integers(1, k + 1))],
                                      size=len(truth))
            else:
                estimate = rng.integers(-1 if kind == "unassigned" else 0, k_est, size=n)
            if kind == "rectangular":
                estimate[:1] = k_est - 1  # the table spans all k_est columns
            yield truth, estimate, k, k_est

    kinds = {"square": 1000, "rectangular": 250, "zero cells": 250, "unassigned": 250}
    mismatches = 0
    for i, (kind, count) in enumerate(kinds.items()):
        rng = np.random.default_rng([BASE_SEED + 10, i] if i else BASE_SEED + 10)
        for truth, estimate, k, k_est in labelings(rng, kind, count):
            want_gamma, want_acc = brute(truth, estimate, k, k_est)
            if (gamma_correctness(truth, estimate) != pytest.approx(want_gamma)
                    or matched_accuracy(truth, estimate) != pytest.approx(want_acc)):
                mismatches += 1
    gate(10, mismatches == 0,
         f"{sum(kinds.values())} labelings, {mismatches} mismatches vs brute force")


def test_criterion_11_cli_reproducibility(tmp_path):
    """Every CLI command is byte-identical across reruns, including --jobs 2."""
    base = "n = 200\nk = 2\norders = 2:30,3\nseed = 5\n"
    configs = {
        "snr": "n = 60\nk = 2\norders = 2:6,3;3:8,1\n",
        "sample": base,
        "detect": base,
        "experiment": ("n = 300\nk = 2\norders = 2:0,0\nladder = 20,40\n"
                       "base_b = 3\ntrials = 2\nseed = 3\n"),
        "conclab": "n = 80\nk = 2\norders = 2:6,3;3:4,1\nsizes = 60,80\ntrials = 2\n",
    }
    problems = []
    for command, cfg_text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(cfg_text)
        outputs = []
        for run, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{command}.{run}.out"
            code = cli_main([command, "--config", str(cfg), "--jobs", jobs,
                             "--out", str(out)])
            if code != 0:
                problems.append(f"{command} exited {code}")
                break
            blob = out.read_bytes()
            if command == "experiment":
                blob += (tmp_path / f"{command}.{run}.out.summary").read_bytes()
            outputs.append(blob)
        if len(set(outputs)) > 1:
            problems.append(f"{command} produced differing bytes")
    gate(11, not problems, f"5 commands x 3 runs: {problems or 'all byte-identical'}")
