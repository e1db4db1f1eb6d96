"""Closed-form model algebra against hand values and enumeration oracles."""

import itertools
import logging
import math

import numpy as np
import pytest

from hyperblock import pipeline, sampler
from hyperblock.model import (
    REGULARIZATION_FACTOR,
    ModelParams,
    ResourceLimitError,
    binary_correction_threshold,
    blue_conditional_probs,
    blue_density_thresholds,
    comb_floor,
    degree_scale,
    error_rate_constant,
    expected_adjacency,
    expected_eigenvalues,
    expected_rates,
    ground_truth_labels,
    merging_threshold,
    order_subsets,
    preprocess_select,
    regularization_threshold,
    snr_subset,
)

def brute_force_snr(n, k, orders, members):
    """Independent SNR evaluation, written from the displayed formula."""
    num = sum((m - 1) * (orders[m][0] - orders[m][1]) / k ** (m - 1) for m in members)
    den = sum((m - 1) * ((orders[m][0] - orders[m][1]) / k ** (m - 1) + orders[m][1])
              for m in members)
    return 0.0 if den == 0 else num**2 / den


def brute_force_select(n, k, orders):
    """Exhaustive subset argmax with the documented tie rule."""
    best = None
    for r in range(1, len(orders) + 1):
        for combo in itertools.combinations(sorted(orders), r):
            key = (-brute_force_snr(n, k, orders, combo), len(combo), combo)
            if best is None or key < best:
                best = key
    return best[2]


def pair_expectation_oracle(n, k, orders, i, j, labels):
    """E[A_ij] by exhaustive enumeration of every edge containing the pair."""
    total = 0.0
    for m, (a, b) in orders.items():
        denom = math.comb(n, m - 1)
        others = [v for v in range(n) if v not in (i, j)]
        for extra in itertools.combinations(others, m - 2):
            verts = (i, j) + extra
            same = len({labels[v] for v in verts}) == 1
            total += (a if same else b) / denom
    return total


class TestModelParams:
    @pytest.mark.parametrize("rates", [(math.inf, 5), (math.inf, math.inf), (math.nan, 5)])
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="order 2: "):
            ModelParams(500, 2, {2: rates})

    def test_rate_above_cap_clamped_to_probability_one(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hyperblock"):
            p = ModelParams(40, 2, {2: (60, 50), 3: (5, 1)})
        # comb(40, 1) = 40: both rates of order 2 become 40, so a >= b still holds
        assert p.orders == {2: (40.0, 40.0), 3: (5, 1)}
        assert [type(r) for r in p.orders[2]] == [float, float]
        assert [r.getMessage() for r in caplog.records] == [
            "order 2: rate 60 above comb(n, m-1) = 40.0, clamped to it (probability 1)"]

    def test_rate_at_cap_kept(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hyperblock"):
            p = ModelParams(40, 2, {2: (40, 39), 3: (780, 0)})
        assert p.orders == {2: (40, 39), 3: (780, 0)}
        assert caplog.records == []

    def test_clamped_model_is_the_capped_model(self):
        clamped = ModelParams(40, 2, {2: (90, 1)})
        capped = ModelParams(40, 2, {2: (40, 1)})
        assert clamped == capped
        assert snr_subset(clamped, (2,)) == snr_subset(capped, (2,))
        assert merging_threshold(clamped, (2,), 0.75) == merging_threshold(capped, (2,), 0.75)

    @pytest.mark.parametrize("n, k, orders, named", [
        (1000, 3, {2: (5, 1), 700: (3, 1)}, "order 700: k\\^\\(m-1\\)"),
        (520, 3, {515: (5, 1)}, "order 515: 2\\^\\(2m\\+3\\)"),
        (10000, 2, {2: (1, 0), 200: (1, 0)}, "order 200: comb\\(n, m-1\\)"),
        (10**6, 2, {500001: (1, 0)}, "order 500001: comb"),  # decided without the exact binomial
        (10**6, 2, {1025: (1, 0)}, "order 1025: "),
    ], ids=["k-power", "two-power", "comb", "comb-decided-without-it", "k-power-decided-without-it"])
    def test_order_beyond_float_range_rejected(self, n, k, orders, named):
        with pytest.raises(ValueError, match=named):
            ModelParams(n, k, orders)

    def test_degree_scale_and_threshold_beyond_float_range_rejected(self):
        # the all-orders values bound every subset's, so checking them covers all
        with pytest.raises(ValueError, match="the degree scale"):
            ModelParams(2000, 5, {229: (1e308, 0)})  # clamped to 4.2e306; 228 times that is inf
        d = 228 * 4e304
        assert math.isfinite(d) and math.isinf(REGULARIZATION_FACTOR * 229 * d)
        with pytest.raises(ValueError, match="the regularization threshold"):
            ModelParams(2000, 5, {229: (4e304, 0)})
        p = ModelParams(2000, 5, {229: (4e304 / (REGULARIZATION_FACTOR * 229), 0)})
        assert math.isfinite(regularization_threshold(p, (229,)))

    def test_snr_sums_beyond_float_range_rejected(self):
        # comb(n, 2) = 5e199 fits, but the numerator's square does not
        with pytest.raises(ValueError, match="signal-to-noise sums"):
            ModelParams(10**100, 2, {3: (1e200, 0)})
        assert snr_subset(ModelParams(10**100, 2, {3: (1e200, 1e200)}), (3,)) == 0.0


def _accepts(n, k, m, rates=(5, 1)):
    try:
        ModelParams(n, k, {m: rates})
    except ValueError:
        return False
    return True


def _largest_accepted_orders(n, k, rates=(5, 1)):
    """The largest order accepted with these rates, and the one below the first rejected."""
    orders = range(2, min(n, 1024) + 1)  # k^(m-1) >= 2^1024 past 1024
    largest = max(m for m in orders if _accepts(n, k, m, rates))
    return {largest, next((m - 1 for m in orders if not _accepts(n, k, m, rates)), largest)}


def _assert_closed_forms_finite(p, m):
    ms, k = (m,), p.k
    expected = expected_rates(p)
    values = [snr_subset(p, ms), degree_scale(p, ms), regularization_threshold(p, ms),
              expected.alpha, expected.beta, *blue_conditional_probs(p, ms)[m],
              merging_threshold(p, ms, 0.75), binary_correction_threshold(p, ms, 0.75),
              *blue_density_thresholds(p, ms, 0.75), error_rate_constant(ms, 0.75, k),
              *pipeline.centering_vector(p, ms, [0, 1])[:2]]
    if p.n % k == 0:
        values += expected_eigenvalues(p)
    assert all(type(v) in (float, np.float64) and math.isfinite(v) for v in values), (p, values)


GRID = [(40, 2), (1000, 3), (1030, 2), (2000, 5), (10**6, 2)]


@pytest.mark.parametrize("n, k", GRID)
def test_closed_forms_finite_at_the_largest_accepted_orders(n, k):
    for m in _largest_accepted_orders(n, k):
        for rates in [(5, 1), (0, 0), (5, 5)]:
            _assert_closed_forms_finite(ModelParams(n, k, {m: rates}), m)


@pytest.mark.parametrize("n, k", GRID)
def test_closed_forms_finite_with_rates_at_their_caps(n, k):
    # ModelParams clamps 1e308 to comb(n, m-1); where a count times a rate
    # overflows, the closed forms divide the count by comb(n, m-1) first
    for rates in [(1e308, 1e308), (1e308, 1), (1e308, 0)]:
        for m in _largest_accepted_orders(n, k, rates):
            _assert_closed_forms_finite(ModelParams(n, k, {m: rates}), m)


def test_closed_forms_beyond_an_overflowing_product():
    # a = b = comb(1000, 509) ~ 2.3e299: comb(998, 508) a overflows, but
    # alpha = beta = comb(998, 508) a / comb(1000, 509) = comb(998, 508)
    p = ModelParams(1000, 3, {510: (1e308, 1e308)})
    rates = expected_rates(p)
    assert rates.alpha == rates.beta
    assert math.isclose(rates.beta, float(math.comb(998, 508)), rel_tol=1e-12)
    # on Z, (alpha_bar + beta_bar) / 2 = comb(748, 508) a / comb(1000, 509)
    cv = pipeline.centering_vector(p, (510,), [0])
    assert math.isclose(cv[0], float(math.comb(748, 508)), rel_tol=1e-12) and cv[1] == 0.0


class TestCombFloor:
    def test_empty_set_convention(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-3, 20)
            j = int(rng.integers(0, 8))
            if math.floor(x + 1e-9) < j:
                assert comb_floor(x, j) == 0
            else:
                assert comb_floor(x, j) == math.comb(math.floor(x + 1e-9), j)

    def test_exact_integer_arguments_survive_float_noise(self):
        # 0.1 * 40 / 4 is 0.999... in binary; must still count as 1
        assert comb_floor((1 - 0.9) * 40 / 4, 1) == 1


class TestDegreeScale:
    def test_hand_values(self):
        p = ModelParams(40, 2, {2: (3, 1), 3: (5, 1)})
        assert degree_scale(p, (2, 3)) == 13
        assert degree_scale(ModelParams(40, 2, {2: (0, 0)}), (2,)) == 0
        assert degree_scale(ModelParams(40, 2, {2: (3, 1)}), (2,)) == 3

    def test_missing_order_rejected(self):
        p = ModelParams(40, 2, {2: (3, 1)})
        with pytest.raises(ValueError):
            degree_scale(p, (3,))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="order subset must be nonempty"):
            degree_scale(ModelParams(40, 2, {2: (3, 1)}), ())

    def test_regularization_threshold_is_twenty_max_order_d(self):
        p = ModelParams(40, 2, {2: (3, 1), 3: (5, 1)})
        assert regularization_threshold(p, (2, 3)) == 20 * 3 * 13.0
        assert regularization_threshold(p, (2,)) == 20 * 2 * 3.0
        assert type(regularization_threshold(p, (3,))) is float


class TestSnr:
    def test_hand_values(self):
        assert snr_subset(ModelParams(40, 2, {2: (5, 1)}), (2,)) == pytest.approx(4 / 3)
        assert snr_subset(ModelParams(40, 2, {3: (8, 0)}), (3,)) == pytest.approx(4.0)
        assert snr_subset(ModelParams(40, 3, {2: (2, 2), 3: (1, 1)}), (2, 3)) == 0.0

    def test_nonnegative_and_zero_iff_no_signal(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            orders = {}
            for m in range(2, int(rng.integers(3, 6))):
                b = float(rng.uniform(0, 5))
                gap = float(rng.choice([0.0, rng.uniform(0, 5)]))
                orders[m] = (b + gap, b)
            p = ModelParams(60, k, orders)
            snr = snr_subset(p, tuple(orders))
            assert snr >= 0.0
            no_signal = all(a == b for a, b in orders.values())
            assert (snr == 0.0) == no_signal

    def test_finite_on_every_accepted_model(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(10 ** rng.uniform(1, 120))
            orders = {}
            for m in rng.choice(np.arange(2, 9), size=int(rng.integers(1, 4)), replace=False):
                a = float(10 ** rng.uniform(0, 308))
                orders[int(m)] = (a, a * float(rng.choice([0.0, rng.uniform()])))
            try:
                p = ModelParams(n, int(rng.integers(2, 6)), orders)
            except ValueError:
                continue
            assert all(math.isfinite(snr_subset(p, c)) for c in order_subsets(p))

    def test_clamped_rates_select_by_snr(self):
        # both rates exceed comb(n, m-1); the clamped model has a finite snr per subset
        p = ModelParams(40, 2, {2: (1e308, 0), 3: (1e308, 0)})
        assert [snr_subset(p, c) for c in order_subsets(p)] == [20.0, 390.0, 410.0]
        assert preprocess_select(p) == (2, 3)


class TestOrderSubsets:
    def test_by_size_then_lexicographic(self):
        p = ModelParams(40, 2, {5: (3, 1), 2: (4, 1), 3: (2, 2)})
        assert order_subsets(p) == [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
        assert order_subsets(ModelParams(40, 2, {4: (1, 0)})) == [(4,)]


class TestPreprocessSelect:
    def test_spec_examples(self):
        assert preprocess_select(ModelParams(40, 2, {2: (1, 1), 3: (8, 0)})) == (3,)
        assert preprocess_select(ModelParams(40, 2, {2: (5, 1)})) == (2,)
        p = ModelParams(40, 2, {2: (5, 1), 3: (5, 1)})
        assert preprocess_select(p) == brute_force_select(40, 2, p.orders)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            preprocess_select(ModelParams(40, 2, {2: (0, 0), 3: (0, 0)}))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            orders = {}
            for m in range(2, int(rng.integers(3, 7))):
                b = float(np.round(rng.uniform(0, 4), 1))
                a = b + float(np.round(rng.choice([0.0, rng.uniform(0, 6)]), 1))
                orders[m] = (a, b)
            if all(a == 0 and b == 0 for a, b in orders.values()):
                continue
            p = ModelParams(80, k, orders)
            assert preprocess_select(p) == brute_force_select(80, k, orders)


class TestExpectedRates:
    def test_hand_value(self):
        r = expected_rates(ModelParams(6, 2, {2: (4, 2)}))
        assert r.alpha == pytest.approx(2 / 3)
        assert r.beta == pytest.approx(1 / 3)

    def test_equal_rates_collapse(self):
        r = expected_rates(ModelParams(12, 3, {2: (3, 3), 3: (2, 2)}))
        assert r.alpha == pytest.approx(r.beta)

    def test_against_pair_enumeration(self):
        p = ModelParams(8, 2, {3: (6, 3)})
        labels = np.repeat([0, 1], 4)
        r = expected_rates(p)
        # (0, 1) same block, (0, 4) across
        assert r.alpha == pytest.approx(pair_expectation_oracle(8, 2, p.orders, 0, 1, labels))
        assert r.beta == pytest.approx(pair_expectation_oracle(8, 2, p.orders, 0, 4, labels))


class TestGroundTruthLabels:
    def test_one_rule_for_planted_labels(self):
        assert sampler.ground_truth_labels is ground_truth_labels
        labels = ground_truth_labels(11, 3)
        assert labels.dtype == np.int64 and labels.tolist() == [0] * 4 + [1] * 4 + [2] * 3

    def test_expected_adjacency_blocks_follow_the_labels(self):
        p = ModelParams(11, 3, {2: (5, 1)})
        labels = ground_truth_labels(11, 3)
        same = labels[:, None] == labels[None, :]
        ea = expected_adjacency(p)
        off = ~np.eye(11, dtype=bool)
        assert (ea[same & off] == expected_rates(p).alpha).all()
        assert (ea[~same] == expected_rates(p).beta).all()


class TestExpectedAdjacency:
    def test_block_structure(self):
        p = ModelParams(6, 2, {2: (4, 2)})
        ea = expected_adjacency(p)
        r = expected_rates(p)
        assert ea.shape == (6, 6)
        assert np.allclose(np.diag(ea), 0)
        assert ea[0, 1] == pytest.approx(r.alpha)
        assert ea[0, 4] == pytest.approx(r.beta)
        assert np.allclose(ea, ea.T)

    def test_equal_rates_gives_flat_offdiagonal(self):
        p = ModelParams(8, 2, {2: (3, 3)})
        ea = expected_adjacency(p)
        r = expected_rates(p)
        off = ea[~np.eye(8, dtype=bool)]
        assert np.allclose(off, r.beta)

    def test_row_sums_identity(self):
        p = ModelParams(12, 3, {2: (5, 2), 3: (4, 1)})
        ea = expected_adjacency(p)
        r = expected_rates(p)
        expect = (12 / 3 - 1) * r.alpha + (12 - 12 / 3) * r.beta
        assert np.allclose(ea.sum(axis=1), expect)

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            expected_adjacency(ModelParams(3000, 2, {2: (1, 0)}), dense_cap=2000)


class TestExpectedEigenvalues:
    def test_hand_value(self):
        lam1, lam2, rest = expected_eigenvalues(ModelParams(6, 2, {2: (4, 2)}))
        assert lam1 == pytest.approx(7 / 3)
        assert lam2 == pytest.approx(1 / 3)
        assert rest == pytest.approx(-2 / 3)

    def test_no_signal_degeneracy(self):
        lam1, lam2, rest = expected_eigenvalues(ModelParams(8, 2, {2: (3, 3)}))
        assert lam2 == pytest.approx(rest)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            n = k * int(rng.integers(3, 20))
            b = float(rng.uniform(0, 4))
            p = ModelParams(n, k, {2: (b + rng.uniform(0, 4), b), 3: (4, 1)})
            lam1, lam2, rest = expected_eigenvalues(p)
            closed = np.sort(np.r_[lam1, np.full(k - 1, lam2), np.full(n - k, rest)])
            dense = np.sort(np.linalg.eigvalsh(expected_adjacency(p)))
            assert np.abs(closed - dense).max() < 1e-9

    def test_requires_divisible_n(self):
        with pytest.raises(ValueError):
            expected_eigenvalues(ModelParams(7, 2, {2: (3, 1)}))


class TestBlueConditionalProbs:
    def test_hand_value(self):
        probs = blue_conditional_probs(ModelParams(4, 2, {2: (2, 0)}), (2,))
        psi, phi = probs[2]
        assert psi == pytest.approx(1 / 3)
        assert phi == 0.0

    def test_symmetry_and_ordering(self):
        probs = blue_conditional_probs(ModelParams(30, 2, {2: (4, 4), 3: (6, 2)}), (2, 3))
        assert probs[2][0] == probs[2][1]
        for psi, phi in probs.values():
            assert 0 <= phi <= psi < 1

    def test_clamped_rate_gives_psi_one(self):
        # a_2 = 9 is clamped to comb(4, 1) = 4, so q = 4 / 8 = 1/2 and psi = q / (1 - q) = 1
        assert blue_conditional_probs(ModelParams(4, 2, {2: (9, 0)}), (2,)) == {2: (1.0, 0.0)}


class TestMergingThreshold:
    def test_hand_value(self):
        p = ModelParams(40, 2, {2: (40, 8)})
        assert merging_threshold(p, (2,), 0.9) == pytest.approx(50 / 9, rel=1e-12)

    def test_zero_cross_rate(self):
        p = ModelParams(40, 2, {2: (10, 0)})
        probs = blue_conditional_probs(p, (2,))
        psi = probs[2][0]
        want = 0.5 * (comb_floor(0.75 * 10, 1) + comb_floor(0.25 * 10, 1)) * psi
        assert merging_threshold(p, (2,), 0.75) == pytest.approx(want, rel=1e-12)

    def test_equal_rates(self):
        p = ModelParams(48, 2, {2: (5, 5), 3: (3, 3)})
        probs = blue_conditional_probs(p, (2, 3))
        want = sum((m - 1) * comb_floor(48 / 4, m - 1) * probs[m][1] for m in (2, 3))
        assert merging_threshold(p, (2, 3), 0.8) == pytest.approx(want, rel=1e-12)


class TestBlueDensityThresholds:
    def test_hand_value(self):
        p = ModelParams(80, 2, {2: (40, 8)})
        mu1, mu2, mut = blue_density_thresholds(p, (2,), 0.9)
        assert mu1 == pytest.approx(80.6, rel=1e-12)
        assert mu2 == pytest.approx(87.4, rel=1e-12)
        assert mut == pytest.approx(84.0, rel=1e-12)

    def test_equal_rates_collapse(self):
        p = ModelParams(64, 2, {2: (6, 6), 3: (3, 3)})
        mu1, mu2, mut = blue_density_thresholds(p, (2, 3), 0.75)
        want = 0.5 * sum(m * (m - 1) * comb_floor(64 / 4, m) * p.orders[m][1]
                         / math.comb(64, m - 1) for m in (2, 3))
        for v in (mu1, mu2, mut):
            assert v == pytest.approx(want, rel=1e-12)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(8 * k, 400))
            b = float(rng.uniform(0, 5))
            p = ModelParams(n, k, {2: (b + rng.uniform(0, 8), b), 3: (6, 2)})
            nu = float(rng.uniform(0.51, 0.99))
            mu1, mu2, mut = blue_density_thresholds(p, (2, 3), nu)
            assert mu1 <= mut <= mu2

    def test_strict_gap_with_signal_at_large_n(self):
        p = ModelParams(4000, 3, {2: (10, 2), 3: (8, 1)})
        mu1, mu2, _ = blue_density_thresholds(p, (2, 3), 0.75)
        assert mu2 > mu1


class TestBinaryCorrectionThreshold:
    def test_reduces_to_merging_shape_with_half_blocks(self):
        p = ModelParams(40, 2, {2: (12, 4)})
        probs = blue_conditional_probs(p, (2,))
        psi, phi = probs[2]
        want = 0.5 * ((comb_floor(0.75 * 20, 1) + comb_floor(0.25 * 20, 1)) * (psi - phi)
                      + 2 * comb_floor(20, 1) * phi)
        assert binary_correction_threshold(p, (2,), 0.75) == pytest.approx(want, rel=1e-12)

    def test_graph_case_magnitude(self):
        # for one pairwise order the threshold is about (a + b) / 8 of the
        # blue-halved rates, independent of nu
        n = 2000
        p = ModelParams(n, 2, {2: (40, 8)})
        got = binary_correction_threshold(p, (2,), 0.75)
        assert got == pytest.approx((40 + 8) / 8, rel=0.01)
        assert binary_correction_threshold(p, (2,), 0.9) == pytest.approx(got, rel=0.01)


class TestSizePerturbationStability:
    """Eigenvalues under slightly unequal blocks move by a vanishing fraction."""

    @staticmethod
    def _perturbed_top_eigs(n, k, alpha, beta, sizes):
        # nonzero eigenvalues of the block-constant part via the k x k
        # reduction, then shift by -alpha
        m = (alpha - beta) * np.eye(k) + beta * np.ones((k, k))
        droot = np.diag(np.sqrt(sizes.astype(np.float64)))
        eigs = np.linalg.eigvalsh(droot @ m @ droot)
        return np.sort(eigs)[::-1] - alpha

    def test_reduction_matches_dense_at_small_n(self):
        p = ModelParams(256, 4, {2: (6, 2)})
        r = expected_rates(p)
        sizes = np.array([64, 70, 60, 62])
        labels = np.repeat(np.arange(4), sizes)
        same = labels[:, None] == labels[None, :]
        ea = np.where(same, r.alpha, r.beta)
        np.fill_diagonal(ea, 0.0)
        dense = np.sort(np.linalg.eigvalsh(ea))[::-1][:4]
        reduced = self._perturbed_top_eigs(256, 4, r.alpha, r.beta, sizes)
        assert np.abs(dense - reduced).max() < 1e-9

    def test_relative_change_bounded_and_stable(self):
        rng = np.random.default_rng(5)
        fitted = {}
        for n in (256, 1024, 4096):
            k = 4
            p = ModelParams(n, k, {2: (8, 2)})
            r = expected_rates(p)
            lam1, lam2, _ = expected_eigenvalues(p)
            base = np.r_[lam1, np.full(k - 1, lam2)]
            bound = n ** -0.25 * math.log(n) ** 0.5
            worst = 0.0
            for _ in range(20):
                cap = min(math.ceil(math.sqrt(n) * math.log(n)), n // (2 * k))
                delta = rng.integers(-cap, cap + 1, size=k)
                delta[-1] -= delta.sum()
                if abs(delta[-1]) > cap:
                    continue
                sizes = n // k + delta
                top = self._perturbed_top_eigs(n, k, r.alpha, r.beta, sizes)
                rel = np.abs(top - base) / np.abs(base)
                worst = max(worst, rel.max())
            fitted[n] = worst / bound
        # the fitted constant stays modest and does not blow up with n
        assert max(fitted.values()) < 2.0
        assert max(fitted.values()) <= 4.0 * min(fitted.values()) + 1e-9
