"""Accuracy metrics against factorial brute force and invariance checks."""

import itertools

import numpy as np
import pytest

from hyperblock.metrics import (
    AccuracyReport,
    accuracy_report,
    contingency,
    gamma_correctness,
    matched_accuracy,
)
from hyperblock.sampler import UNASSIGNED


def brute_gamma(truth, estimate, k):
    """An empty block meets its overlap condition for every gamma: it is skipped."""
    best = 0.0
    sizes = np.bincount(truth, minlength=k)
    for perm in itertools.permutations(range(k)):
        worst = min(
            np.sum((truth == i) & (estimate == perm[i])) / sizes[i] for i in range(k) if sizes[i]
        )
        best = max(best, worst)
    return best


def brute_matched(truth, estimate, k):
    best = 0
    for perm in itertools.permutations(range(k)):
        remapped = np.array([perm[e] if e >= 0 else -1 for e in estimate])
        best = max(best, int((remapped == truth).sum()))
    return best / len(truth)


class TestGamma:
    def test_identity(self):
        t = np.array([0, 0, 1, 1])
        assert gamma_correctness(t, t) == 1.0

    def test_half_overlap(self):
        t = np.array([0, 0, 1, 1])
        e = np.array([0, 1, 0, 1])
        assert gamma_correctness(t, e) == 0.5

    def test_label_swap(self):
        t = np.array([0, 0, 1, 1])
        e = np.array([1, 1, 0, 0])
        assert gamma_correctness(t, e) == 1.0

    def test_empty_block_does_not_bind(self):
        t = np.array([0, 0, 2, 2])
        rep = accuracy_report(t, t)
        assert (rep.gamma, rep.matched_accuracy) == (1.0, 1.0)
        assert gamma_correctness(t, np.array([0, 1, 2, 2])) == 0.5

    def test_extra_estimate_labels(self):
        t = np.array([0, 0, 1, 1])
        e = np.array([2, 2, 1, 1])
        assert gamma_correctness(t, e) == 1.0


class TestMatchedAccuracy:
    def test_identity(self):
        t = np.array([0, 1, 2, 0, 1, 2])
        assert matched_accuracy(t, t) == 1.0

    def test_random_estimate_near_half(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 2, size=10_000)
        e = rng.integers(0, 2, size=10_000)
        assert abs(matched_accuracy(t, e) - 0.5) < 0.03

    def test_unassigned_counts_as_wrong(self):
        t = np.array([0, 0, 1, 1])
        e = np.array([0, UNASSIGNED, 1, 1])
        assert matched_accuracy(t, e) == 0.75

    def test_label_below_unassigned_rejected(self):
        t = np.array([0, 0, 1, 1])
        e = np.array([0, UNASSIGNED - 1, 1, 1])
        for score in (matched_accuracy, gamma_correctness, accuracy_report, contingency):
            with pytest.raises(ValueError, match="estimate labels"):
                score(t, e)


class TestAgainstBruteForce:
    def test_both_metrics_small_k(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 40))
            t = rng.integers(0, k, size=n)
            t[:k] = np.arange(k)  # every block nonempty
            e = rng.integers(0, k, size=n)
            assert gamma_correctness(t, e) == pytest.approx(brute_gamma(t, e, k))
            assert matched_accuracy(t, e) == pytest.approx(brute_matched(t, e, k))

    def test_both_metrics_with_empty_truth_blocks(self):
        # labels below the truth's largest that no vertex carries, as a
        # labeled file whose LABELS skip a block gives them
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(3, 6))
            n = int(rng.integers(k, 40))
            gap = int(rng.integers(0, k - 1))
            t = rng.choice(np.delete(np.arange(k), gap), size=n)
            t[-1] = k - 1  # the largest label is used, the lower label gap is not
            e = rng.integers(0, k, size=n)
            assert np.bincount(t, minlength=k).min() == 0
            assert gamma_correctness(t, e) == pytest.approx(brute_gamma(t, e, k))
            assert matched_accuracy(t, e) == pytest.approx(brute_matched(t, e, k))

    def test_gamma_optimum_is_bottleneck_not_sum(self):
        # a case where the max-total matching is not the max-min matching
        t = np.repeat([0, 1], 10)
        e = np.array([0] * 9 + [1] + [0] * 4 + [1] * 6)
        assert gamma_correctness(t, e) == pytest.approx(brute_gamma(t, e, 2))


class TestInvariances:
    def test_relabeling_estimate(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 3, size=60)
        t[:3] = [0, 1, 2]
        e = rng.integers(0, 3, size=60)
        for perm in itertools.permutations(range(3)):
            e2 = np.array([perm[x] for x in e])
            assert gamma_correctness(t, e2) == pytest.approx(gamma_correctness(t, e))
            assert matched_accuracy(t, e2) == pytest.approx(matched_accuracy(t, e))

    def test_gamma_below_matched_on_equal_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            t = np.repeat(np.arange(k), 12)
            e = rng.integers(0, k, size=len(t))
            assert gamma_correctness(t, e) <= matched_accuracy(t, e) + 1e-12


class TestReport:
    def test_fields_consistent(self):
        t = np.repeat([0, 1], 8)
        e = t.copy()
        e[0] = 1
        rep = accuracy_report(t, e)
        assert rep.misclassified == 1
        assert rep.matched_accuracy == pytest.approx(15 / 16)
        assert rep.per_block_overlap.sum() == 16
        assert rep.per_block_overlap.sum(axis=1).tolist() == [8, 8]

    def test_contingency_row_sums_are_block_sizes(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 3, size=50)
        t[:3] = [0, 1, 2]
        e = rng.integers(0, 3, size=50)
        c = contingency(t, e)
        assert c.sum(axis=1).tolist() == np.bincount(t, minlength=3).tolist()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gamma_correctness(np.array([0, 1]), np.array([0]))


class TestLabelDtypes:
    """Every scorer reads integer labels of any width alike and refuses the rest."""

    SCORERS = [contingency, gamma_correctness, matched_accuracy, accuracy_report]

    @staticmethod
    def fields(result):
        """A scorer's result as plain values, with the type of each."""
        if isinstance(result, AccuracyReport):
            return [TestLabelDtypes.fields(getattr(result, f)) for f in result.__dataclass_fields__]
        if isinstance(result, np.ndarray):
            return result.dtype, result.tolist()
        return type(result), result

    @pytest.mark.parametrize("scorer", SCORERS, ids=lambda f: f.__name__)
    def test_float_and_bool_labels_refused(self, scorer):
        # a cast read 0.5, 1.7 as 0, 1 and True, False as 1, 0: each scored 1.0
        truth, estimate = np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1])
        for bad, dtype in ((np.array([0.5, 1.7, 0.0, 1.0]), "float64"),
                           (np.array([False, True, False, True]), "bool")):
            for pair in ((truth, bad), (bad, estimate)):
                with pytest.raises(ValueError, match=f"labels must be integers, got dtype {dtype}"):
                    scorer(*pair)

    @pytest.mark.parametrize("scorer", SCORERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32, np.int32])
    def test_integer_labels_of_any_width_score_alike(self, scorer, dtype):
        rng = np.random.default_rng(3)
        truth, estimate = rng.integers(0, 3, size=40), rng.integers(-1, 4, size=40)
        if np.issubdtype(dtype, np.unsignedinteger):  # no unassigned estimates
            estimate = np.abs(estimate)
        want = self.fields(scorer(truth, estimate))
        assert self.fields(scorer(truth.astype(dtype), estimate.astype(dtype))) == want
        assert self.fields(scorer(truth.tolist(), estimate.tolist())) == want
