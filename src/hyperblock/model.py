"""Closed-form model algebra for the non-uniform hypergraph block model.

Everything here is deterministic arithmetic on the model parameters: the
signal-to-noise ratio and the order-subset selection built on it, the
expected adjacency matrix (entries, dense form, eigenvalues), and the
decision thresholds consumed by the correction, merging, and set-filtering
stages of the detection pipeline.

Conventions used throughout:

* ``comb(x, j)`` is 0 whenever ``floor(x) < j`` (empty-set convention).
* Fractional block-size expressions (``n/k``, ``nu*n/(2k)``, ...) are
  floored before entering a binomial coefficient.
* An order subset is a nonempty sorted tuple of orders of the model,
  such as ``(2, 3)``.
* Rates are per-order pairs ``(a_m, b_m)`` of finite numbers with
  ``a_m >= b_m >= 0``; the within-block connection probability of an
  order-``m`` edge is ``a_m / comb(n, m-1)`` and the cross-block one is
  ``b_m / comb(n, m-1)``.
* ``ModelParams`` decides the model once.  A rate above ``comb(n, m-1)``
  is stored as ``comb(n, m-1)`` (probability 1), with a warning, so the
  sampler and every closed form here describe the same model.  An order
  whose ``comb(n, m-1)``, ``comb(n, m)``, ``k^(m-1)`` or (for k >= 3)
  ``2^(2m+3)`` exceeds the float range is rejected, and so is a model
  whose signal-to-noise sums, degree scale or regularization threshold
  over all orders are not finite.  A subset's degree scale and threshold
  are at most the all-orders ones, so they are finite too.
* A closed form that multiplies a binomial count by a rate and divides by
  ``comb(n, m-1)`` divides first only where the product overflows
  (``_ratio_sum``), so its finite values are those of the plain formula.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "ExpectedRates",
    "comb_floor",
    "degree_scale",
    "regularization_threshold",
    "snr_subset",
    "order_subsets",
    "preprocess_select",
    "expected_rates",
    "expected_adjacency",
    "expected_eigenvalues",
    "blue_conditional_probs",
    "merging_threshold",
    "binary_correction_threshold",
    "blue_density_thresholds",
    "error_rate_constant",
    "block_sizes",
    "ground_truth_labels",
    "ResourceLimitError",
    "PartitionFailure",
    "ConvergenceError",
]

log = logging.getLogger("hyperblock")

DENSE_CAP_DEFAULT = 2000
REGULARIZATION_FACTOR = 20


# The package's exceptions live in this numpy-only module, so that the CLI
# catches them without importing scipy; ``pipeline`` and ``spectral``
# re-export the two they raise.


class ResourceLimitError(RuntimeError):
    """Requested object exceeds a configured dense-size cap."""


class PartitionFailure(RuntimeError):
    """The pipeline could not produce the required candidate structure."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceError(RuntimeError):
    """Restart budget exhausted before every wanted eigenpair converged."""


def comb_floor(x: float, j: int) -> int:
    """Binomial coefficient C(floor(x), j), 0 when floor(x) < j or j < 0.

    The floor absorbs a 1e-9 rounding slack so block-size expressions that
    are integers in exact arithmetic (e.g. 0.9 * 40 / 4) do not get
    truncated by floating-point noise.
    """
    if j < 0:
        return 0
    xi = math.floor(x + 1e-9)
    if xi < j:
        return 0
    return math.comb(xi, j)


def _ratio_sum(denom: int, *terms: tuple[int, float]) -> float:
    """sum(count * rate) / denom over the (count, rate) terms, counts being binomials.

    Evaluated left to right as written, so integer rates keep an exact
    integer sum; only when that is not finite, because a product
    overflowed, is each count / denom formed first (int / int, correctly
    rounded), so no finite value moves.
    """
    value = 0
    for count, rate in terms:
        value += count * rate
    value /= denom
    if not math.isfinite(value):
        value = 0.0
        for count, rate in terms:
            value += count / denom * rate
    return value


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: n vertices, k blocks, per-order rate pairs.

    ``orders`` maps the edge order m (>= 2) to the pair ``(a_m, b_m)`` of
    within-block and cross-block rates.
    """

    n: int
    k: int
    orders: dict[int, tuple[float, float]]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not self.orders:
            raise ValueError("at least one order is required")
        if self.n < self.k:
            raise ValueError("n must be at least k (nonempty blocks)")
        orders = {}
        for m, (a, b) in self.orders.items():
            if m < 2:
                raise ValueError(f"edge order {m} < 2")
            if m > self.n:
                raise ValueError(f"edge order {m} exceeds n = {self.n}")
            if not (a >= b >= 0):
                raise ValueError(f"order {m}: need a_m >= b_m >= 0, got ({a}, {b})")
            if not math.isfinite(a):
                raise ValueError(f"order {m}: rates must be finite, got ({a}, {b})")
            cap = _check_float_range(self.n, self.k, m)
            if a > cap:
                log.warning("order %d: rate %r above comb(n, m-1) = %r, clamped to it "
                            "(probability 1)", m, a, cap)
                a, b = cap, min(b, cap)
            orders[m] = (a, b)
        num, den = _snr_sums(orders, self.k, orders)
        if not (math.isfinite(num * num) and math.isfinite(den)):
            raise ValueError("the signal-to-noise sums over all orders exceed the float range")
        d = sum((m - 1) * a for m, (a, _) in sorted(orders.items()))
        if not math.isfinite(d):
            raise ValueError("the degree scale over all orders exceeds the float range")
        if not math.isfinite(REGULARIZATION_FACTOR * max(orders) * d):
            raise ValueError("the regularization threshold over all orders exceeds the float range")
        # normalize to a plain sorted dict so iteration order is stable
        object.__setattr__(self, "orders", dict(sorted(orders.items())))


def _as_float(x: int) -> float:
    """float(x) for an integer x >= 0, inf when it exceeds the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _float_comb(n: int, j: int) -> float:
    """C(n, j) as a float, inf when it exceeds the float range.

    With t = min(j, n - j), C(n, j) = C(n, t) >= (n / t)^t >= 2^t, so
    t >= 1024 overflows without computing the (slow) exact binomial.
    """
    t = min(j, n - j)
    return math.inf if t >= 1024 else _as_float(math.comb(n, t))


def _check_float_range(n: int, k: int, m: int) -> float:
    """float(C(n, m-1)), after checking the binomials and powers order m's closed forms take.

    Every binomial the closed forms take is C(x, j) with x <= n and
    j in {m-2, m-1, m}, and C(x, m-2) <= C(n-2, m-2) <= C(n, m), so
    C(n, m-1) and C(n, m) bound them all.  ``snr_subset`` divides by
    k^(m-1) and ``error_rate_constant`` multiplies by 2^(2m+3) when k >= 3.
    """
    cap = _float_comb(n, m - 1)
    if math.isinf(cap) or math.isinf(_float_comb(n, m)):
        raise ValueError(f"order {m}: comb(n, m-1) or comb(n, m) exceeds the float range "
                         f"at n = {n}")
    # k^(m-1) >= 2^(m-1), so m > 1024 overflows without taking the power
    if m > 1024 or math.isinf(_as_float(k ** (m - 1))):
        raise ValueError(f"order {m}: k^(m-1) exceeds the float range at k = {k}")
    if k >= 3 and 2 * m + 3 >= 1024:
        raise ValueError(f"order {m}: 2^(2m+3) exceeds the float range (k >= 3)")
    return cap


def _check_subset(params: ModelParams, subset) -> tuple[int, ...]:
    """The subset's orders as a sorted tuple; each must be an order of the model."""
    ms = tuple(sorted(set(subset)))
    if not ms:
        raise ValueError("order subset must be nonempty")
    missing = [m for m in ms if m not in params.orders]
    if missing:
        raise ValueError(f"orders {missing} not present in the model")
    return ms


@dataclass(frozen=True)
class ExpectedRates:
    """Expected adjacency entries: within (alpha) and cross (beta)."""

    alpha: float
    beta: float


def degree_scale(params: ModelParams, subset: tuple[int, ...]) -> float:
    """Degree scale d = sum over the subset of (m-1) * a_m."""
    ms = _check_subset(params, subset)
    return float(sum((m - 1) * params.orders[m][0] for m in ms))


def regularization_threshold(params: ModelParams, subset: tuple[int, ...]) -> float:
    """Row-sum cap of the regularized adjacency: 20 * max(subset) * d."""
    return REGULARIZATION_FACTOR * max(subset) * degree_scale(params, subset)


def snr_subset(params: ModelParams, subset: tuple[int, ...]) -> float:
    """Signal-to-noise ratio of the sub-model restricted to ``subset``.

    Returns ``num^2 / den`` with
    ``num = sum (m-1) (a_m - b_m) / k^(m-1)`` and
    ``den = sum (m-1) ((a_m - b_m) / k^(m-1) + b_m)``, and 0 when the
    denominator vanishes (all rates in the subset are zero).
    """
    num, den = _snr_sums(params.orders, params.k, _check_subset(params, subset))
    if den == 0.0:
        return 0.0
    return num * num / den


def _snr_sums(orders: dict[int, tuple[float, float]], k: int, ms) -> tuple[float, float]:
    """The signal-to-noise numerator and denominator sums over the orders ms."""
    num = 0.0
    den = 0.0
    for m in ms:
        a, b = orders[m]
        diff = (a - b) / k ** (m - 1)
        num += (m - 1) * diff
        den += (m - 1) * (diff + b)
    return num, den


def order_subsets(params: ModelParams) -> list[tuple[int, ...]]:
    """Every order subset of the model, by size, then lexicographically."""
    orders = sorted(params.orders)
    return [c for r in range(1, len(orders) + 1) for c in itertools.combinations(orders, r)]


def preprocess_select(params: ModelParams) -> tuple[int, ...]:
    """Exhaustively pick the order subset with maximal signal-to-noise ratio.

    Returns the subset as a sorted tuple of orders.  Ties are broken by
    smaller cardinality, then by the lexicographically smallest tuple.
    """
    if all(a == 0 and b == 0 for a, b in params.orders.values()):
        raise ValueError("all rates are zero; no subset carries signal")
    return min(order_subsets(params), key=lambda c: (-snr_subset(params, c), len(c), c))


def block_sizes(n: int, k: int) -> np.ndarray:
    """Ground-truth block sizes: floor(n/k) each, remainder on the lowest ids."""
    base = n // k
    sizes = np.full(k, base, dtype=np.int64)
    sizes[: n % k] += 1
    return sizes


def ground_truth_labels(n: int, k: int) -> np.ndarray:
    """Planted labels: consecutive blocks, remainder on the lowest-index ones."""
    return np.repeat(np.arange(k, dtype=np.int64), block_sizes(n, k))


def expected_rates(params: ModelParams) -> ExpectedRates:
    """Expected adjacency entries alpha (within-block) and beta (cross-block)."""
    n, k = params.n, params.k
    nk = n // k
    alpha = beta = 0
    for m, (a, b) in params.orders.items():
        denom = math.comb(n, m - 1)
        same = comb_floor(nk - 2, m - 2)
        allp = comb_floor(n - 2, m - 2)
        alpha += _ratio_sum(denom, (same, a), (allp - same, b))
        beta += _ratio_sum(denom, (allp, b))
    return ExpectedRates(alpha=float(alpha), beta=float(beta))


def expected_adjacency(params: ModelParams, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense expected adjacency matrix: alpha within blocks, beta across, 0 diagonal."""
    n = params.n
    if n > dense_cap:
        raise ResourceLimitError(f"n = {n} exceeds the dense cap {dense_cap}")
    rates = expected_rates(params)
    labels = ground_truth_labels(n, params.k)
    same = labels[:, None] == labels[None, :]
    ea = np.where(same, rates.alpha, rates.beta)
    np.fill_diagonal(ea, 0.0)
    return ea


def expected_eigenvalues(params: ModelParams) -> tuple[float, float, float]:
    """Eigenvalues of the expected adjacency for exact equal blocks.

    Returns ``(lam1, lam2, lam_rest)`` where lam2 has multiplicity k-1 and
    lam_rest has multiplicity n-k.  Requires k | n.
    """
    n, k = params.n, params.k
    if n % k != 0:
        raise ValueError("closed-form eigenvalues require k to divide n")
    rates = expected_rates(params)
    nk = n // k
    lam1 = nk * (rates.alpha + (k - 1) * rates.beta) - rates.alpha
    lam2 = nk * (rates.alpha - rates.beta) - rates.alpha
    return float(lam1), float(lam2), float(-rates.alpha)


def blue_conditional_probs(
    params: ModelParams, subset: tuple[int, ...]
) -> dict[int, tuple[float, float]]:
    """Per-order (psi_m, phi_m): P(edge is blue | edge is not red).

    psi_m uses the within-block rate, phi_m the cross-block rate; both are
    ``q / (1 - q)`` with ``q = rate / (2 comb(n, m-1))``, which is at most
    1/2 since ``ModelParams`` caps every rate at ``comb(n, m-1)``.
    """
    ms = _check_subset(params, subset)
    n = params.n
    out: dict[int, tuple[float, float]] = {}
    for m in ms:
        a, b = params.orders[m]
        denom = 2.0 * math.comb(n, m - 1)
        qa, qb = a / denom, b / denom
        out[m] = (qa / (1.0 - qa), qb / (1.0 - qb))
    return out


def _check_nu(nu: float) -> None:
    if not 0.5 < nu < 1.0:
        raise ValueError(f"nu must lie in (0.5, 1), got {nu}")


def _blue_midpoint(params: ModelParams, subset: tuple[int, ...], nu: float, parts: int) -> float:
    """The blue thresholds' expected-count midpoint, for sets of size n/parts."""
    _check_nu(nu)
    ms = _check_subset(params, subset)
    n = params.n
    probs = blue_conditional_probs(params, subset)
    total = 0.0
    for m in ms:
        psi, phi = probs[m]
        good = comb_floor(nu * n / parts, m - 1)
        bad = comb_floor((1.0 - nu) * n / parts, m - 1)
        base = comb_floor(n / parts, m - 1)
        total += (m - 1) * ((good + bad) * (psi - phi) + 2.0 * base * phi)
    return 0.5 * total


def merging_threshold(params: ModelParams, subset: tuple[int, ...], nu: float) -> float:
    """Blue-edge merging threshold mu_M.

    Midpoint of the expected weighted blue-neighbor counts of a correctly
    and an incorrectly assigned vertex, given nu-correct candidate sets of
    size n/(2k), in terms of the psi_m/phi_m blue rates.
    """
    return _blue_midpoint(params, subset, nu, 2 * params.k)


def binary_correction_threshold(params: ModelParams, subset: tuple[int, ...], nu: float) -> float:
    """Blue cross-neighbor threshold for the two-block correction stage.

    The merging threshold's midpoint with half-sized (n/2) sides in place
    of the n/(2k) candidate sets.
    """
    return _blue_midpoint(params, subset, nu, 2)


def blue_density_thresholds(
    params: ModelParams, subset: tuple[int, ...], nu: float
) -> tuple[float, float, float]:
    """Blue-density separation thresholds (mu_1, mu_2, mu_T) for candidate sets.

    mu_1 upper-bounds the expected weighted blue-edge count inside a set of
    size n/(2k) that is at most nu-aligned with every block; mu_2 lower-bounds
    it when the set is at least (1+nu)/2-aligned with one block; mu_T is
    their midpoint.
    """
    _check_nu(nu)
    ms = _check_subset(params, subset)
    n, k = params.n, params.k
    mu1 = 0.0
    mu2 = 0.0
    for m in ms:
        a, b = params.orders[m]
        denom = math.comb(n, m - 1)
        w = m * (m - 1)
        noise = _ratio_sum(denom, (comb_floor(n / (2 * k), m), b))
        split1 = comb_floor(nu * n / (2 * k), m) + comb_floor((1.0 - nu) * n / (2 * k), m)
        split2 = comb_floor((1.0 + nu) * n / (4 * k), m) + (k - 1) * comb_floor(
            (1.0 - nu) * n / (4 * k * (k - 1)), m
        )
        mu1 += w * (_ratio_sum(denom, (split1, a - b)) + noise)
        mu2 += w * (_ratio_sum(denom, (split2, a - b)) + noise)
    mu1 *= 0.5
    mu2 *= 0.5
    return mu1, mu2, 0.5 * (mu1 + mu2)


def error_rate_constant(subset: tuple[int, ...], nu: float, k: int) -> float:
    """Exponential error-rate constant for the selected subset (reported only).

    The misclassification fraction decays like exp(-const * SNR); the
    constant depends on the maximal order and on nu, with a different
    normalization for the two-block case.
    """
    _check_nu(nu)
    mm = max(subset)
    gap = nu ** (mm - 1) - (1.0 - nu) ** (mm - 1)
    if k == 2:
        return gap * gap / (8.0 * (mm - 1) ** 2)
    return gap * gap / ((mm - 1) ** 2 * 2.0 ** (2 * mm + 3))
