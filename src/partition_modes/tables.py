"""Counting non-negative integer matrices with fixed row and column sums.

All public functions return the base-2 logarithm of the count, since the
raw counts overflow floating point at trivially small margins.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import gammaln

_LN2 = math.log(2.0)

# Exact counting is attempted only when the estimated work of the
# memoized recursion (symmetry-reduced states times per-state branching)
# stays below this budget; beyond it an estimate takes over.
DEFAULT_MAX_COST = 10_000_000

DEFAULT_ESTIMATOR_SAMPLES = 1000

_omega_cache: dict = {}


def _log2_int(x: int) -> float:
    """log2 of a (possibly huge) positive Python integer."""
    if x <= 0:
        raise ValueError("log2 of non-positive count")
    if x.bit_length() <= 900:
        return math.log2(x)
    shift = x.bit_length() - 64
    return shift + math.log2(x >> shift)


def _clean_margins(row_sums, col_sums):
    rows = [int(v) for v in row_sums]
    cols = [int(v) for v in col_sums]
    if any(v < 0 for v in rows) or any(v < 0 for v in cols):
        raise ValueError("negative margin")
    if sum(rows) != sum(cols):
        raise ValueError("margin sums unequal")
    # zero margins force a zero row/column and do not affect the count
    rows = [v for v in rows if v > 0]
    cols = [v for v in cols if v > 0]
    return rows, cols


def _state_estimate(cols) -> float:
    """Upper bound on memo states: product of (b_j + 1), with equal columns
    collapsed to sorted multisets."""
    est = 1.0
    for value, mult in Counter(cols).items():
        est *= math.comb(value + mult, mult)
    return est


def _cost_estimate(rows, cols) -> float:
    """Crude upper bound on elementary recursion steps: states times the
    branching of the widest row."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1.0
    branch = math.comb(max(rows) + len(cols) - 1, len(cols) - 1)
    return _state_estimate(cols) * float(branch)


def _exact_orientation(rows, cols, max_cost: float):
    """Orient cleaned margins for the exact recursion, or return None
    when its estimated work exceeds ``max_cost`` either way round.

    The count is transpose-symmetric, so the orientation with the
    cheaper state space is taken."""
    if _cost_estimate(cols, rows) < _cost_estimate(rows, cols):
        rows, cols = cols, rows
    if _cost_estimate(rows, cols) > max_cost:
        return None
    return rows, cols


def _count_exact_int(rows, cols) -> int:
    """Exact count by row-by-row recursion over remaining column sums,
    memoized on (row index, sorted remaining columns)."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1
    rows = sorted(rows, reverse=True)
    n_rows = len(rows)
    memo: dict = {}

    def rec(i: int, cols_t: tuple) -> int:
        if i == n_rows - 1:
            return 1  # last row is forced by the remaining column sums
        key = (i, cols_t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        a = rows[i]
        cols_l = list(cols_t)
        k = len(cols_l)
        suffix = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix[j] = suffix[j + 1] + cols_l[j]
        total = 0

        def distribute(j: int, rem: int):
            nonlocal total
            if j == k - 1:
                if rem <= cols_l[j]:
                    cols_l[j] -= rem
                    total += rec(i + 1, tuple(sorted(cols_l)))
                    cols_l[j] += rem
                return
            lo = max(0, rem - suffix[j + 1])
            hi = min(cols_l[j], rem)
            for t in range(lo, hi + 1):
                cols_l[j] -= t
                distribute(j + 1, rem - t)
                cols_l[j] += t

        distribute(0, a)
        memo[key] = total
        return total

    return rec(0, tuple(sorted(cols)))


def count_tables_exact(row_sums, col_sums, max_cost: float = DEFAULT_MAX_COST) -> float:
    """log2 of the exact number of non-negative integer matrices with the
    given margins.

    Raises ValueError if the margins disagree or the estimated work of
    the memoized recursion would exceed ``max_cost``.
    """
    oriented = _exact_orientation(*_clean_margins(row_sums, col_sums), max_cost)
    if oriented is None:
        raise ValueError("table too large for exact count")
    return _log2_int(_count_exact_int(*oriented))


def _composition_dp(a: int, caps: np.ndarray) -> np.ndarray:
    """f[j][r] = number of ways to fill caps[j:] with entries summing to r,
    each entry bounded by its cap.  Shape (k+1, a+1), float64."""
    k = len(caps)
    f = np.zeros((k + 1, a + 1))
    f[k, 0] = 1.0
    for j in range(k - 1, -1, -1):
        # f[j][r] = sum_{t=0..min(cap, r)} f[j+1][r-t], via a sliding window
        cs = np.concatenate(([0.0], np.cumsum(f[j + 1])))
        cap = int(caps[j])
        for r in range(a + 1):
            lo = max(0, r - cap)
            f[j, r] = cs[r + 1] - cs[lo]
    return f


def _sample_row(a: int, caps: np.ndarray, rng) -> tuple[float, np.ndarray]:
    """Uniformly sample a bounded composition of ``a`` over ``caps``.

    Returns (number of such compositions, the sampled composition).
    """
    k = len(caps)
    f = _composition_dp(a, caps)
    comp = np.zeros(k, dtype=np.int64)
    rem = a
    for j in range(k - 1):
        cap = int(min(caps[j], rem))
        weights = f[j + 1, rem - np.arange(cap + 1)]
        probs = weights / weights.sum()
        t = rng.choice(cap + 1, p=probs)
        comp[j] = t
        rem -= t
    comp[k - 1] = rem
    return float(f[0, a]), comp


def count_tables_estimate(row_sums, col_sums,
                          num_samples: int = DEFAULT_ESTIMATOR_SAMPLES,
                          seed: int = 0) -> float:
    """Sequential importance-sampling estimate of log2 of the table count.

    Rows are filled one at a time with a uniformly random bounded
    composition of the row sum; the product of per-row composition counts
    is an unbiased estimate of the total count.
    """
    rows, cols = _clean_margins(row_sums, col_sums)
    if len(rows) <= 1 or len(cols) <= 1:
        return 0.0
    rows = sorted(rows, reverse=True)
    cols_arr = np.array(sorted(cols, reverse=True), dtype=np.int64)
    rng = np.random.default_rng(seed)
    log2w = np.empty(num_samples)
    for s in range(num_samples):
        caps = cols_arr.copy()
        lw = 0.0
        for a in rows[:-1]:
            count, comp = _sample_row(a, caps, rng)
            lw += math.log2(count)
            caps -= comp
        log2w[s] = lw
    peak = log2w.max()
    return peak + math.log2(np.mean(np.exp2(log2w - peak)))


def _log2_binom(n: float, k: float) -> float:
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)) / _LN2


def _gaussian_one_sided(rows: np.ndarray, cols: np.ndarray) -> float:
    """CLT estimate: rows are independent uniform compositions; the log
    probability that their column sums land exactly on the target margin
    is taken from a lattice Gaussian."""
    N = rows.sum()
    C = len(cols)
    log2_free = sum(_log2_binom(r + C - 1, C - 1) for r in rows)
    var_rows = rows * (C - 1) * (rows + C) / (C * C * (C + 1))
    sigma2 = var_rows.sum() * C / (C - 1)
    delta = cols - N / C
    log_p = (0.5 * math.log(C) - 0.5 * (C - 1) * math.log(2 * math.pi * sigma2)
             - (delta ** 2).sum() / (2 * sigma2))
    return log2_free + log_p / _LN2


def count_tables_gaussian(row_sums, col_sums) -> float:
    """Fast analytic estimate of log2 of the table count, symmetrized
    over the two orientations.  Accurate to a few percent for the
    moderately large, roughly balanced margins that exceed the exact
    counter's budget; poor for very small tables."""
    rows, cols = _clean_margins(row_sums, col_sums)
    if len(rows) <= 1 or len(cols) <= 1:
        return 0.0
    r = np.array(rows, dtype=np.float64)
    c = np.array(cols, dtype=np.float64)
    est = 0.5 * (_gaussian_one_sided(r, c) + _gaussian_one_sided(c, r))
    return max(0.0, est)


def log2_omega(row_sums, col_sums, max_cost: float = DEFAULT_MAX_COST) -> float:
    """log2 of the number of contingency tables with the given margins:
    exact when the cost guard allows, the analytic estimate otherwise.

    Results are cached by sorted margins; concurrent use is safe because
    entries are deterministic and written atomically.
    """
    rows, cols = _clean_margins(row_sums, col_sums)
    key = (tuple(sorted(rows)), tuple(sorted(cols)), max_cost)
    hit = _omega_cache.get(key)
    if hit is not None:
        return hit
    if _exact_orientation(rows, cols, max_cost) is None:
        val = count_tables_gaussian(rows, cols)
    else:
        val = count_tables_exact(rows, cols, max_cost=max_cost)
    _omega_cache[key] = val
    return val
