"""Counting non-negative integer matrices with fixed row and column sums.

All public functions return the base-2 logarithm of the count, since the
raw counts overflow floating point at trivially small margins.

Nothing here keeps state between calls: ``PairCache`` memoizes the
table counts of one ensemble, once per unordered pair of margins.
Log-binomials come from the standard library's ``math.lgamma``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

_LN2 = math.log(2.0)

# Exact counting is attempted only when ``_cost_estimate`` (memo states
# times the branching of the widest row) stays below this budget; beyond
# it an estimate takes over.
DEFAULT_MAX_COST = 10_000_000

# Work of one inclusion-exclusion term of the closed-form row, in
# enumerated compositions: fitted on both orientations of 300 timed
# random margin pairs.
_CLOSED_FORM_WEIGHT = 64

DEFAULT_ESTIMATOR_SAMPLES = 1000


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


def _saturating_float(x: int) -> float:
    """float(x) for a non-negative integer, or inf past the float range,
    so that a cost too large to represent exceeds every budget."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _state_estimate(cols) -> float:
    """Upper bound on memo states: product of (b_j + 1), with equal columns
    collapsed to sorted multisets."""
    est = 1.0
    for value, mult in Counter(cols).items():
        est *= _saturating_float(math.comb(value + mult, mult))
    return est


def _cost_estimate(rows, cols) -> float:
    """The exact-count budget measure: states times the branching of the
    widest row.  It models an earlier recursion that enumerated every row
    but the last, and stays the budget so that each margin pair keeps its
    exact or estimated path; ``_recursion_cost`` models the current one."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1.0
    branch = math.comb(max(rows) + len(cols) - 1, len(cols) - 1)
    return _state_estimate(cols) * _saturating_float(branch)


def _recursion_cost(rows, cols) -> float:
    """Estimated work of ``_count_exact_int``: the compositions
    enumerated for every row but the two largest, with the states of
    each level capped by ``_state_estimate``, plus the
    inclusion-exclusion terms of the closed-form second-to-last row at
    every state that reaches it."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1.0
    rows = sorted(rows)
    k = len(cols)
    cap = _state_estimate(cols)
    states, cost = 1.0, 0.0
    for r in rows[:-2]:
        branch = _saturating_float(math.comb(r + k - 1, k - 1))
        cost += states * branch
        states = min(states * branch, cap)
    terms = math.prod(min(mult, rows[-2] // (value + 1)) + 1
                      for value, mult in Counter(cols).items())
    return cost + _CLOSED_FORM_WEIGHT * states * _saturating_float(terms)


def _exact_orientation(rows, cols):
    """Orient cleaned margins for the exact recursion, or return None
    when ``_cost_estimate`` exceeds ``DEFAULT_MAX_COST`` either way round.

    The count is transpose-symmetric, so the orientation for which
    ``_recursion_cost`` predicts less work is taken."""
    if min(_cost_estimate(rows, cols), _cost_estimate(cols, rows)) > DEFAULT_MAX_COST:
        return None
    if _recursion_cost(cols, rows) < _recursion_cost(rows, cols):
        rows, cols = cols, rows
    return rows, cols


def _bounded_compositions(a: int, caps: tuple) -> int:
    """Number of ways to write ``a`` as an ordered sum of one non-negative
    entry per cap, each entry at most its cap.

    Inclusion-exclusion over the entries forced above their caps: with k
    positive caps, sum over subsets T of (-1)^|T| C(a - sum_T (c+1) + k-1,
    k-1).  Equal caps are grouped, so a term chooses how many of each
    value exceed, and a subset whose excess passes ``a`` adds nothing."""
    groups = sorted(Counter(c for c in caps if c > 0).items())
    if not groups:
        return int(a == 0)
    k1 = sum(m for _, m in groups) - 1

    def terms(g: int, rem: int, coef: int) -> int:
        total = coef * math.comb(rem + k1, k1)
        for h in range(g, len(groups)):
            value, mult = groups[h]
            if value + 1 > rem:
                break
            for s in range(1, min(mult, rem // (value + 1)) + 1):
                total += terms(h + 1, rem - s * (value + 1),
                               (-1) ** s * coef * math.comb(mult, s))
        return total

    return terms(0, a, 1)


def _row_remainders(a: int, cols: tuple):
    """Yield, as a sorted tuple, the column sums left after each way of
    taking a row of sum ``a`` from ``cols`` (entry j at most cols[j]).

    The compositions are enumerated in lexicographic order by an
    odometer over the entries, with no recursion, so the depth does not
    grow with the number of columns."""
    k = len(cols)
    suffix = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = suffix[j + 1] + cols[j]
    left = list(cols)       # column sums left after the current entries
    rem = [0] * k           # rem[j]: the part of ``a`` for entries j..k-1
    rem[0] = a
    j = 0
    while True:
        # entries j..k-2 take the least that still lets the later ones
        # hold the rest; the last entry takes what remains
        for i in range(j, k - 1):
            t = max(0, rem[i] - suffix[i + 1])
            left[i] = cols[i] - t
            rem[i + 1] = rem[i] - t
        left[k - 1] = cols[k - 1] - rem[k - 1]
        yield tuple(sorted(left))
        # raise the rightmost entry that can grow: below its column sum
        # with some of the row left for the entries after it
        j = k - 2
        while j >= 0 and (left[j] == 0 or rem[j + 1] == 0):
            j -= 1
        if j < 0:
            return
        left[j] -= 1
        rem[j + 1] -= 1
        j += 1


def _count_exact_int(rows, cols) -> int:
    """Exact count by taking rows one at a time from the remaining column
    sums, level by level, with the ways to reach each state keyed by
    (row index, sorted remaining columns).

    Rows are taken in ascending order.  The last row is forced by the
    remaining column sums, and the second-to-last is counted in closed
    form by ``_bounded_compositions`` under the remaining column caps,
    so the two largest rows, whose compositions are the most numerous,
    are never enumerated; only the small rows branch.  Nothing recurses
    per row or per column, so wide and tall tables are counted too.

    When every row (or column) sum is 1, each unit row picks the column
    of its one entry, and the count is the multinomial coefficient
    N! / prod(c!) over the other margin."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1
    if max(cols) == 1:
        rows, cols = cols, rows
    if max(rows) == 1:
        count = math.factorial(sum(rows))
        for c in cols:
            count //= math.factorial(c)
        return count
    rows = sorted(rows)
    # ways[cols_t]: the number of ways the rows before the current one
    # leave the sorted remaining columns cols_t
    ways = {tuple(sorted(cols)): 1}
    for r in rows[:-2]:
        nxt: dict = {}
        for cols_t, n in ways.items():
            for rest in _row_remainders(r, cols_t):
                nxt[rest] = nxt.get(rest, 0) + n
        ways = nxt
    return sum(n * _bounded_compositions(rows[-2], cols_t)
               for cols_t, n in ways.items())


def count_tables_exact(row_sums, col_sums) -> float:
    """log2 of the exact number of non-negative integer matrices with the
    given margins.

    Raises ValueError if the margins disagree or the estimated work of
    the memoized recursion would exceed ``DEFAULT_MAX_COST``.
    """
    oriented = _exact_orientation(*_clean_margins(row_sums, col_sums))
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
    """log2 C(n, k) from the standard library's log-gamma; n and k may
    be real."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN2


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


def log2_omega(row_sums, col_sums) -> float:
    """log2 of the number of contingency tables with the given margins:
    exact when ``_cost_estimate`` stays within ``DEFAULT_MAX_COST``, the
    analytic estimate otherwise.  Nothing is memoized.

    The value is computed from the sorted margins in a canonical
    (small, large) order, so ``log2_omega(r, c)`` and
    ``log2_omega(c, r)`` return the same float.
    """
    rows, cols = _clean_margins(row_sums, col_sums)
    small, large = sorted((tuple(sorted(rows)), tuple(sorted(cols))))
    if _exact_orientation(small, large) is None:
        return count_tables_gaussian(small, large)
    return count_tables_exact(small, large)
