"""Counting non-negative integer matrices with fixed row and column sums.

All public functions return the base-2 logarithm of the count, since the
raw counts overflow floating point at trivially small margins.
``log2_omega`` counts exactly within a work budget and estimates past it.

A ``Margin`` is one margin's positive sums, sorted, as a tuple.  It
carries what the cost model and the estimator need of that margin
alone: its total and sum of squares, its (value, multiplicity) runs,
the cap on the recursion's states, and per other-margin length the
composition counts of its rows and its column term, memoized on first
use.  The functions take plain sequences or ``Margin`` objects; a plain
sequence is cleaned into a fresh ``Margin`` on every call, so a caller
that counts one margin against many passes the same object each time.

The module keeps no state: the memos live on the caller's ``Margin``
objects, and ``PairCache`` memoizes the table counts of one ensemble,
once per unordered pair of margins.  Log-binomials come from the
standard library's ``math.lgamma``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

_LN2 = math.log(2.0)

# Exact counting is attempted only when ``_recursion_cost`` stays within
# this budget the cheaper way round.  Of 664 random margin pairs (N 10-100,
# 2-7 parts), the slowest of the 490 within it took 6 ms on a 2-CPU x86 VM.
DEFAULT_MAX_COST = 500_000

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


def _saturating_float(x: int) -> float:
    """float(x) for a non-negative integer, or inf past the float range,
    so that a cost too large to represent exceeds every budget."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


class Margin(tuple):
    """The positive sums of one margin in ascending order, with the
    pieces of the table count that depend on this margin alone.

    Zero sums are dropped: they force a zero row or column and do not
    affect the count.  A negative sum raises ValueError."""

    def __new__(cls, values):
        values = [int(v) for v in values]
        if any(v < 0 for v in values):
            raise ValueError("negative margin")
        self = super().__new__(cls, sorted(v for v in values if v > 0))
        self.total = sum(self)
        self.sq = sum(v * v for v in self)
        self.runs = tuple(Counter(self).items())   # (value, multiplicity)
        # ``_recursion_cost``'s cap on the states of a level, this margin
        # being the columns: the count of sorted column remainders
        self.cap = math.prod(_saturating_float(math.comb(value + mult, mult))
                             for value, mult in self.runs)
        self._branches: dict[int, list] = {}
        self._column_terms: dict[int, float] = {}
        return self

    def branches(self, k: int) -> list:
        """For every sum r but the two largest, as rows over k columns,
        the compositions C(r + k - 1, k - 1) as saturating floats."""
        out = self._branches.get(k)
        if out is None:
            out = self._branches[k] = [
                _saturating_float(math.comb(r + k - 1, k - 1)) for r in self[:-2]]
        return out

    def column_term(self, R: int) -> float:
        """sum_c log2 C(c + R - 1, R - 1): every sum c, as a column,
        composed over R rows."""
        out = self._column_terms.get(R)
        if out is None:
            out = self._column_terms[R] = sum(_log2_binom(c + R - 1, R - 1)
                                              for c in self)
        return out


def _margin(values) -> Margin:
    return values if isinstance(values, Margin) else Margin(values)


def _clean_margins(row_sums, col_sums) -> tuple[Margin, Margin]:
    """Both margins as ``Margin`` objects, checked to share one total;
    ``Margin`` arguments are taken as they are."""
    rows, cols = _margin(row_sums), _margin(col_sums)
    if rows.total != cols.total:
        raise ValueError("margin sums unequal")
    return rows, cols


def _recursion_cost(rows, cols) -> float:
    """Estimated work of ``_count_exact_int``: the compositions
    enumerated for every row but the two largest, with the states of
    each level capped by the count of sorted column remainders, plus the
    inclusion-exclusion terms of the closed-form second-to-last row at
    every state that reaches it; 1 when a margin is a single part or all
    unit sums, which are counted in closed form."""
    rows, cols = _margin(rows), _margin(cols)
    if len(rows) <= 1 or len(cols) <= 1 or rows[-1] == 1 or cols[-1] == 1:
        return 1.0
    cap = cols.cap
    states, cost = 1.0, 0.0
    for branch in rows.branches(len(cols)):
        cost += states * branch
        states = min(states * branch, cap)
    terms = math.prod(min(mult, rows[-2] // (value + 1)) + 1
                      for value, mult in cols.runs)
    return cost + _CLOSED_FORM_WEIGHT * states * _saturating_float(terms)


def _exact_orientation(rows, cols):
    """Orient cleaned margins for the exact recursion the way round for
    which ``_recursion_cost`` predicts less work, or return None when
    that cost exceeds ``DEFAULT_MAX_COST``.  The count is
    transpose-symmetric; a tie keeps the given orientation."""
    cost, flip = min((_recursion_cost(rows, cols), False),
                     (_recursion_cost(cols, rows), True))
    if cost > DEFAULT_MAX_COST:
        return None
    return (cols, rows) if flip else (rows, cols)


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

    Raises ValueError if the margins disagree or ``_recursion_cost``
    exceeds ``DEFAULT_MAX_COST`` either way round.
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


def _effective_columns(rows, cols) -> float:
    """log2 of the effective-columns estimate with ``rows`` as the rows:
    the columns are counted as independent compositions over the R rows,
    and the rows as compositions over alpha effective columns, alpha
    matching the variance of a uniformly random table's row sums.  Both
    are ``Margin`` objects; each distinct row sum is priced once."""
    N, R, sq = cols.total, len(rows), cols.sq
    alpha = (N * N - N + (N * N - sq) / R) / (sq - N)
    row_term = {r: _log2_binom(r + alpha - 1, alpha - 1) for r, _ in rows.runs}
    return (cols.column_term(R)
            + sum(map(row_term.__getitem__, rows))
            - _log2_binom(N + R * alpha - 1, R * alpha - 1))


def count_tables_gaussian(row_sums, col_sums) -> float:
    """Effective-columns estimate of log2 of the table count (Jerdee,
    Kirkley & Newman, arXiv:2209.14869), averaged over both orientations
    and clamped at 0; exact for a margin of unit sums.  Sums run over the
    sorted margins, so the order of the entries does not matter.

    Relative error on 664 random pairs (N 10-100, 2-7 parts): median
    0.4%, p95 5.1%; on the 174 past ``DEFAULT_MAX_COST``, which
    ``log2_omega`` estimates, median 0.2%, max 5.1%.

    The name is that of the lattice-Gaussian estimate this replaced,
    kept because ``perfbench/`` records estimated counts under it."""
    rows, cols = _clean_margins(row_sums, col_sums)
    if len(rows) <= 1 or len(cols) <= 1:
        return 0.0
    if rows[-1] == 1 or cols[-1] == 1:
        return _log2_int(_count_exact_int(rows, cols))  # the multinomial
    est = 0.5 * (_effective_columns(rows, cols) + _effective_columns(cols, rows))
    return max(0.0, est)


def log2_omega(row_sums, col_sums) -> float:
    """log2 of the number of contingency tables with the given margins:
    exact when ``_recursion_cost`` stays within ``DEFAULT_MAX_COST``, the
    effective-columns estimate otherwise.  Nothing is memoized.

    The value is computed from the sorted margins in a canonical
    (small, large) order, so ``log2_omega(r, c)`` and
    ``log2_omega(c, r)`` return the same float.
    """
    small, large = sorted(_clean_margins(row_sums, col_sums))
    try:
        return count_tables_exact(small, large)
    except ValueError:  # over the budget: the margins are already clean
        return count_tables_gaussian(small, large)
