"""Counting non-negative integer matrices with fixed row and column sums.

All public functions return the base-2 logarithm of the count, since the
raw counts overflow floating point at trivially small margins.
``log2_omega`` counts exactly within a work budget and estimates past it.
The exact count takes the rows one at a time; each is one numpy step
over every state of its level, taken in chunks of a fixed number of
array elements, and the number of ways to reach each state stays an
exact integer.

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
import operator
from collections import Counter
from itertools import chain, combinations, islice

import numpy as np

_LN2 = math.log(2.0)

# Exact counting is attempted only when ``_recursion_cost`` stays within
# this budget the cheaper way round.  Of 664 random margin pairs (N 10-100,
# 2-7 parts), the slowest of the 426 within it took 1.3-4.9 ms on a 2-CPU
# x86 VM.  That bound holds only for such narrow margins: the cost model
# counts compositions, not the columns each one spans, and rows (1, 2,
# 2999) over 3,001 columns cost 3.87e5, within the budget, but took about
# 0.22 s to count on the same VM (ROADMAP.md, "An exact-count budget that
# bounds time").
DEFAULT_MAX_COST = 500_000

# Work of one inclusion-exclusion term of the closed-form row, in
# enumerated compositions: fitted on both orientations of 300 timed
# random margin pairs.
_CLOSED_FORM_WEIGHT = 64

# Largest temporary array, in elements, of one step of the exact
# counter; a level past it is taken in chunks.
_CHUNK = 1 << 16


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


def _integral(v) -> int:
    """A margin sum as a Python int: any integer passes, as does a float
    of integral value; anything else raises ValueError rather than being
    truncated."""
    try:
        return operator.index(v)
    except TypeError:
        pass
    f = float(v)
    if not f.is_integer():
        raise ValueError(f"margin sum {v!r} is not a finite integer")
    return int(f)


class Margin(tuple):
    """The positive sums of one margin in ascending order, with the
    pieces of the table count that depend on this margin alone.

    Zero sums are dropped: they force a zero row or column and do not
    affect the count.  A negative sum, or one that is not a finite
    integral value, raises ValueError."""

    def __new__(cls, values):
        values = [_integral(v) for v in values]
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


def _bounded_compositions(a: int, caps):
    """Per row of ``caps``, an (n, k) integer array of rows sorted
    ascending, the number of ways to write ``a`` as an ordered sum of k
    non-negative entries, each at most its cap; a list of ints.

    Inclusion-exclusion over the entries forced above their caps: the
    count is sum_T (-1)^|T| C(a - e_T + k-1, k-1) over column subsets T
    of excess e_T = sum_T (c+1) <= a.  A run of m columns equal in every
    row is taken at once, s of them exceeding in C(m, s) ways, and the
    terms of all rows are built together as (row, excess, coefficient).
    Once they pass ``_CHUNK``, terms of one row and one excess are
    merged, which leaves at most a + 1 per row."""
    n, k = caps.shape
    caps = caps.astype(np.int64)
    row = np.arange(n)
    excess = np.zeros(n, np.int64)
    coef = np.ones(n, np.int64 if k < 63 else object)   # |coef| <= 2^k
    changes = (caps[:, 1:] != caps[:, :-1]).any(axis=0).nonzero()[0] + 1
    edges = [0, *changes.tolist(), k]
    for start, stop in zip(edges, edges[1:]):
        m, step = stop - start, caps[row, start] + 1
        rows, excesses, coefs = [row], [excess], [coef]
        for s in range(1, m + 1):
            shifted = excess + s * step
            take = (shifted <= a).nonzero()[0]
            if not len(take):
                break
            rows.append(row[take])
            excesses.append(shifted[take])
            coefs.append(coef[take] * ((-1) ** s * math.comb(m, s)))
        if len(rows) == 1:  # the rows' caps ascend, so no later run fits
            break
        row, excess, coef = map(np.concatenate, (rows, excesses, coefs))
        if len(row) > _CHUNK:
            pairs, coef = _merge([(np.stack([row, excess], axis=1), coef)])
            row, excess = pairs.T
    values, slot = np.unique(excess, return_inverse=True)
    binoms = np.array([math.comb(a - v + k - 1, k - 1) for v in values.tolist()],
                      dtype=object)
    counts = np.zeros(n, dtype=object)
    np.add.at(counts, row, coef.astype(object) * binoms[slot])
    return counts.tolist()


def _state_dtype(largest: int):
    """The narrowest signed integer type that holds every column sum up
    to ``largest`` and its negation, so a remainder that goes below zero
    stays representable."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _compositions(a: int, k: int, max_rows: int):
    """Yield the compositions of ``a >= 1`` into ``k >= 2`` non-negative
    entries as int64 arrays of at most ``max_rows`` rows.

    A composition is a choice of the k - 1 bar positions, or of the a
    unit positions, among a + k - 1 slots; the shorter choice is
    enumerated, so a row's work stays linear in its output however wide
    or tall the table."""
    slots = a + k - 1
    units = a < k - 1
    chosen = combinations(range(slots), a if units else k - 1)
    while True:
        block = np.fromiter(chain.from_iterable(islice(chosen, max_rows)), np.int64)
        if not len(block):
            return
        if units:   # unit i sits in the column of the bars before it
            block = block.reshape(-1, a) - np.arange(a)
            n = len(block)
            block += k * np.arange(n)[:, None]
            yield np.bincount(block.ravel(), minlength=n * k).reshape(n, k)
        else:       # entry j is the gap between bars j - 1 and j
            bars = block.reshape(-1, k - 1)
            comps = np.empty((len(bars), k), np.int64)
            comps[:, 0] = bars[:, 0]
            np.subtract(bars[:, 1:], bars[:, :-1] + 1, out=comps[:, 1:-1])
            comps[:, -1] = slots - 1 - bars[:, -1]
            yield comps


def _merge(parts):
    """The distinct rows of the ``(rows, weights)`` parts, 2-D integer
    arrays and 1-D weights, and per distinct row the sum of the weights
    of its copies.

    Rows are compared as bytes: each is read as a few unsigned words,
    the widest that divide it, and sorted by the words that are not the
    same in every row, so equal rows fall together whatever their width
    and values."""
    states = np.concatenate([p[0] for p in parts])
    ways = np.concatenate([p[1] for p in parts])
    width = states.shape[1] * states.itemsize
    unit = next(u for u in (8, 4, 2, 1) if width % u == 0)
    words = states.view("u%d" % unit)
    varies = (words != words[:1]).any(axis=0)
    varies[0] = True    # a key even when every row is the same
    words = words[:, varies]
    # one key is argsorted: lexsort's stable sort of it is slower
    order = words[:, 0].argsort() if words.shape[1] == 1 else np.lexsort(words.T)
    words = words[order]
    first = np.ones(len(words), bool)
    (words[1:] != words[:-1]).any(axis=1, out=first[1:])
    starts = first.nonzero()[0]
    return states[order[starts]], np.add.reduceat(ways[order], starts)


def _take_row(states, ways, a: int, top):
    """One level of ``_count_exact_int``: take a row of sum ``a`` from
    every state, in chunks of at most ``_CHUNK`` elements.

    The row's compositions that fit under ``top``, a bound on every
    state's entries, are subtracted from every state of a chunk at once;
    remainders with a negative entry are dropped and the rest sorted.
    They are merged, with their ways summed, whenever those not yet
    merged outgrow both the cap and the states merged so far, and once
    at the end."""
    k = states.shape[1]
    parts, pending, merged = [], 0, 0
    for comps in _compositions(a, k, max(1, _CHUNK // k)):
        # entry-major and contiguous, (k, states, compositions), so that
        # the elementwise steps run along the long axes, not along k
        comps = np.ascontiguousarray(comps[(comps <= top).all(axis=1)].T,
                                     states.dtype)
        m = comps.shape[1]
        step = max(1, _CHUNK // max(1, comps.size))
        for i in range(0, len(states), step):
            rest = (np.ascontiguousarray(states[i:i + step].T)[:, :, None]
                    - comps[:, None, :]).reshape(k, -1)
            keep = (rest.min(axis=0) >= 0).nonzero()[0]
            rest = np.ascontiguousarray(rest.take(keep, axis=1).T)
            rest.sort(axis=1)
            parts.append((rest, ways[i + keep // m]))
            pending += rest.size
            if pending > max(_CHUNK, merged):
                parts = [_merge(parts)]
                pending, merged = 0, parts[0][0].size
    return _merge(parts)


def _count_exact_int(rows, cols) -> int:
    """Exact count by taking rows one at a time from the remaining column
    sums, level by level, with the ways to reach each state kept per
    distinct sorted vector of remaining column sums.

    Rows are taken in ascending order.  The last row is forced by the
    remaining column sums, and the second-to-last is counted in closed
    form by ``_bounded_compositions`` under the remaining column caps,
    for all distinct states at once, so the two largest rows, whose
    compositions are the most numerous, are never enumerated; only the
    small rows branch.  Each of those is one numpy step over all the
    states of its level (``_take_row``), in chunks of at most ``_CHUNK``
    elements.  The states are arrays of the narrowest integer type that
    holds the column sums; the ways are int64 when a bound on them fits
    and Python integers otherwise, so every count is exact.  Nothing
    recurses per row or per column, so wide and tall tables are counted
    too.

    When every row (or column) sum is 1, each unit row picks the column
    of its one entry, and the count is the multinomial coefficient
    N! / prod(c!) over the other margin."""
    # a zero sum forces a zero row or column
    rows = sorted(r for r in rows if r)
    cols = sorted(c for c in cols if c)
    if len(rows) <= 1 or len(cols) <= 1:
        return 1
    if cols[-1] == 1:
        rows, cols = cols, rows
    if rows[-1] == 1:
        count = math.factorial(sum(rows))
        for c in cols:
            count //= math.factorial(c)
        return count
    # the states are the sorted remaining column sums; entry j of each is
    # at most cols[j], so one cap per column serves every level
    top = np.array(cols, _state_dtype(cols[-1]))
    states = top[None, :]
    # the ways sum to the partial tables of a level, which are at most the
    # product of the rows' composition counts; int64 holds them if that does
    k = len(cols)
    most = math.prod(math.comb(r + k - 1, k - 1) for r in rows[:-2])
    ways = np.ones(1, np.int64 if most < 2 ** 63 else object)
    for r in rows[:-2]:
        states, ways = _take_row(states, ways, r, top)
    # a cap of rows[-2] or more never binds, so states equal below it
    # share one closed-form count
    a = rows[-2]
    if len(states) > 1:
        states, ways = _merge([(np.minimum(states, min(a, cols[-1])), ways)])
    step = max(1, _CHUNK // (a + 1))    # merged, a row has <= a + 1 terms
    return sum(n * c for i in range(0, len(states), step)
               for n, c in zip(ways[i:i + step].tolist(),
                               _bounded_compositions(a, states[i:i + step])))


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

    This is the package's only table-count estimator: ``log2_omega``
    uses it for every pair whose exact count would cost more than
    ``DEFAULT_MAX_COST``.  Relative error on 664 random pairs (N 10-100,
    2-7 parts): median 0.4%, p95 5.1%; on the 174 past the budget, which
    ``log2_omega`` estimates, median 0.2%, max 5.1%.  On 36 pairs that
    the engine estimates on the benchmark workloads (4x4 to 5x5, N=48 and
    100, frozen in ``tests/test_tables.py``) it is within 0.9% (0.06% at
    N=100), checked only where exact counts are feasible, not at N=2000.

    The name is that of the lattice-Gaussian estimate this replaced.  It
    stays because ``perfbench/`` finds the estimator by this name to time
    and count estimated Omega values; it can change once the tracer finds
    the estimator by some other route (ROADMAP.md, "Benchmark
    catch-up")."""
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
