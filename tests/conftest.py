"""Shared oracles and generators for the test suite."""

import functools
import math
import operator

import numpy as np

from partition_modes import canonicalize


def brute_force_table_count(row_sums, col_sums):
    """Count non-negative integer matrices with the given margins by
    straight enumeration, cell by cell, with no memo and no closed-form
    row.  Independent of the library's memoized counter."""
    rows = [int(v) for v in row_sums if v > 0]
    cols = [int(v) for v in col_sums if v > 0]
    assert sum(rows) == sum(cols)
    if len(rows) <= 1 or len(cols) <= 1:
        return 1
    k = len(cols)

    def fill_row(i, remaining_cols):
        if i == len(rows) - 1:
            # last row forced; feasible iff every remaining column fits
            return 1
        total = 0

        def cells(j, rem, caps):
            nonlocal total
            if j == k - 1:
                if rem <= caps[j]:
                    nxt = list(caps)
                    nxt[j] -= rem
                    total += fill_row(i + 1, tuple(nxt))
                return
            hi = min(caps[j], rem)
            for t in range(hi + 1):
                nxt = list(caps)
                nxt[j] -= t
                cells(j + 1, rem - t, nxt)

        cells(0, rows[i], remaining_cols)
        return total

    return fill_row(0, tuple(cols))


def reference_count_exact(rows, cols):
    """Exact table count by enumerating every row but the last, largest
    first, memoized on (row index, sorted remaining column sums).  This
    is the library's earlier exact counter, kept as an oracle for the
    one that counts the second-to-last row in closed form."""
    if len(rows) <= 1 or len(cols) <= 1:
        return 1
    rows = sorted(rows, reverse=True)
    n_rows = len(rows)
    memo = {}

    def rec(i, cols_t):
        if i == n_rows - 1:
            return 1  # last row is forced by the remaining column sums
        key = (i, cols_t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cols_l = list(cols_t)
        k = len(cols_l)
        suffix = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix[j] = suffix[j + 1] + cols_l[j]
        total = 0

        def distribute(j, rem):
            nonlocal total
            if j == k - 1:
                if rem <= cols_l[j]:
                    cols_l[j] -= rem
                    total += rec(i + 1, tuple(sorted(cols_l)))
                    cols_l[j] += rem
                return
            for t in range(max(0, rem - suffix[j + 1]), min(cols_l[j], rem) + 1):
                cols_l[j] -= t
                distribute(j + 1, rem - t)
                cols_l[j] += t

        distribute(0, rows[i])
        memo[key] = total
        return total

    return rec(0, tuple(sorted(cols)))


def margin_vectors(N, max_parts):
    """All unordered positive-integer compositions of N with at most
    max_parts parts (as sorted tuples)."""
    out = []

    def rec(remaining, max_val, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for v in range(min(remaining, max_val), 0, -1):
            rec(remaining - v, v, prefix + [v])

    rec(N, N, [])
    return out


def random_partition(N, max_groups, rng):
    labels = rng.integers(0, max_groups, size=N)
    return canonicalize(labels)


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 and later add floats: a total of
    Python floats and ints is Neumaier-compensated (CPython gh-100425);
    any other total, such as one of numpy scalars or of ints alone, is
    added left to right as before."""
    values = list(iterable)
    kinds = {type(v) for v in values} | {type(start)}
    if float not in kinds or not kinds <= {int, float}:
        return functools.reduce(operator.add, values, start)
    total, comp = float(start), 0.0
    for x in map(float, values):
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total
