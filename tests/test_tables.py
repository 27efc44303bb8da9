import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PartitionSet, canonicalize,
                             count_tables_exact, count_tables_estimate,
                             count_tables_gaussian, log2_omega, run, tables)
from partition_modes.tables import (DEFAULT_MAX_COST, _clean_margins,
                                    _cost_estimate, _count_exact_int,
                                    _exact_orientation, _log2_int,
                                    _recursion_cost)

from conftest import (brute_force_table_count, margin_vectors,
                      reference_count_exact)


def test_exact_trivial_and_worked_examples():
    assert count_tables_exact([1, 1], [1, 1]) == pytest.approx(1.0)
    assert count_tables_exact([2, 2], [2, 2]) == pytest.approx(math.log2(3))
    assert count_tables_exact([50, 50], [50, 50]) == pytest.approx(math.log2(51))
    # a single row is forced by the column margins
    assert count_tables_exact([10], [3, 3, 4]) == 0.0
    assert count_tables_exact([2, 3, 5], [10]) == 0.0


def test_exact_matches_brute_force_on_small_margins():
    rng = np.random.default_rng(0)
    checked = 0
    for N in range(2, 11):
        margins = margin_vectors(N, 4)
        for r in margins:
            for c in margins:
                if rng.random() > 0.25 and N > 6:
                    continue
                expect = brute_force_table_count(r, c)
                got = count_tables_exact(r, c)
                assert got == pytest.approx(math.log2(expect), abs=1e-9), (r, c)
                checked += 1
    assert checked > 300


def test_exact_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        r = rng.integers(1, 8, size=rng.integers(2, 5))
        c = rng.integers(1, 8, size=rng.integers(2, 5))
        # rebalance so the margins agree
        diff = int(r.sum() - c.sum())
        if diff > 0:
            c[0] += diff
        else:
            r[0] -= diff
        base = count_tables_exact(r, c)
        assert count_tables_exact(c, r) == pytest.approx(base)
        perm = np.random.default_rng(2).permutation(len(r))
        assert count_tables_exact(r[perm], c) == pytest.approx(base)


def test_exact_zero_margins_ignored():
    assert count_tables_exact([2, 0, 2], [2, 2, 0]) == pytest.approx(math.log2(3))


def test_margin_validation():
    with pytest.raises(ValueError, match="margin sums unequal"):
        count_tables_exact([2, 2], [3, 2])
    with pytest.raises(ValueError, match="negative margin"):
        count_tables_exact([-1, 5], [2, 2])


def test_exact_cost_guard(monkeypatch):
    big = [40] * 12
    monkeypatch.setattr(tables, "DEFAULT_MAX_COST", 1000)
    with pytest.raises(ValueError, match="table too large"):
        count_tables_exact(big, big)


def test_estimate_worked_examples():
    cases = [
        (([2, 2], [2, 2]), math.log2(3)),
        (([1, 1, 1], [1, 1, 1]), math.log2(6)),
        (([50, 50], [50, 50]), math.log2(51)),
    ]
    for (r, c), truth in cases:
        est = count_tables_estimate(r, c, seed=0)
        assert abs(est - truth) / truth <= 0.10, (r, c, est, truth)


def test_estimate_deterministic():
    a = count_tables_estimate([5, 7, 3], [6, 6, 3], seed=42)
    b = count_tables_estimate([5, 7, 3], [6, 6, 3], seed=42)
    assert a == b
    c = count_tables_estimate([5, 7, 3], [6, 6, 3], seed=43)
    assert a != c  # different streams give (slightly) different estimates


def test_estimate_tracks_exact_on_varied_margins():
    rng = np.random.default_rng(7)
    for _ in range(15):
        parts = int(rng.integers(2, 5))
        r = rng.integers(1, 10, size=parts)
        c = rng.integers(1, 10, size=parts)
        diff = int(r.sum() - c.sum())
        if diff > 0:
            c[0] += diff
        else:
            r[0] -= diff
        truth = count_tables_exact(r, c)
        est = count_tables_estimate(r, c, seed=int(rng.integers(1 << 30)))
        if truth > 0:
            assert abs(est - truth) / truth <= 0.10, (r, c, est, truth)
        else:
            assert abs(est) <= 1e-9


def test_gaussian_accurate_on_mid_sized_balanced_margins():
    for margin in ([12, 12, 12, 12], [20, 20, 20], [15, 10, 15, 10]):
        truth = count_tables_exact(margin, margin)
        est = count_tables_gaussian(margin, margin)
        assert abs(est - truth) / truth <= 0.05, (margin, est, truth)


def test_log2_omega_dispatch():
    # small margins take the exact path
    assert log2_omega([2, 2], [2, 2]) == pytest.approx(math.log2(3))
    # beyond the budget the analytic estimate takes over
    big = [60] * 8
    expensive = _cost_estimate(big, big)
    assert expensive > DEFAULT_MAX_COST
    val = log2_omega(big, big)
    assert val == pytest.approx(count_tables_gaussian(big, big))
    # cached result is stable
    assert log2_omega(big, big) == val


def test_exact_unit_margins_are_multinomial():
    # a margin of unit sums is counted in closed form, either way round
    # and with zero rows and columns passing through
    for rows, cols in (([1] * 7, [3, 2, 2]), ([1] * 5, [1] * 5), ([4, 1], [1] * 5)):
        expect = reference_count_exact(rows, cols)
        assert _count_exact_int(rows, cols) == expect
        assert _count_exact_int(cols + [0], [0] + rows) == expect
    # far beyond what the row-by-row recursion could reach
    assert count_tables_exact([1] * 1000, [1] * 1000) == pytest.approx(
        math.log2(math.factorial(1000)))


def _a000681(n: int) -> int:
    """OEIS A000681: n x n matrices of non-negative integers with every
    row and column summing to 2,
    (n!)^2 / 4^n * sum_k 2^k (2n - 2k)! / (k! ((n - k)!)^2)."""
    total = sum(Fraction(2 ** k * math.factorial(2 * n - 2 * k),
                         math.factorial(k) * math.factorial(n - k) ** 2)
                for k in range(n + 1))
    count = total * math.factorial(n) ** 2 / 4 ** n
    assert count.denominator == 1
    return count.numerator


def test_exact_counter_on_rows_and_columns_of_two():
    assert [_a000681(n) for n in range(1, 6)] == [1, 3, 21, 282, 6210]
    for n in range(2, 21):
        assert _count_exact_int([2] * n, [2] * n) == _a000681(n)
    # 60 columns of 2 are within the budget, and the count must not nest
    # a stack frame per column
    assert _cost_estimate([2] * 60, [2] * 60) < DEFAULT_MAX_COST
    assert log2_omega([2] * 60, [2] * 60) == pytest.approx(
        _log2_int(_a000681(60)), rel=1e-12)


def test_log2_omega_saturates_costs_past_the_float_range():
    # the composition count of a row of 500 over 1000 columns passes the
    # float range: that orientation's cost saturates to inf, and the
    # transposed one is within budget, so the count stays exact
    assert _cost_estimate([500, 500], [1] * 1000) == math.inf
    assert log2_omega([500, 500], [1] * 1000) == pytest.approx(
        math.log2(math.comb(1000, 500)))
    # both orientations saturate: the pair takes the estimate
    wide = [600] + [1] * 600
    assert _cost_estimate(wide, wide) == math.inf
    assert log2_omega(wide, wide) == count_tables_gaussian(wide, wide)


def test_run_completes_on_singletons_and_halves():
    singletons = canonicalize(np.arange(1000))
    halves = canonicalize(np.arange(1000) // 500)
    res = run(PartitionSet.from_partitions([singletons, halves]), EngineParams())
    assert np.isfinite(res.breakdown.total)


def test_log2_omega_margin_order_invariance():
    a = log2_omega([3, 5, 2], [4, 4, 2])
    b = log2_omega([2, 5, 3], [2, 4, 4])
    assert a == pytest.approx(b)


@st.composite
def _margin_pairs(draw):
    """Two margins of one total N <= 100, with 1 to 7 entries each, in
    composition order; entries may be zero."""
    N = draw(st.integers(0, 100))

    def margin():
        k = draw(st.integers(1, 7))
        cuts = sorted(draw(st.lists(st.integers(0, N), min_size=k - 1,
                                    max_size=k - 1)))
        return [b - a for a, b in zip([0] + cuts, cuts + [N])]

    return margin(), margin()


@settings(max_examples=80, deadline=None)
@given(_margin_pairs(), st.integers(0, 2))
@example(([6, 12, 12, 18], [6, 6, 18, 18]), 0)
@example(([12, 12, 12, 12], [6, 6, 12, 24]), 1)
@example(([14, 10, 9, 3, 20, 12, 13], [37, 13, 31]), 0)
@example(([10], [3, 0, 3, 4]), 2)
@example(([0, 0], [0]), 1)
@example(([0], [0]), 2)
def test_exact_counter_matches_reference(margins, pad):
    r, c = margins
    oriented = _exact_orientation(*_clean_margins(r, c))
    assume(oriented is not None)
    rows, cols = oriented
    expect = reference_count_exact(rows, cols)
    # zero rows and columns pass through the recursion unchanged
    assert _count_exact_int(rows + [0] * pad, [0] * pad + cols) == expect
    # log2_omega is exactly transpose-symmetric on both paths, even when
    # each orientation is computed afresh from margins in a new order
    with patch.object(tables, "DEFAULT_MAX_COST", 0):
        assert _exact_orientation(*_clean_margins(r, c)) is None
    for max_cost in (DEFAULT_MAX_COST, 0):
        with patch.object(tables, "DEFAULT_MAX_COST", max_cost):
            val = log2_omega(r, c)
            assert log2_omega(c[::-1], r) == val
        if max_cost:
            assert val == _log2_int(expect)


@settings(max_examples=60, deadline=None)
@given(_margin_pairs(), st.sampled_from([0, 1e3, 1e5, DEFAULT_MAX_COST]))
def test_exact_orientation_keeps_budget_and_takes_cheaper_recursion(margins,
                                                                    max_cost):
    rows, cols = _clean_margins(*margins)
    with patch.object(tables, "DEFAULT_MAX_COST", max_cost):
        oriented = _exact_orientation(rows, cols)
    # the budget decision is the cost estimate's, whichever way round
    within = min(_cost_estimate(rows, cols), _cost_estimate(cols, rows)) <= max_cost
    assert (oriented is not None) == within
    if oriented is not None:
        assert oriented in ((rows, cols), (cols, rows))
        assert _recursion_cost(*oriented) <= _recursion_cost(*oriented[::-1])


def test_exact_orientation_enumerates_the_small_rows():
    # counted this way round, the two enumerated rows are the 6s; the
    # other way round they are two 12s over four columns, about 16x slower
    rows, cols = _exact_orientation([12, 12, 12, 12], [6, 6, 12, 24])
    assert sorted(rows) == [6, 6, 12, 24]
