import builtins
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PartitionSet, canonicalize,
                             count_tables_exact, count_tables_gaussian,
                             log2_omega, run, tables)
from partition_modes.tables import (DEFAULT_MAX_COST, Margin, _clean_margins,
                                    _count_exact_int, _exact_orientation,
                                    _log2_int, _recursion_cost)

from conftest import (brute_force_table_count, compensated_sum, margin_vectors,
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
    # the exact counter cleans through Margin too: each of these was
    # counted as one table when it dropped zero sums on its own
    with pytest.raises(ValueError, match="negative margin"):
        _count_exact_int([-1, 3], [2])
    with pytest.raises(ValueError, match="not a finite integer"):
        _count_exact_int([1.5, 0.5], [2])


def test_margin_of_a_margin_is_itself():
    # memos included, so one margin counted against many keeps its memos
    for values in ([3, 0, 1, 2], [], [5]):
        m = Margin(values)
        assert Margin(m) is m


def test_margin_rejects_sums_that_are_not_integers():
    # a fractional sum is not truncated into another margin's count
    for rows, cols in (([1.9, 2.1], [2, 1]), ([2.5, 2.5], [2, 2]),
                       ([math.inf], [1]), ([math.nan, 1], [1])):
        with pytest.raises(ValueError, match="not a finite integer"):
            log2_omega(rows, cols)
    with pytest.raises(ValueError, match="not a finite integer"):
        Margin([math.inf])
    # margin sums follow the data rule of labels and group sizes: a sum
    # past int64, or one of a type that is not an int or a float, is not
    # counted
    for values in ([2 ** 63, 1], np.array([2 ** 63], np.uint64), [Decimal(2), 2],
                   [Fraction(4, 2), 2]):
        with pytest.raises(ValueError, match="margin sum is not a finite integer"):
            log2_omega(values, [sum(int(v) for v in values)])
    # integers of any kind, and floats of integral value, still count
    expect = math.log2(3)
    assert log2_omega(np.array([2, 2], np.int8), [np.uint64(2), 2]) == expect
    assert count_tables_exact([2.0, np.float32(2)], [True + 1, 2]) == expect
    assert log2_omega((v for v in (2, 2)), [2, 2]) == expect


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
        est = count_tables_gaussian(r, c)
        assert abs(est - truth) / truth <= 0.10, (r, c, est, truth)


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
        rng.integers(1 << 30)  # unused; drawn so the margins after it stay
        est = count_tables_gaussian(r, c)
        if truth > 0:
            assert abs(est - truth) / truth <= 0.10, (r, c, est, truth)
        else:
            assert abs(est) <= 1e-9


def test_gaussian_accurate_on_mid_sized_balanced_margins():
    # [15, 10, 15, 10] is past the budget, so the reference is the
    # counter itself rather than count_tables_exact
    for margin in ([12, 12, 12, 12], [20, 20, 20], [15, 10, 15, 10]):
        truth = _log2_int(_count_exact_int(margin, margin))
        est = count_tables_gaussian(margin, margin)
        assert abs(est - truth) / truth <= 0.01, (margin, est, truth)


@pytest.mark.parametrize("rows,cols", [
    ([6, 6, 18, 18], [6, 6, 18, 18]),
    ([6, 6, 18, 18], [6, 12, 12, 18]),
    ([19, 23, 26, 32], [25, 25, 25, 25]),
])
def test_estimate_within_one_percent_past_the_budget(rows, cols):
    # margin pairs of the benchmark ensembles that log2_omega estimates
    assert _exact_orientation(rows, cols) is None
    truth = _log2_int(_count_exact_int(rows, cols))
    est = log2_omega(rows, cols)
    assert est == count_tables_gaussian(cols[::-1], rows)
    assert abs(est - truth) / truth <= 0.01, (est, truth)


def test_estimate_exact_on_unit_margins():
    # a margin of unit sums is the multinomial, either way round
    assert count_tables_gaussian([1, 1, 1], [1, 1, 1]) == pytest.approx(
        math.log2(6), rel=1e-12)
    expect = _log2_int(_count_exact_int([3, 2, 2], [1] * 7))
    assert count_tables_gaussian([3, 2, 2], [1] * 7) == pytest.approx(expect, rel=1e-12)
    assert count_tables_gaussian([1] * 7, [3, 2, 2]) == pytest.approx(expect, rel=1e-12)


def test_log2_omega_dispatch():
    # small margins take the exact path
    assert log2_omega([2, 2], [2, 2]) == pytest.approx(math.log2(3))
    # beyond the budget the estimate takes over
    big = [60] * 8
    assert _recursion_cost(big, big) > DEFAULT_MAX_COST
    val = log2_omega(big, big)
    assert val == count_tables_gaussian(big, big)
    # a repeated call returns the same float
    assert log2_omega(big, big) == val


@pytest.mark.parametrize("margins", [([2, 2], [2, 2]), ([60] * 8, [60] * 8)])
def test_log2_omega_decides_the_budget_once(margins):
    calls = []
    orient = tables._exact_orientation

    def spy(rows, cols):
        calls.append((rows, cols))
        return orient(rows, cols)

    with patch.object(tables, "_exact_orientation", spy):
        log2_omega(*margins)
    assert len(calls) == 1


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


def _wide(m: int):
    """Rows (1, 2, m - 1) over columns (2, 1, ..., 1) with m unit columns,
    and their count: the row of 1 takes the column of 2 or a unit column,
    and the row of 2 fills what is left."""
    count = math.comb(m + 1, 2) + m * (m + math.comb(m - 1, 2))
    return [1, 2, m - 1], [2] + [1] * m, count


def test_exact_counter_on_rows_and_columns_of_two():
    assert [_a000681(n) for n in range(1, 6)] == [1, 3, 21, 282, 6210]
    for n in range(2, 21):
        assert _count_exact_int([2] * n, [2] * n) == _a000681(n)
    # 60 rows and columns of 2 are past the budget; the estimate is
    # within 0.01% of the count
    assert _exact_orientation([2] * 60, [2] * 60) is None
    assert log2_omega([2] * 60, [2] * 60) == pytest.approx(
        _log2_int(_a000681(60)), rel=1e-4)
    # a row of 1 over 1,102 columns is within the budget, and the count
    # must not nest a stack frame per column
    for m in range(2, 7):
        rows, cols, count = _wide(m)
        assert brute_force_table_count(rows, cols) == count
    rows, cols, count = _wide(1101)
    assert _exact_orientation(rows, cols) == (rows, cols)
    assert log2_omega(rows, cols) == _log2_int(count)


_R1 = ([6, 7, 8, 9, 10, 10, 10, 10, 11, 11, 12, 12, 12, 12, 12, 12, 13, 13,
        13, 14, 15, 16, 16, 17, 19],
       [5, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 13, 13, 13, 13, 14,
        14, 14, 14, 14, 15, 17, 20])
_R2 = ([5, 7, 7, 8, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12, 12, 12, 13, 13,
        14, 14, 14, 17, 18, 18, 20],
       [6, 8, 8, 9, 9, 9, 9, 10, 10, 11, 11, 11, 11, 12, 13, 13, 14, 14, 15,
        15, 15, 15, 15, 18, 19])

# (rows, cols, log2_omega as float.hex), recorded before the margins
# carried their own cost-model and estimator pieces
_FROZEN_WITHIN = [
    ([2, 2], [2, 2], "0x1.95c01a39fbd68p+0"),
    ([1, 1], [1, 1], "0x1.0000000000000p+0"),
    ([50, 50], [50, 50], "0x1.6b09044d313a6p+2"),
    ([3, 5, 2], [4, 4, 2], "0x1.5b47ebf73882ap+2"),
    ([5, 7, 3], [6, 6, 3], "0x1.c4ea8bf749fc7p+2"),
    ([2, 0, 2], [2, 2, 0], "0x1.95c01a39fbd68p+0"),
    ([12, 12, 12, 12], [12, 12, 12, 12], "0x1.843cddd112219p+4"),
    ([12, 12, 12, 12], [6, 6, 12, 24], "0x1.555db921091d9p+4"),
    ([20, 20, 20], [20, 20, 20], "0x1.d6b61bc3fe336p+3"),
    ([6, 6, 6, 30], [6, 6, 6, 30], "0x1.1d7a6af9d738cp+4"),
    ([10, 10, 10], [5, 5, 5, 5, 5, 5], "0x1.4168f520ec383p+4"),
    ([25, 25, 25, 25], [50, 50], "0x1.b08ebb652f844p+3"),
    (*_wide(6)[:2], "0x1.b7b40e398cfcep+2"),
    (*_wide(1101)[:2], "0x1.d50552f8c2addp+4"),
    # unit margins: the multinomial
    ([1] * 7, [3, 2, 2], "0x1.edb632d4ec329p+2"),
    ([3, 2, 2], [1] * 7, "0x1.edb632d4ec329p+2"),
    ([1] * 5, [1] * 5, "0x1.ba0a7eda4c113p+2"),
    ([4, 1], [1] * 5, "0x1.2934f0979a371p+1"),
    ([1] * 1000, [1] * 1000, "0x1.0a8b2f1cd4196p+13"),
    ([1] * 300, [12] * 25, "0x1.4a190a9a81850p+10"),
    # single parts
    ([10], [3, 3, 4], "0x0.0p+0"),
    ([2, 3, 5], [10], "0x0.0p+0"),
    ([100], [100], "0x0.0p+0"),
    ([0, 0], [0], "0x0.0p+0"),
]
_FROZEN_PAST = [
    ([14, 10, 9, 3, 20, 12, 13], [37, 13, 31], "0x1.02655f70318b7p+5"),
    ([2] * 20, [2] * 20, "0x1.dfa398e7d9d24p+6"),
    ([60] * 8, [60] * 8, "0x1.8d72e739c8de8p+7"),
    ([40] * 12, [40] * 12, "0x1.746c87031eeb1p+8"),
    ([6, 6, 18, 18], [6, 6, 18, 18], "0x1.448d45418124ap+4"),
    ([6, 6, 18, 18], [6, 12, 12, 18], "0x1.527e1bbf153b3p+4"),
    ([19, 23, 26, 32], [25, 25, 25, 25], "0x1.0362f995462b1p+5"),
    ([15, 10, 15, 10], [15, 10, 15, 10], "0x1.80a4affd9f6f4p+4"),
    ([25, 25, 25, 25], [10] * 10, "0x1.157c8a695a300p+6"),
    ([21, 22, 35, 22], [14, 15, 7, 10, 12, 9, 10, 5, 10, 8], "0x1.0b58ee019b8e0p+6"),
    ([31, 24, 24, 21], [5, 14, 9, 10, 10, 6, 13, 6, 14, 13], "0x1.0bad152d4e485p+6"),
    (*_R1, "0x1.4913c492ab6d0p+9"),
    (*_R2, "0x1.471a76310da9bp+9"),
    (_R1[0], _R2[1], "0x1.48cfa96735fb1p+9"),
    ([2] * 60, [2] * 60, "0x1.0e9b989239c08p+9"),
    ([3] * 600 + [600] * 3, [3] * 600 + [600] * 3, "0x1.b7bae0173970fp+13"),
]


def test_log2_omega_reproduces_frozen_values():
    for frozen, within in ((_FROZEN_WITHIN, True), (_FROZEN_PAST, False)):
        for rows, cols, value in frozen:
            oriented = _exact_orientation(*_clean_margins(rows, cols))
            assert (oriented is not None) == within, (rows, cols)
            assert log2_omega(rows, cols).hex() == value, (rows, cols)
            assert log2_omega(cols, rows).hex() == value, (rows, cols)


def test_frozen_values_hold_under_a_compensated_sum(monkeypatch):
    # from Python 3.12 builtin sum adds floats with compensation; the
    # estimator adds its terms left to right itself (tables._fold), so
    # the frozen values hold on every supported Python
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_log2_omega_reproduces_frozen_values()


# (rows, cols, exact log2 count as float.hex) of margin pairs that
# log2_omega estimates in one run() of the benchmark workloads at sub-seed
# 1001: all six of repeated_unimodal (N=48), then 12 4x4, 12 4x5 and 6 5x5
# pairs drawn at random from distinct_bimodal's 2,184 (N=100).  Counted
# once by _count_exact_int in the cheaper orientation; the 5x5 pairs take
# 1-3 s each, so the test runs only the estimator.
_ENGINE_ESTIMATED = [
    ([6, 6, 12, 24], [6, 6, 12, 24], "0x1.3b2c96b047c98p+4"),
    ([6, 6, 12, 24], [6, 6, 18, 18], "0x1.3e2544f227e87p+4"),
    ([6, 6, 12, 24], [6, 12, 12, 18], "0x1.4a83cfd036978p+4"),
    ([6, 6, 18, 18], [6, 6, 18, 18], "0x1.4621402cad40bp+4"),
    ([6, 6, 18, 18], [6, 12, 12, 18], "0x1.5286ae418b5c3p+4"),
    ([6, 12, 12, 18], [6, 12, 12, 18], "0x1.6245a588e42a8p+4"),
    ([19, 23, 26, 32], [23, 23, 27, 27], "0x1.02eff7937294ep+5"),
    ([19, 26, 27, 28], [22, 24, 25, 29], "0x1.03c41681d1ecbp+5"),
    ([20, 24, 26, 30], [22, 24, 26, 28], "0x1.03fa57f6ac3e3p+5"),
    ([20, 26, 26, 28], [23, 25, 26, 26], "0x1.04df265309f1ep+5"),
    ([21, 25, 26, 28], [21, 25, 26, 28], "0x1.0494867dda50dp+5"),
    ([21, 25, 26, 28], [24, 24, 26, 26], "0x1.054c5237bbbfap+5"),
    ([22, 23, 26, 29], [23, 23, 27, 27], "0x1.04d453a243e42p+5"),
    ([22, 24, 25, 29], [24, 24, 24, 28], "0x1.0519a32aea9abp+5"),
    ([22, 24, 26, 28], [23, 23, 26, 28], "0x1.05134c6258ec3p+5"),
    ([23, 23, 24, 30], [23, 25, 25, 27], "0x1.04fe7ba04acc0p+5"),
    ([23, 23, 25, 29], [23, 24, 26, 27], "0x1.05389b8430202p+5"),
    ([23, 24, 25, 28], [23, 24, 25, 28], "0x1.056891a5ad866p+5"),
    ([19, 23, 26, 32], [18, 19, 20, 21, 22], "0x1.3fbdab91bf0d7p+5"),
    ([20, 24, 26, 30], [19, 19, 20, 20, 22], "0x1.4165ed75a24c8p+5"),
    ([20, 25, 27, 28], [17, 18, 21, 21, 23], "0x1.4117edf864c30p+5"),
    ([21, 24, 25, 30], [18, 19, 20, 21, 22], "0x1.41ac3ab75f66cp+5"),
    ([21, 26, 26, 27], [18, 19, 19, 20, 24], "0x1.41ea0c9e35cfap+5"),
    ([22, 25, 25, 28], [18, 19, 19, 20, 24], "0x1.421e0ade2cbb4p+5"),
    ([23, 23, 26, 28], [20, 20, 20, 20, 20], "0x1.430fa842bacdap+5"),
    ([23, 25, 25, 27], [17, 19, 20, 21, 23], "0x1.428e1babbcab2p+5"),
    ([23, 25, 26, 26], [17, 18, 19, 21, 25], "0x1.41cebe5fe260fp+5"),
    ([24, 24, 25, 27], [17, 18, 19, 22, 24], "0x1.420a86ba8d3b3p+5"),
    ([24, 24, 25, 27], [17, 19, 20, 21, 23], "0x1.42a3c7fdd359ap+5"),
    ([24, 24, 25, 27], [18, 19, 19, 20, 24], "0x1.429a154f0cc01p+5"),
    ([17, 18, 19, 21, 25], [17, 19, 19, 22, 23], "0x1.8abdfd02d8abap+5"),
    ([17, 18, 21, 21, 23], [18, 18, 19, 21, 24], "0x1.8b79107334149p+5"),
    ([17, 19, 20, 21, 23], [17, 20, 20, 20, 23], "0x1.8c19070519154p+5"),
    ([17, 19, 21, 21, 22], [19, 19, 19, 21, 22], "0x1.8ce214010d31bp+5"),
    ([17, 20, 20, 20, 23], [18, 20, 20, 21, 21], "0x1.8ce3592483b1fp+5"),
    ([18, 18, 19, 21, 24], [19, 20, 20, 20, 21], "0x1.8cb9ba4e28da3p+5"),
]

# the band count_tables_gaussian's docstring states for these shapes
_ENGINE_BAND = 0.009


def test_estimate_within_its_stated_band_on_engine_pairs():
    assert "within %.1f%%" % (100 * _ENGINE_BAND) in count_tables_gaussian.__doc__
    for rows, cols, exact in _ENGINE_ESTIMATED:
        assert _exact_orientation(*_clean_margins(rows, cols)) is None, (rows, cols)
        truth = float.fromhex(exact)
        est = count_tables_gaussian(rows, cols)
        assert abs(est - truth) <= _ENGINE_BAND * truth, (rows, cols, est, truth)


def test_exact_counter_merges_states_split_across_chunks(monkeypatch):
    # one composition and one state per chunk: every level is merged from
    # single-transition parts; the margins and zero pads are those of the
    # explicit examples of test_exact_counter_matches_reference
    monkeypatch.setattr(tables, "_CHUNK", 1)
    for (r, c), pad in ((([6, 6, 6, 30], [6, 6, 6, 30]), 0),
                        (([12, 12, 12, 12], [6, 6, 12, 24]), 1),
                        (([14, 10, 9, 3, 20, 12, 13], [37, 13, 31]), 0),
                        (([10], [3, 0, 3, 4]), 2), (([0, 0], [0]), 1),
                        (([0], [0]), 2)):
        oriented = _exact_orientation(*_clean_margins(r, c))
        if oriented is None:
            continue
        rows, cols = oriented
        expect = reference_count_exact(rows, cols)
        assert _count_exact_int(list(rows) + [0] * pad, [0] * pad + list(cols)) == expect
    rows, cols, count = _wide(40)
    assert _count_exact_int(rows, cols) == count
    assert _count_exact_int(cols, rows) == count


@pytest.mark.parametrize("rows,cols", [
    ([2, 130, 130], [87, 87, 88]),      # the closed-form row passes int8
    ([1, 127, 127], [1, 127, 127]),     # a cap of 127: its excess passes int8
    ([2, 3, 250], [127, 128]),          # a column sum passes int8
    ([40000, 40000], [1, 39999, 40000]),    # and int16
])
def test_exact_counter_past_narrow_state_types(rows, cols):
    expect = reference_count_exact(rows, cols)
    assert _count_exact_int(rows, cols) == expect
    assert _count_exact_int(cols, rows) == expect


def test_exact_counter_memory_is_bounded():
    # a level taken in one piece peaked at about 21 MB on _wide(1101);
    # [3] * 10 squared costs 4.44e5, near the budget
    for rows, cols in (_wide(1101)[:2], ([3] * 10, [3] * 10)):
        tracemalloc.start()
        try:
            count_tables_exact(rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (rows[:3], peak)


def test_log2_omega_saturates_costs_past_the_float_range():
    # a row of 600 is enumerated over 603 columns, whose composition
    # count passes the float range: the cost saturates to inf instead of
    # raising, and the pair takes the estimate
    wide = [3] * 600 + [600] * 3
    assert _recursion_cost(wide, wide) == math.inf
    assert log2_omega(wide, wide) == count_tables_gaussian(wide, wide)


def test_run_completes_on_singletons_and_halves():
    singletons = canonicalize(np.arange(1000))
    halves = canonicalize(np.arange(1000) // 500)
    res = run(PartitionSet.from_partitions([singletons, halves]), EngineParams())
    assert np.isfinite(res.breakdown.total)


def test_log2_omega_margin_order_invariance():
    a = log2_omega([3, 5, 2], [4, 4, 2])
    assert log2_omega([2, 5, 3], [2, 4, 4]) == a
    assert log2_omega([4, 4, 2], [3, 5, 2]) == a


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
@example(([6, 6, 6, 30], [6, 6, 6, 30]), 0)
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
    assert _count_exact_int(list(rows) + [0] * pad, [0] * pad + list(cols)) == expect
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


@settings(max_examples=100, deadline=None)
@given(_margin_pairs(), st.randoms(use_true_random=False))
@example(([2, 2], [2, 2]), random.Random(0))
@example(([0, 0], [0]), random.Random(0))
def test_estimate_is_finite_and_order_free(margins, rnd):
    r, c = margins
    est = count_tables_gaussian(r, c)
    assert math.isfinite(est) and est >= 0.0
    assert count_tables_gaussian(c, r) == est
    r_perm, c_perm = rnd.sample(r, len(r)), rnd.sample(c, len(c))
    assert count_tables_gaussian(r_perm, c) == est
    assert count_tables_gaussian(r, c_perm) == est
    # against a margin of unit sums the estimate is the exact multinomial
    units = [1] * sum(r)
    assert count_tables_gaussian(r, units) == pytest.approx(
        count_tables_exact(r, units), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(_margin_pairs(), st.sampled_from([0, 1, 1e3, 1e5, DEFAULT_MAX_COST, math.inf]))
def test_exact_orientation_keeps_budget_and_takes_cheaper_recursion(margins,
                                                                    max_cost):
    rows, cols = _clean_margins(*margins)
    with patch.object(tables, "DEFAULT_MAX_COST", max_cost):
        oriented = _exact_orientation(rows, cols)
    # a cost that stops at the budget passes it exactly when the full cost
    # does, and within it is the same float
    for r, c in ((rows, cols), (cols, rows)):
        full, cut = _recursion_cost(r, c), _recursion_cost(r, c, max_cost)
        assert (cut > max_cost) == (full > max_cost)
        assert cut == full or cut > max_cost
    # so the decision is that of the full costs, the cheaper way round
    cost, flip = min((_recursion_cost(rows, cols), False),
                     (_recursion_cost(cols, rows), True))
    assert oriented == (None if cost > max_cost
                        else (cols, rows) if flip else (rows, cols))


def test_exact_orientation_enumerates_the_small_rows():
    # counted this way round, the two enumerated rows are the 6s; the
    # other way round they are two 12s over four columns, about 8x slower
    rows, cols = _exact_orientation([12, 12, 12, 12], [6, 6, 12, 24])
    assert sorted(rows) == [6, 6, 12, 24]
