import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (canonicalize, conditional_entropy,
                             contingency_table, entropy, log2_omega,
                             modified_conditional_entropy, Partition,
                             PartitionSet)
from partition_modes.partitions import canonicalize_rows
from partition_modes.sampler import load_partitions

from conftest import random_partition

label_lists = st.lists(st.integers(min_value=-5, max_value=9),
                       min_size=1, max_size=40)

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
int64_labels = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX))


@st.composite
def label_matrices(draw):
    """S x N int64 label lists, N down to 1, some rows constant."""
    S = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=1, max_value=12))
    row = st.one_of(st.lists(int64_labels, min_size=N, max_size=N),
                    int64_labels.map(lambda v: [v] * N))
    return draw(st.lists(row, min_size=S, max_size=S))


def first_appearance(row):
    """Reference canonical form of one row: labels, n and counts."""
    ids = {}
    labels = [ids.setdefault(x, len(ids)) for x in row]
    return labels, len(ids), [labels.count(g) for g in range(len(ids))]


def test_canonicalize_examples():
    p = canonicalize([7, 7, 3, 3])
    assert list(p.labels) == [0, 0, 1, 1]
    assert list(p.counts) == [2, 2]
    p = canonicalize([5, 5, 5])
    assert list(p.labels) == [0, 0, 0]
    assert list(p.counts) == [3]
    p = canonicalize([2, 9, 2, 9, 9])
    assert list(p.labels) == [0, 1, 0, 1, 1]
    assert list(p.counts) == [2, 3]


def test_canonicalize_empty_input():
    with pytest.raises(ValueError, match="empty partition"):
        canonicalize([])


@given(label_lists)
def test_canonicalize_preserves_structure(raw):
    p = canonicalize(raw)
    arr = np.asarray(raw)
    # same nodes grouped together iff they shared a raw label
    for g in range(p.n):
        idx = np.flatnonzero(p.labels == g)
        assert len(set(arr[idx])) == 1
    assert p.counts.sum() == len(raw)
    assert p.n == len(set(raw))
    # idempotent
    assert canonicalize(p.labels) == p


@given(label_matrices())
def test_canonicalize_rows_matches_first_appearance(rows):
    parts = canonicalize_rows(np.array(rows, dtype=np.int64))
    assert len(parts) == len(rows)
    for row, p in zip(rows, parts):
        labels, n, counts = first_appearance(row)
        assert p.labels.tolist() == labels and p.labels.dtype == np.int64
        assert p.n == n and isinstance(p.n, int)
        assert p.counts.tolist() == counts
        assert canonicalize(row) == p and canonicalize(row).counts.tolist() == counts


@settings(max_examples=50)
@given(label_matrices())
def test_load_partitions_matches_first_appearance(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w") as fh:
            fh.write("# header\n\n")
            fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)
        pset = load_partitions(path)
    assert pset.S == len(rows) and pset.N == len(rows[0])
    for row, p in zip(rows, pset.partitions):
        labels, n, counts = first_appearance(row)
        assert p.labels.tolist() == labels
        assert p.n == n and p.counts.tolist() == counts


def test_canonicalize_rows_empty_input():
    for raw in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64),
                np.zeros(3, dtype=np.int64)):
        with pytest.raises(ValueError, match="empty partition"):
            canonicalize_rows(raw)


def test_partition_equality_and_hash():
    a = canonicalize([0, 0, 1, 1])
    b = canonicalize([5, 5, 2, 2])
    c = canonicalize([0, 1, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_partition_set_validation():
    a = canonicalize([0, 0, 1])
    b = canonicalize([0, 1])
    with pytest.raises(ValueError, match="incompatible"):
        PartitionSet(partitions=[a, b], N=3)
    with pytest.raises(ValueError, match="empty partition set"):
        PartitionSet.from_partitions([])
    with pytest.raises(ValueError, match="empty partition set"):
        PartitionSet(partitions=[], N=3)
    pset = PartitionSet.from_partitions([a, a])
    assert pset.S == 2 and pset.N == 3


def test_entropy_examples():
    assert entropy(canonicalize(np.repeat(np.arange(4), 25))) == pytest.approx(2.0)
    assert entropy(canonicalize(np.zeros(100))) == 0.0
    labels = np.concatenate([np.zeros(50), np.ones(25), np.full(25, 2)])
    assert entropy(canonicalize(labels)) == pytest.approx(1.5)


@given(label_lists)
def test_entropy_bounds(raw):
    p = canonicalize(raw)
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(p.n) + 1e-12
    assert (h == 0) == (p.n == 1)
    if p.n > 1 and len(set(p.counts)) == 1:
        assert h == pytest.approx(math.log2(p.n))


def test_contingency_table_examples():
    m = canonicalize([0, 0, 1, 1])
    assert np.array_equal(contingency_table(m, m).t, [[2, 0], [0, 2]])
    p = canonicalize([0, 1, 0, 1])
    assert np.array_equal(contingency_table(m, p).t, [[1, 1], [1, 1]])
    single = canonicalize([0, 0, 0, 0])
    assert np.array_equal(contingency_table(single, m).t, [[2, 2]])


def test_contingency_table_margins():
    rng = np.random.default_rng(3)
    for _ in range(50):
        N = int(rng.integers(2, 60))
        m = random_partition(N, 5, rng)
        p = random_partition(N, 5, rng)
        tab = contingency_table(m, p)
        assert np.array_equal(tab.row_sums, m.counts)
        assert np.array_equal(tab.col_sums, p.counts)
        assert tab.t.sum() == N


def test_contingency_table_mismatched_N():
    with pytest.raises(ValueError, match="incompatible"):
        contingency_table(canonicalize([0, 1]), canonicalize([0, 1, 2]))
    with pytest.raises(ValueError, match="incompatible partitions"):
        modified_conditional_entropy(canonicalize([0, 1]), canonicalize([0, 1, 2]))


def test_conditional_entropy_examples():
    m = canonicalize([0, 0, 1, 1])
    assert conditional_entropy(m, m) == 0.0
    assert conditional_entropy(canonicalize([0, 0, 0, 0]), m) == 0.0
    assert conditional_entropy(canonicalize([0, 1, 0, 1]), m) == pytest.approx(1.0)


def test_conditional_entropy_zero_iff_function_of_mode():
    rng = np.random.default_rng(4)
    for _ in range(100):
        N = int(rng.integers(5, 200))
        mode = random_partition(N, 6, rng)
        # p's label at each node is a function of mode's label there
        mapping = rng.integers(0, 4, size=mode.n)
        p = canonicalize(mapping[mode.labels])
        assert conditional_entropy(p, mode) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_nonnegative_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        N = int(rng.integers(2, 200))
        p = random_partition(N, 8, rng)
        m = random_partition(N, 8, rng)
        assert conditional_entropy(p, m) >= 0.0


def test_modified_conditional_entropy_examples():
    half = canonicalize(np.repeat([0, 1], 50))
    assert modified_conditional_entropy(half, half) == \
        pytest.approx(math.log2(51) / 100)
    whole = canonicalize(np.zeros(100))
    assert modified_conditional_entropy(whole, whole) == 0.0
    m = canonicalize([0, 0, 1, 1])
    p = canonicalize([0, 1, 0, 1])
    assert modified_conditional_entropy(p, m) == \
        pytest.approx(1.0 + math.log2(3) / 4)


def test_modified_dominates_conditional():
    rng = np.random.default_rng(6)
    for _ in range(50):
        N = int(rng.integers(2, 120))
        p = random_partition(N, 6, rng)
        m = random_partition(N, 6, rng)
        assert modified_conditional_entropy(p, m) >= conditional_entropy(p, m) - 1e-12


def test_self_modified_entropy_matches_omega():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(2, 200))
        p = random_partition(N, 6, rng)
        expect = log2_omega(p.counts, p.counts) / N
        assert modified_conditional_entropy(p, p) == pytest.approx(expect, abs=1e-12)


def test_relabel_invariance():
    rng = np.random.default_rng(8)
    for _ in range(30):
        N = int(rng.integers(3, 80))
        p = random_partition(N, 5, rng)
        m = random_partition(N, 5, rng)
        # shuffle community identities, then recanonicalize
        perm = rng.permutation(p.n)
        p2 = canonicalize(perm[p.labels])
        assert entropy(p2) == pytest.approx(entropy(p))
        assert conditional_entropy(p2, m) == pytest.approx(conditional_entropy(p, m))
        assert modified_conditional_entropy(p2, m) == \
            pytest.approx(modified_conditional_entropy(p, m))
