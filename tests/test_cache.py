import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (PairCache, PartitionSet, canonicalize, entropy,
                             modified_conditional_entropy)

from conftest import random_partition


def _random_set(S, N, seed):
    rng = np.random.default_rng(seed)
    return PartitionSet.from_partitions(
        [random_partition(N, 5, rng) for _ in range(S)])


def test_cache_matches_direct_functions():
    pset = _random_set(12, 40, 0)
    cache = PairCache(pset)
    for i in range(pset.S):
        assert cache.entropy(i) == pytest.approx(entropy(pset.partitions[i]))
    for q in range(pset.S):
        for m in range(pset.S):
            direct = modified_conditional_entropy(pset.partitions[q],
                                                  pset.partitions[m])
            assert cache.hmod(q, m) == pytest.approx(direct, abs=1e-10), (q, m)


def test_batch_views_agree():
    pset = _random_set(10, 30, 1)
    cache_a = PairCache(pset)
    cache_b = PairCache(pset)
    qs = list(range(pset.S))
    by_mode = cache_a.hmod_given_mode(qs, 3)
    by_q = np.array([cache_b.hmod(q, 3) for q in qs])
    assert np.allclose(by_mode, by_q)
    ms = list(range(pset.S))
    against = cache_a.hmod_against_modes(4, ms)
    direct = np.array([cache_b.hmod(4, m) for m in ms])
    assert np.allclose(against, direct)


def test_duplicate_partitions_share_entries():
    base = canonicalize([0, 0, 1, 1, 2, 2])
    other = canonicalize([0, 1, 0, 1, 0, 1])
    pset = PartitionSet.from_partitions([base] * 50 + [other] * 50)
    cache = PairCache(pset)
    cache.hmod_given_mode(range(pset.S), 0)
    # only two distinct partitions exist, so one mode row holds exactly
    # two computed pairs
    assert cache.n_cid == 2
    assert len(cache._by_mode) == 1
    row = cache._by_mode[int(cache.cid[0])]
    assert np.isfinite(row).sum() == 2
    assert cache.hmod(0, 0) == cache.hmod(49, 49)


# exact Omega only for small tables, so wide margins stay fast; the
# reference is called with the same budget
_COST = 1e4


def _wide_labels(N):
    """Singletons over N nodes with a few pairs of nodes merged."""
    def merge(pairs):
        labels = list(range(N))
        for i, j in pairs:
            labels[i] = labels[j]
        return labels
    return st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
                    max_size=4).map(merge)


@st.composite
def _ensembles(draw):
    """Ensembles whose samples repeat a few distinct contents.  Wide ones
    hold a partition with more than 255 communities next to coarse ones,
    so the cache stores label rows as uint16."""
    if draw(st.booleans()):
        N = draw(st.integers(2, 30))
        first = others = st.lists(st.integers(0, 6), min_size=N, max_size=N)
    else:
        N = draw(st.integers(260, 300))
        first = _wide_labels(N)
        others = st.one_of(first, st.lists(st.integers(0, 3), min_size=N,
                                           max_size=N))
    distinct = [draw(first)] + draw(st.lists(others, max_size=3))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2,
                          max_size=8))
    return PartitionSet.from_partitions(
        [canonicalize(distinct[i]) for i in picks])


@settings(max_examples=40, deadline=None)
@given(_ensembles())
def test_kernel_matches_reference_in_both_directions(pset):
    cache = PairCache(pset, max_cost=_COST)
    if max(p.n for p in pset.partitions) > 255:
        assert cache._labels.dtype == np.uint16
    idx = np.arange(pset.S)
    # given[q, m] from rows over samples, against[q, m] from rows over modes
    given_mode = np.stack([cache.hmod_given_mode(idx, m) for m in idx], axis=1)
    against = np.stack([cache.hmod_against_modes(q, idx) for q in idx])
    ref = np.array([[modified_conditional_entropy(q, m, max_cost=_COST)
                     for m in pset.partitions] for q in pset.partitions])
    assert np.allclose(given_mode, ref, rtol=0, atol=1e-10)
    assert np.allclose(against, ref, rtol=0, atol=1e-10)
    # H_mod(q | m) - H_mod(m | q) = H(q) - H(m): the table count is
    # symmetric and both conditional entropies share H(q, m)
    ent = cache.entropies(idx)
    assert np.allclose(given_mode - given_mode.T, ent[:, None] - ent[None, :],
                       rtol=0, atol=1e-10)
