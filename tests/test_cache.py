import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PairCache, PartitionSet,
                             canonicalize, entropy, modified_conditional_entropy,
                             run)
from partition_modes.tables import _exact_orientation

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
    # given[q, m] from the row of m, against[q, m] from the row of q; the
    # first pass fills every row, so the second computes no pair
    given_mode = np.stack([cache.hmod_given_mode(idx, m) for m in idx], axis=1)
    computed = []
    kernel = cache._compute_block

    def spy(m_indices, *rest):
        computed.append(len(m_indices))
        return kernel(m_indices, *rest)

    cache._compute_block = spy
    against = np.stack([cache.hmod_against_modes(q, idx) for q in idx])
    assert computed == []
    ref = np.array([[modified_conditional_entropy(q, m, max_cost=_COST)
                     for m in pset.partitions] for q in pset.partitions])
    assert np.allclose(given_mode, ref, rtol=0, atol=1e-10)
    assert np.allclose(against, ref, rtol=0, atol=1e-10)
    # H_mod(q | m) - H_mod(m | q) = H(q) - H(m): the table count is
    # symmetric and both conditional entropies share H(q, m)
    ent = cache.entropies(idx)
    assert np.allclose(ent, [entropy(p) for p in pset.partitions],
                       rtol=0, atol=1e-12)
    assert np.allclose(given_mode - given_mode.T, ent[:, None] - ent[None, :],
                       rtol=0, atol=1e-10)


def test_omega_matrix_symmetric_after_run():
    # a low budget sends the larger margin pairs to the estimate, so both
    # counting paths fill the matrix
    budget = 1e4
    pset = _random_set(60, 16, 2)
    cache = PairCache(pset, max_cost=budget)
    run(pset, EngineParams(seed=0, k0=3, omega_max_cost=budget), cache=cache)
    omega = cache._omega
    is_set = ~np.isnan(omega)
    assert np.array_equal(is_set, is_set.T)
    assert np.array_equal(omega[is_set], omega.T[is_set])
    exact = [_exact_orientation(cache._margins[a], cache._margins[b], budget)
             is not None for a, b in zip(*np.nonzero(is_set))]
    assert any(exact) and not all(exact)
