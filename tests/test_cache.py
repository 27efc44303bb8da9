import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PairCache, PartitionSet,
                             canonicalize, entropy, log2_omega,
                             modified_conditional_entropy, run, tables)
from partition_modes import cache as cache_module
from partition_modes.tables import DEFAULT_MAX_COST, Margin, _exact_orientation

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
            got = cache.hmod_given_mode([q], m)[0]
            assert got == pytest.approx(direct, abs=1e-10), (q, m)


def test_batch_views_agree():
    pset = _random_set(10, 30, 1)
    cache_a = PairCache(pset)
    cache_b = PairCache(pset)
    qs = list(range(pset.S))
    by_mode = cache_a.hmod_given_mode(qs, 3)
    by_q = np.array([cache_b.hmod_given_mode([q], 3)[0] for q in qs])
    assert np.allclose(by_mode, by_q)
    ms = list(range(pset.S))
    against = cache_a.hmod_against_modes(4, ms)
    direct = np.array([cache_b.hmod_given_mode([4], m)[0] for m in ms])
    assert np.allclose(against, direct)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hmod_block_rows_are_the_per_term_lookups(data):
    # terms repeat and some rows are warm, so the block reads set rows,
    # unset rows and rows with a few unset cells; every cell is the float
    # the fixed-mode lookup reads from the mode's row of a cold cache
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(12, 4, rng) for _ in range(6)]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=20)])
    terms = rng.integers(pset.S, size=data.draw(st.integers(1, 8), label="terms"))
    cands = np.sort(rng.choice(pset.S, size=data.draw(st.integers(1, 10)),
                               replace=False))
    cache = PairCache(pset)
    for q in rng.integers(pset.S, size=3):
        cache.hmod_against_modes(int(q), rng.integers(pset.S, size=4))
    block = cache.hmod_block(terms, cands)
    assert block.shape == (terms.size, cands.size)
    for row, q in zip(block, terms):
        cold = PairCache(pset)
        assert np.array_equal(row, [cold.hmod_given_mode([q], m)[0] for m in cands])
    assert np.array_equal(cache.hmod_block(terms, cands), block)


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
    assert cache.hmod_given_mode([0], 0)[0] == cache.hmod_given_mode([49], 49)[0]


# exact Omega only for small tables, so wide margins stay fast; the
# reference runs at the same budget
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
    with patch.object(tables, "DEFAULT_MAX_COST", _COST):
        _check_kernel_against_reference(pset)


def _check_kernel_against_reference(pset):
    cache = PairCache(pset)
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
    ref = np.array([[modified_conditional_entropy(q, m) for m in pset.partitions]
                    for q in pset.partitions])
    assert np.allclose(given_mode, ref, rtol=0, atol=1e-10)
    # both lookups read the one stored value of a pair
    assert against.tolist() == given_mode.tolist()
    # H_mod(q | m) - H_mod(m | q) = H(q) - H(m): the table count is
    # symmetric and both conditional entropies share H(q, m)
    ent = cache.entropies(idx)
    assert np.allclose(ent, [entropy(p) for p in pset.partitions],
                       rtol=0, atol=1e-12)
    assert np.allclose(given_mode - given_mode.T, ent[:, None] - ent[None, :],
                       rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(_ensembles(), st.sampled_from([DEFAULT_MAX_COST, _COST]))
def test_omega_block_is_log2_omega_bit_for_bit(pset, max_cost):
    # the cache counts from memoizing Margin objects and reads a pair
    # from either signature's row; log2_omega cleans the raw counts
    idx = np.arange(pset.S)
    counts = [p.counts for p in pset.partitions]
    with patch.object(tables, "DEFAULT_MAX_COST", max_cost):
        expect = np.array([[log2_omega(counts[m], counts[q]) for q in idx]
                           for m in idx])
        cache = PairCache(pset)
        by_mode = np.stack([cache.omega_block(m, idx) for m in idx])
        # the mode on the other side, in a cache that has counted nothing
        other = PairCache(pset)
        by_sample = np.stack([other.omega_block(q, idx) for q in idx], axis=1)
    assert by_mode.tolist() == expect.tolist()
    assert by_sample.tolist() == expect.tolist()


def test_build_memory_does_not_grow_with_signature_pairs():
    # 4,000 partitions of 300 nodes into 25 random labels have about as
    # many margin signatures; a dense table of their pairs took 128 MB
    rng = np.random.default_rng(0)
    pset = PartitionSet.from_partitions(
        [canonicalize(rng.integers(0, 25, 300)) for _ in range(4000)])
    tracemalloc.start()
    try:
        cache = PairCache(pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cache._margins) > 3900
    assert peak < 32e6
    # one Margin per distinct sorted size vector, built with the cache
    assert all(isinstance(m, Margin) for m in cache._margins)
    assert sorted(cache._margins) == sorted(
        {tuple(sorted(p.counts.tolist())) for p in pset.partitions})


def test_kernel_memory_is_bounded_in_communities():
    # random labels on 300 nodes give about 190 communities, so one
    # pair's table has about 36,000 cells; counted in one piece, a row of
    # 200 samples peaked at about 120 MB
    rng = np.random.default_rng(0)
    S = 200
    pset = PartitionSet.from_partitions(
        [canonicalize(rng.integers(300, size=300)) for _ in range(S + 1)])
    cache = PairCache(pset)
    cache.omega_block(S, np.arange(S))      # the counts are not the kernel's
    tracemalloc.start()
    try:
        vals = cache.hmod_given_mode(np.arange(S), S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    parts = pset.partitions
    for q in (0, 99, S - 1):
        assert vals[q] == pytest.approx(
            modified_conditional_entropy(parts[q], parts[S]), abs=1e-9)


@pytest.mark.parametrize("cells", [1, 60, 130])
def test_kernel_chunks_give_the_same_values(monkeypatch, cells):
    # tables of at most 25 cells: one sample per chunk, then a few with
    # a shorter last chunk, against each row counted in one piece
    pset = _random_set(30, 40, 5)
    whole = [PairCache(pset).hmod_given_mode(np.arange(30), m) for m in (0, 7)]
    monkeypatch.setattr(cache_module, "_KERNEL_CELLS", cells)
    chunked = [PairCache(pset).hmod_given_mode(np.arange(30), m) for m in (0, 7)]
    assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))


def _rows_matrix(rows, n):
    out = np.full((n, n), np.nan)
    for a, row in rows.items():
        out[a] = row
    return out


def test_omega_matrix_symmetric_after_run(monkeypatch):
    # a low budget sends the larger margin pairs to the estimate, so both
    # counting paths fill the signature rows
    monkeypatch.setattr(tables, "DEFAULT_MAX_COST", 1e4)
    counted = []
    monkeypatch.setattr(cache_module, "log2_omega",
                        lambda r, c: counted.append((r, c)) or log2_omega(r, c))
    computed = []
    kernel = PairCache._compute_block

    def spy(self, m_indices, q_indices):
        computed.extend(zip(self.cid[m_indices].tolist(),
                            self.cid[q_indices].tolist()))
        return kernel(self, m_indices, q_indices)

    monkeypatch.setattr(PairCache, "_compute_block", spy)
    pset = _random_set(60, 16, 2)
    cache = PairCache(pset)
    run(pset, EngineParams(seed=0, k0=3), cache=cache)
    # a second run on the warm cache computes only cells it has not seen
    run(pset, EngineParams(seed=1, k0=2), cache=cache)
    # each (row content, column content) cell reached the kernel at most
    # once, the set cells are exactly the computed ones, and a pair
    # computed in the rows of both its contents gave the same float
    assert len(computed) == len(set(computed))
    hmod = _rows_matrix(cache._by_mode, cache.n_cid)
    is_set = ~np.isnan(hmod)
    assert set(zip(*np.nonzero(is_set))) == set(computed)
    both = is_set & is_set.T & ~np.eye(cache.n_cid, dtype=bool)
    assert both.any()
    assert hmod[both].tolist() == hmod.T[both].tolist()
    n = len(cache._margins)
    omega = _rows_matrix(cache._omega_rows, n)
    is_set = ~np.isnan(omega)
    both = is_set & is_set.T & ~np.eye(n, dtype=bool)
    assert both.any()
    assert np.array_equal(omega[both], omega.T[both])
    # each unordered pair was counted once, from its signatures' margins
    pairs = {frozenset(p) for p in zip(*np.nonzero(is_set))}
    assert len(counted) == len(pairs)
    assert all(isinstance(m, Margin) for pair in counted for m in pair)
    exact = [_exact_orientation(cache._margins[a], cache._margins[b])
             is not None for a, b in zip(*np.nonzero(is_set))]
    assert any(exact) and not all(exact)


@st.composite
def _coarsenings(draw):
    """A mode, partitions that merge its communities, and the partition
    into one community."""
    N = draw(st.integers(2, 40))
    mode = canonicalize(draw(st.lists(st.integers(0, 7), min_size=N, max_size=N)))
    merges = draw(st.lists(st.lists(st.integers(0, 7), min_size=mode.n,
                                    max_size=mode.n), min_size=1, max_size=6))
    coarser = [canonicalize(np.asarray(g)[mode.labels]) for g in merges]
    return PartitionSet.from_partitions(
        [mode, *coarser, canonicalize(np.zeros(N, dtype=np.int64))])


@settings(max_examples=300, deadline=None)
@given(_coarsenings())
def test_hmod_of_a_coarsening_is_its_omega_term(pset):
    # H(q | m) = 0 when q merges communities of m, so H_mod(q | m) is
    # log2 Omega / N and is never negative; for one community it is 0
    cache = PairCache(pset)
    N, mode = pset.N, pset.partitions[0]
    hmod = cache.hmod_given_mode(np.arange(pset.S), 0)
    assert (hmod >= 0).all()
    omega = np.array([log2_omega(mode.counts, q.counts) for q in pset.partitions])
    assert np.abs(hmod - omega / N).max() <= 1e-12
    assert hmod[-1] == 0.0
    one = pset.S - 1
    assert cache.hmod_against_modes(one, np.arange(pset.S)).tolist() == [0.0] * pset.S
