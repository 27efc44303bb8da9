import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PairCache, PartitionSet,
                             canonicalize, description_length, find_mode_exact,
                             find_mode_sampled, log2_omega, run, tables)
from partition_modes.engine import (_MOVES, EngineState, _find_mode,
                                    _initial_state, _make_cluster,
                                    propose_merge, propose_reassign,
                                    propose_split)
from partition_modes.sampler import PerturbationSpec, perturb_ensemble

from conftest import random_partition


def _state_from_assignment(pset, cache, params, assignment):
    rng = np.random.default_rng(0)
    clusters = []
    for k in sorted(set(assignment)):
        members = [i for i, a in enumerate(assignment) if a == k]
        clusters.append(_make_cluster(members, pset, cache, params, rng))
    return EngineState(pset, cache, params, clusters)


def test_engine_params_validation():
    with pytest.raises(ValueError):
        EngineParams(lam=-1.0)
    with pytest.raises(ValueError):
        EngineParams(k0=0)
    with pytest.raises(ValueError):
        EngineParams(patience=0)


def test_find_mode_singleton_and_ties():
    a = canonicalize([0, 0, 1, 1, 2, 2])
    pset = PartitionSet.from_partitions([a, a, a, a])
    cache = PairCache(pset)
    assert find_mode_exact([2], pset, cache) == 2
    # identical members: lowest index wins the tie
    assert find_mode_exact([0, 1, 2, 3], pset, cache) == 0
    assert find_mode_exact([3, 1, 2], pset, cache) == 1


def test_find_mode_majority():
    a = canonicalize([0, 0, 0, 1, 1, 1, 2, 2, 2])
    b = canonicalize([0, 0, 0, 1, 1, 2, 2, 2, 2])  # one node relabeled
    pset = PartitionSet.from_partitions([a, a, a, b])
    cache = PairCache(pset)
    assert find_mode_exact([0, 1, 2, 3], pset, cache) == 0


def test_find_mode_sampled_matches_exact_for_small_clusters():
    rng = np.random.default_rng(1)
    parts = [random_partition(30, 4, rng) for _ in range(20)]
    pset = PartitionSet.from_partitions(parts)
    cache = PairCache(pset)
    members = list(range(20))
    exact = find_mode_exact(members, pset, cache)
    sampled = find_mode_sampled(members, pset, 30, np.random.default_rng(5), cache)
    assert sampled == exact


def test_find_mode_sampled_finds_dominant_base():
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    spec = PerturbationSpec(bases=[(base_a, 1.0)], node_flip_rate=0.05,
                            S=200, seed=0)
    pset_a, _ = perturb_ensemble(spec)
    parts = pset_a.partitions + [base_b] * 5
    pset = PartitionSet.from_partitions(parts)
    cache = PairCache(pset)
    members = list(range(len(parts)))
    hits = 0
    for seed in range(20):
        idx = find_mode_sampled(members, pset, 30,
                                np.random.default_rng(seed), cache)
        # the winner must come from the dominant perturbation family
        if idx < 200:
            hits += 1
    assert hits >= 19


def test_propose_reassign_single_cluster_is_noop():
    rng = np.random.default_rng(2)
    parts = [random_partition(20, 3, rng) for _ in range(8)]
    pset = PartitionSet.from_partitions(parts)
    params = EngineParams()
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, params, [0] * 8)
    out = propose_reassign(state, np.random.default_rng(0))
    assert out is state


def test_propose_merge_requires_two_clusters():
    rng = np.random.default_rng(3)
    parts = [random_partition(20, 3, rng) for _ in range(6)]
    pset = PartitionSet.from_partitions(parts)
    params = EngineParams()
    cache = PairCache(pset)
    one = _state_from_assignment(pset, cache, params, [0] * 6)
    assert propose_merge(one, np.random.default_rng(0)) is None
    two = _state_from_assignment(pset, cache, params, [0, 0, 0, 1, 1, 1])
    merged = propose_merge(two, np.random.default_rng(0))
    assert merged.K == 1
    assert sorted(merged.clusters[0].members) == list(range(6))


def test_propose_split_identical_cluster_rejected():
    p = canonicalize([0, 0, 1, 1, 2, 2])
    pset = PartitionSet.from_partitions([p] * 10)
    params = EngineParams(lam=1.0)
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, params, [0] * 10)
    candidate = propose_split(state, np.random.default_rng(0))
    assert candidate.K == 2
    # conditional cost unchanged, penalty and label entropy grow
    assert candidate.total > state.total


def test_propose_split_skips_singleton():
    p = canonicalize([0, 1])
    pset = PartitionSet.from_partitions([p])
    params = EngineParams()
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, params, [0])
    assert propose_split(state, np.random.default_rng(0)) is None


def test_propose_split_separates_two_families():
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                            node_flip_rate=0.0, S=60, seed=1)
    pset, truth = perturb_ensemble(spec)
    params = EngineParams()
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, params, [0] * pset.S)
    hits = 0
    for seed in range(100):
        candidate = propose_split(state, np.random.default_rng(seed))
        got = np.empty(pset.S, dtype=int)
        for k, c in enumerate(candidate.clusters):
            got[list(c.members)] = k
        if tuple(got) == tuple(truth) or tuple(1 - got) == tuple(truth):
            hits += 1
    assert hits >= 95


def test_propose_split_collapses_are_rejected():
    # with noisy families a split whose seeds land in one family can
    # converge to a singleton; such candidates must cost more than the
    # current state so the engine rejects them
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                            node_flip_rate=0.03, S=60, seed=1)
    pset, truth = perturb_ensemble(spec)
    params = EngineParams()
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, params, [0] * pset.S)
    for seed in range(40):
        candidate = propose_split(state, np.random.default_rng(seed))
        got = np.empty(pset.S, dtype=int)
        for k, c in enumerate(candidate.clusters):
            got[list(c.members)] = k
        recovered = tuple(got) == tuple(truth) or tuple(1 - got) == tuple(truth)
        if not recovered:
            assert candidate.total > state.total


def test_run_single_partition():
    p = canonicalize([0, 0, 1, 1, 1])
    pset = PartitionSet.from_partitions([p])
    res = run(pset, EngineParams(seed=0))
    assert res.clustering.K == 1
    assert res.modes == [p]
    expect = log2_omega(p.counts, p.counts) / p.N * p.N
    assert res.breakdown.conditional_term == pytest.approx(expect)


def test_run_identical_ensemble():
    p = canonicalize([0, 0, 0, 1, 1, 1, 2, 2])
    pset = PartitionSet.from_partitions([p] * 40)
    res = run(pset, EngineParams(seed=1))
    assert res.clustering.K == 1
    assert list(res.weights) == [1.0]
    assert res.modes == [p]


def test_run_deterministic_and_trace_decreasing():
    base = canonicalize(np.repeat(np.arange(4), 10))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.1,
                            S=80, seed=2)
    pset, _ = perturb_ensemble(spec)
    a = run(pset, EngineParams(seed=7))
    b = run(pset, EngineParams(seed=7))
    assert a.to_json_dict() == b.to_json_dict()
    accepted_totals = [tot for _, _, acc, tot in a.trace if acc]
    assert all(x > y for x, y in zip(accepted_totals, accepted_totals[1:]))
    # final objective must be reproducible from the returned clustering
    fresh = description_length(pset, a.clustering, lam=1.0)
    assert fresh.total == pytest.approx(a.breakdown.total, abs=1e-9)


def test_run_recovers_bimodal_ensemble():
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                            node_flip_rate=0.05, S=500, seed=1)
    pset, _ = perturb_ensemble(spec)
    res = run(pset, EngineParams(seed=3))
    assert res.clustering.K == 2
    assert set(res.modes) == {base_a, base_b}
    assert all(0.4 <= w <= 0.6 for w in res.weights)


def test_result_json_schema():
    p = canonicalize([0, 0, 1, 1])
    pset = PartitionSet.from_partitions([p] * 5)
    res = run(pset, EngineParams(seed=0, lam=2.0))
    data = res.to_json_dict()
    assert set(data) == {"K", "lambda", "weights", "modes", "assignment",
                         "mode_index", "objective", "trace"}
    assert data["K"] == 1
    assert data["lambda"] == 2.0
    assert len(data["assignment"]) == 5
    assert data["modes"][0] == [0, 0, 1, 1]


def test_run_independent_of_cache_state():
    # the budget splits the margin pairs between the exact count and the
    # estimate, and clusters above 30 members take the sampled mode search
    budget = 1e4
    rng = np.random.default_rng(4)
    pset = PartitionSet.from_partitions(
        [random_partition(16, 5, rng) for _ in range(80)])
    params = EngineParams(seed=4, k0=2, omega_max_cost=budget)

    def result(cache):
        return run(pset, params, cache=cache).to_json_dict()

    tables._omega_cache.clear()
    cold = result(PairCache(pset, max_cost=budget))
    warm_cache = PairCache(pset, max_cost=budget)
    warm = result(warm_cache)
    reused = result(warm_cache)
    # a memo filled first by direct calls, transposed and in label order
    tables._omega_cache.clear()
    for p in pset.partitions:
        for q in pset.partitions[:10]:
            log2_omega(q.counts, p.counts, max_cost=budget)
    transposed = result(PairCache(pset, max_cost=budget))
    assert cold == warm == reused == transposed


def test_mode_memo_hit_returns_stored_mode_and_keeps_rng_aligned():
    rng = np.random.default_rng(6)
    pset = PartitionSet.from_partitions(
        [random_partition(20, 4, rng) for _ in range(50)])
    cache = PairCache(pset)
    params = EngineParams()
    members = np.arange(3, 50, dtype=np.int64)   # above both thresholds
    fresh_rng = np.random.default_rng(11)
    fresh = find_mode_sampled(members, pset, params.mode_sample_size, fresh_rng,
                              cache)
    memo = {}
    assert _find_mode(members, pset, cache, params, np.random.default_rng(11),
                      memo) == fresh
    assert list(memo.values()) == [fresh]
    # a hit hands back whatever was stored and draws what the search draws
    (key,) = memo
    memo[key] = 7
    hit_rng = np.random.default_rng(11)
    assert _find_mode(members, pset, cache, params, hit_rng, memo) == 7
    assert hit_rng.bit_generator.state == fresh_rng.bit_generator.state
    # exact searches are not memoized
    _find_mode(members[:params.exact_mode_threshold], pset, cache, params,
               hit_rng, memo)
    assert len(memo) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_proposals_keep_members_sorted_and_total_consistent(data):
    # a small pool of distinct partitions, so contents repeat, and low
    # thresholds, so clusters of a few members take the sampled (and
    # memoized) mode search
    N = data.draw(st.integers(2, 10), label="N")
    S = data.draw(st.integers(2, 30), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 8)))]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    params = EngineParams(lam=data.draw(st.sampled_from([0.0, 1.0])),
                          k0=data.draw(st.integers(1, 4)),
                          mode_sample_size=data.draw(st.integers(1, 4)),
                          exact_mode_threshold=data.draw(st.integers(0, 3)))
    cache = PairCache(pset)
    state = _initial_state(pset, cache, params, rng)
    moves = data.draw(st.lists(st.integers(0, len(_MOVES) - 1), min_size=1,
                               max_size=12), label="moves")
    for move in moves:
        candidate = _MOVES[move](state, rng)
        if candidate is None:
            continue
        for c in candidate.clusters:
            assert c.members.dtype == np.int64
            assert np.all(np.diff(c.members) > 0)
            assert c.mode in c.members
        assert np.array_equal(np.sort(np.concatenate(
            [c.members for c in candidate.clusters])), np.arange(S))
        fresh = description_length(pset, candidate.to_clustering(), lam=params.lam)
        assert candidate.total == pytest.approx(fresh.total, abs=1e-9)
        # walk through every proposal, emptying the memo as an accepted
        # move does
        state = candidate
        state.mode_memo.clear()
