import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (EngineParams, PairCache, PartitionSet,
                             canonicalize, description_length, engine, entropy,
                             find_mode_exact, find_mode_sampled, log2_omega,
                             modified_conditional_entropy, run)
from partition_modes.engine import (_MOVES, EngineState, _find_mode,
                                    _initial_state, _kmeans_split,
                                    _make_cluster, propose_merge,
                                    propose_reassign, propose_split)
from partition_modes.sampler import PerturbationSpec, perturb_ensemble
from partition_modes.tables import DEFAULT_MAX_COST

from conftest import random_partition


def _state_from_assignment(pset, cache, params, assignment):
    priority = np.random.default_rng(0).random(pset.S)
    state = EngineState(pset, cache, params, priority, [])
    for k in sorted(set(assignment)):
        members = [i for i, a in enumerate(assignment) if a == k]
        state.clusters.append(_make_cluster(members, state))
    return state


def test_engine_params_validation():
    with pytest.raises(ValueError):
        EngineParams(lam=-1.0)
    with pytest.raises(ValueError):
        EngineParams(k0=0)
    with pytest.raises(ValueError):
        EngineParams(patience=0)
    with pytest.raises(ValueError):
        EngineParams(max_kmeans_iters=0)
    with pytest.raises(ValueError):
        EngineParams(mode_sample_size=0)
    with pytest.raises(ValueError):
        EngineParams(restarts=0)
    EngineParams(max_kmeans_iters=1, mode_sample_size=1)


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
    sampled = find_mode_sampled(members, pset, 30,
                                np.random.default_rng(5).random(pset.S), cache)
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
                                np.random.default_rng(seed).random(pset.S), cache)
        # the winner must come from the dominant perturbation family
        if idx < 200:
            hits += 1
    assert hits >= 19


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_find_mode_sampled_is_lowest_index_argmin_of_sample_score(data):
    # the sampled search scores every member p by
    # H(p) + (|C| / n) * sum over the sample X of H_mod(q | p), with X the
    # n members of lowest priority
    N = data.draw(st.integers(2, 10), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 8)))]
    S = data.draw(st.integers(3, 30), label="S")
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    members = np.sort(rng.choice(S, size=data.draw(st.integers(2, S)), replace=False))
    n = data.draw(st.integers(1, members.size - 1), label="sample size")
    priority = rng.random(S)
    mode = find_mode_sampled(members[::-1].tolist(), pset, n, priority,
                             PairCache(pset))
    sample = sorted(members, key=lambda p: priority[p])[:n]
    parts = pset.partitions
    score = {int(p): entropy(parts[p]) + members.size / n * sum(
        modified_conditional_entropy(parts[q], parts[p]) for q in sample)
        for p in members}
    assert score[mode] <= min(score.values()) + 1e-9
    # equal contents score equally, so the lowest index of each one wins
    assert mode == min(int(p) for p in members if parts[p] == parts[mode])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_find_mode_sampled_keeps_its_terms_when_an_unsampled_member_leaves(data):
    # the sample is the lowest-priority members, so a member outside it
    # can leave the cluster without changing the terms scored against
    N = data.draw(st.integers(2, 10), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 8)))]
    S = data.draw(st.integers(3, 30), label="S")
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    members = np.sort(rng.choice(S, size=data.draw(st.integers(3, S)), replace=False))
    n = data.draw(st.integers(1, members.size - 2), label="sample size")
    priority = rng.random(S)
    cache = PairCache(pset)
    terms = []
    lookup = cache.hmod_against_modes

    def spy(q_idx, m_indices):
        terms.append(int(q_idx))
        return lookup(q_idx, m_indices)

    cache.hmod_against_modes = spy
    find_mode_sampled(members, pset, n, priority, cache)
    before = set(terms)
    assert before
    outside = members[np.argsort(priority[members])[n:]]
    leaving = data.draw(st.sampled_from(outside.tolist()), label="leaving")
    terms.clear()
    find_mode_sampled(members[members != leaving], pset, n, priority, cache)
    assert set(terms) == before


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
    # a cluster of one content is not split at all ...
    assert propose_split(state, np.random.default_rng(0)) is None
    # ... since any such split costs more: conditional cost unchanged,
    # penalty and label entropy grow
    halves = _state_from_assignment(pset, cache, params, [0] * 5 + [1] * 5)
    assert halves.total > state.total
    assert run(pset, params).clustering.K == 1


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
    assert set(data) == {"K", "lambda", "omega_max_cost", "weights", "modes",
                         "assignment", "mode_index", "objective", "trace"}
    assert data["K"] == 1
    assert data["lambda"] == 2.0
    assert data["omega_max_cost"] == DEFAULT_MAX_COST
    assert len(data["assignment"]) == 5
    assert data["modes"][0] == [0, 0, 1, 1]


def test_restarts_keep_the_best_run_deterministically():
    rng = np.random.default_rng(12)
    pset = PartitionSet.from_partitions(
        [random_partition(16, 4, rng) for _ in range(60)])

    def result(restarts):
        return run(pset, EngineParams(seed=5, k0=3, restarts=restarts))

    single = result(1)
    best = result(3)
    # restart 0 is the single run, so the best of three is no worse
    assert best.breakdown.total <= single.breakdown.total
    assert (json.dumps(best.to_json_dict())
            == json.dumps(result(3).to_json_dict()))


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

    cold = result(PairCache(pset, max_cost=budget))
    warm_cache = PairCache(pset, max_cost=budget)
    warm = result(warm_cache)
    reused = result(warm_cache)
    # an Omega block filled first with the mode and sample sides swapped
    transposed_cache = PairCache(pset, max_cost=budget)
    for q in range(10):
        transposed_cache.omega_block(np.arange(pset.S),
                                     np.full(pset.S, q))
    transposed = result(transposed_cache)
    assert cold == warm == reused == transposed


def test_mode_memo_hit_returns_stored_mode_and_keeps_rng_aligned(monkeypatch):
    rng = np.random.default_rng(6)
    pset = PartitionSet.from_partitions(
        [random_partition(20, 4, rng) for _ in range(50)])
    cache = PairCache(pset)
    params = EngineParams(mode_sample_size=10)
    state = EngineState(pset, cache, params, rng.random(pset.S), [])
    members = np.arange(3, 50, dtype=np.int64)   # above the sample size
    fresh = find_mode_sampled(members, pset, params.mode_sample_size,
                              state.priority, cache)
    assert _find_mode(members, state) == fresh
    assert list(state.mode_memo.values()) == [fresh]
    # a hit hands back whatever was stored
    (key,) = state.mode_memo
    state.mode_memo[key] = 7
    assert _find_mode(members, state) == 7
    # exact searches are not memoized
    _find_mode(members[:params.mode_sample_size], state)
    assert len(state.mode_memo) == 1
    # a split replayed on the filled memo searches nothing, returns the
    # same parts and leaves its rng where the first split left it
    state.mode_memo.clear()
    searches = []

    def counted(*args):
        searches.append(args)
        return find_mode_sampled(*args)

    monkeypatch.setattr(engine, "find_mode_sampled", counted)
    first_rng, replay_rng = np.random.default_rng(11), np.random.default_rng(11)
    first = _kmeans_split(members, state, first_rng)
    assert searches
    searches.clear()
    replay = _kmeans_split(members, state, replay_rng)
    assert not searches
    assert [(c.mode, c.members.tolist()) for c in replay] == \
        [(c.mode, c.members.tolist()) for c in first]
    assert replay_rng.bit_generator.state == first_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_proposals_keep_members_sorted_and_total_consistent(data):
    # a small pool of distinct partitions, so contents repeat, and a
    # small sample, so clusters of a few members take the sampled (and
    # memoized) mode search
    N = data.draw(st.integers(2, 10), label="N")
    S = data.draw(st.integers(2, 30), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 8)))]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    params = EngineParams(lam=data.draw(st.sampled_from([0.0, 1.0])),
                          k0=data.draw(st.integers(1, 4)),
                          mode_sample_size=data.draw(st.integers(1, 4)))
    cache = PairCache(pset)
    state = _initial_state(pset, cache, params, rng, rng.random(S))
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kmeans_split_keeps_every_content_on_one_side(data):
    N = data.draw(st.integers(2, 10), label="N")
    S = data.draw(st.integers(1, 30), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 6)))]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    params = EngineParams(mode_sample_size=data.draw(st.integers(1, 4)),
                          max_kmeans_iters=data.draw(st.integers(1, 4)))
    cache = PairCache(pset)
    members = np.sort(rng.choice(S, size=data.draw(st.integers(1, S)), replace=False))
    state = EngineState(pset, cache, params, rng.random(S), [])
    parts = _kmeans_split(members, state, rng)
    if len(set(cache.cid[members].tolist())) == 1:
        assert parts is None
        return
    for c in parts:
        assert c.members.size > 0
        assert c.mode in c.members
    c1, c2 = parts
    assert np.array_equal(np.sort(np.concatenate((c1.members, c2.members))), members)
    assert not set(cache.cid[c1.members].tolist()) & set(cache.cid[c2.members].tolist())


def test_kmeans_split_modes_never_coincide(monkeypatch):
    # one base, lightly perturbed and repeated: a few contents with many
    # copies each, so both seeds often land on the dominant content
    base = canonicalize(np.repeat(np.arange(4), 5))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.05, S=50, seed=3)
    pset_once, _ = perturb_ensemble(spec)
    pset = PartitionSet.from_partitions(pset_once.partitions * 4)
    cache = PairCache(pset)
    # parts up to the sample size take the exact search and larger ones
    # the sampled search or its memo; every iteration asks for the modes
    # of both parts, so the mode queries come in pairs
    params = EngineParams(mode_sample_size=5)
    state = EngineState(pset, cache, params, np.random.default_rng(0).random(pset.S),
                        [])
    searches = []

    def counted(members, *args):
        mode = _find_mode(members, *args)
        searches.append(mode)
        return mode

    monkeypatch.setattr(engine, "_find_mode", counted)
    members = np.arange(pset.S)
    shared_seeds = 0
    for seed in range(20):
        i, j = np.random.default_rng(seed).choice(pset.S, size=2, replace=False)
        shared_seeds += cache.cid[i] == cache.cid[j]
        searches.clear()
        c1, c2 = _kmeans_split(members, state, np.random.default_rng(seed))
        assert len(searches) % 2 == 0
        pairs = list(zip(searches[::2], searches[1::2]))
        assert all(cache.cid[a] != cache.cid[b] for a, b in pairs)
        assert len(pairs) < params.max_kmeans_iters
        assert (c1.mode, c2.mode) == pairs[-1]
    assert shared_seeds > 0
