import builtins
import hashlib
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (Clustering, EngineParams, PairCache, PartitionSet,
                             canonicalize, description_length, engine, entropy,
                             find_mode_exact, find_mode_sampled, log2_omega,
                             modified_conditional_entropy, run, tables)
from partition_modes.engine import (_MOVES, EngineState, _initial_state,
                                    _kmeans_split, _make_cluster, _members,
                                    propose_merge, propose_reassign,
                                    propose_split)
from partition_modes.sampler import PerturbationSpec, perturb_ensemble

from conftest import compensated_sum, random_partition


def _state_from_assignment(pset, cache, params, assignment):
    priority = np.random.default_rng(0).random(pset.S)
    state = EngineState(cache, params, priority, [])
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
        EngineParams(mode_sample_size=0)
    with pytest.raises(ValueError):
        EngineParams(restarts=0)
    # math.isfinite raised TypeError on a string or None; a bool is a flag
    for lam in (float("nan"), float("inf"), "x", None, True, np.True_):
        with pytest.raises(ValueError, match="invalid engine parameters"):
            EngineParams(lam=lam)
    # counts and the seed must be integers, not truncated or rounded
    for bad in (dict(k0=2.5), dict(mode_sample_size=2.5), dict(patience=1.5),
                dict(seed=1.5), dict(restarts=2.0), dict(seed=-1)):
        with pytest.raises(ValueError, match="invalid engine parameters"):
            EngineParams(**bad)
    EngineParams(mode_sample_size=1)
    EngineParams(k0=np.int64(2), seed=np.int32(3))
    # the public search and the member-set builder check their own input
    pset = PartitionSet.from_partitions([canonicalize([0, 0, 1, 1])] * 3)
    cache = PairCache(pset)
    for size in (0, -1):
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            find_mode_sampled([0, 1, 2], size, np.zeros(3), cache)
    # a float size would reach numpy as an index and raise its TypeError
    for size in (2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="sample size must be an integer"):
            find_mode_sampled([0, 1, 2], size, np.zeros(3), cache)
    assert find_mode_sampled([0, 1, 2], np.int64(2), np.zeros(3), cache) == 0
    with pytest.raises(ValueError, match="empty cluster"):
        _members([], cache)
    # a negative index would wrap, a float truncate, a repeat count twice
    for bad, msg in (([], "empty cluster"),
                     ([-1], "out of range"), ([-1, 0], "out of range"),
                     ([3], "out of range"),
                     ([0.5], "must be integers"), ([True], "must be integers"),
                     ([0, 0, 1], "duplicate member"),
                     ([2, 1, 2], "duplicate member")):
        with pytest.raises(ValueError, match=msg):
            find_mode_exact(bad, cache)
        with pytest.raises(ValueError, match=msg):
            find_mode_sampled(bad, 2, np.zeros(3), cache)


def test_find_mode_sampled_checks_its_priorities():
    # a list reached numpy as an index, a 2-D array raised "object too
    # deep", and a longer array was read silently
    rng = np.random.default_rng(4)
    pset = PartitionSet.from_partitions([random_partition(12, 3, rng) for _ in range(9)])
    cache = PairCache(pset)
    priority = rng.random(pset.S)
    members = list(range(pset.S))
    assert (find_mode_sampled(members, 3, priority.tolist(), cache)
            == find_mode_sampled(members, 3, priority, cache))
    for bad in (priority[:-1], np.append(priority, 0.5), priority[None, :]):
        with pytest.raises(ValueError, match="one value per partition"):
            find_mode_sampled(members, 3, bad, cache)


def test_find_mode_singleton_and_ties():
    a = canonicalize([0, 0, 1, 1, 2, 2])
    pset = PartitionSet.from_partitions([a, a, a, a])
    cache = PairCache(pset)
    assert find_mode_exact([2], cache) == 2
    # identical members: lowest index wins the tie
    assert find_mode_exact([0, 1, 2, 3], cache) == 0
    assert find_mode_exact([3, 1, 2], cache) == 1


def test_find_mode_majority():
    a = canonicalize([0, 0, 0, 1, 1, 1, 2, 2, 2])
    b = canonicalize([0, 0, 0, 1, 1, 2, 2, 2, 2])  # one node relabeled
    pset = PartitionSet.from_partitions([a, a, a, b])
    cache = PairCache(pset)
    assert find_mode_exact([0, 1, 2, 3], cache) == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_mode_sampled_matches_exact_for_small_clusters(data):
    # a cluster no larger than the sample is its own sample, with weight
    # 1 per member: the exact search's candidates, weights and argmin,
    # which is why the engine runs the sampled search alone
    N = data.draw(st.integers(2, 30), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 8)))]
    S = data.draw(st.integers(1, 40), label="S")
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    # contents repeat, and a member set may hold only some of their copies
    members = np.sort(rng.choice(S, size=data.draw(st.integers(1, S)), replace=False))
    n = data.draw(st.integers(members.size, members.size + 5), label="sample size")
    sampled = find_mode_sampled(members[::-1].tolist(), n, rng.random(S),
                                PairCache(pset))
    assert sampled == find_mode_exact(members, PairCache(pset))


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
        idx = find_mode_sampled(members, 30,
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
    mode = find_mode_sampled(members[::-1].tolist(), n, priority,
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
    lookup = cache.hmod_block

    def spy(q_indices, m_indices):
        terms.extend(int(q) for q in q_indices)
        return lookup(q_indices, m_indices)

    cache.hmod_block = spy
    find_mode_sampled(members, n, priority, cache)
    before = set(terms)
    assert before
    outside = members[np.argsort(priority[members])[n:]]
    leaving = data.draw(st.sampled_from(outside.tolist()), label="leaving")
    terms.clear()
    find_mode_sampled(members[members != leaving], n, priority, cache)
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


@pytest.mark.parametrize("labels,assignment,seed,p,k_to", [
    # p leaves its singleton for a cluster whose mode has p's content and
    # a lower index: the move drops the emptied cluster
    ([[0, 0, 1, 1]] * 4, [0, 0, 0, 1], 0, 3, 0),
    # the same between two clusters the move does not name
    ([[0, 1, 2, 3]] + [[0, 0, 1, 1]] * 4 + [[0, 0, 0, 0]], [0, 1, 1, 1, 2, 3],
     3, 4, 1),
], ids=["two-clusters", "between-unnamed-clusters"])
def test_propose_reassign_that_empties_a_cluster_drops_it(labels, assignment,
                                                         seed, p, k_to):
    pset = PartitionSet.from_partitions([canonicalize(x) for x in labels])
    cache = PairCache(pset)
    state = _state_from_assignment(pset, cache, EngineParams(), assignment)
    k_from = assignment[p]
    out = propose_reassign(state, np.random.default_rng(seed))
    assert out.K == state.K - 1
    assert out.clusters[k_to].members.tolist() == sorted(
        state.clusters[k_to].members.tolist() + [p])
    assert np.array_equal(np.sort(np.concatenate(
        [c.members for c in out.clusters])), np.arange(pset.S))
    fresh = description_length(pset, out.to_clustering())
    assert out.total == pytest.approx(fresh.total, abs=1e-9)
    # the clusters the move does not name are the same objects, in order
    others = [c for k, c in enumerate(state.clusters) if k not in (k_to, k_from)]
    assert [id(c) for k, c in enumerate(out.clusters) if k != k_to] == \
        [id(c) for c in others]


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
    # no parameters are the default ones
    assert run(pset).to_json_dict() == run(pset, EngineParams()).to_json_dict()
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


@pytest.mark.parametrize("seed", range(6))
def test_run_at_the_seed_of_its_ensemble_finds_the_planted_clustering(seed):
    # perturb_ensemble(seed=s) picks each sample's base from the uniforms
    # that a generator seeded s draws first, so priorities drawn from the
    # caller's seed put one base in every coordinated search sample
    bases = [canonicalize(np.repeat(np.arange(4), 25)), canonicalize(np.arange(100) % 5)]
    spec = PerturbationSpec(bases=[(b, 0.5) for b in bases], node_flip_rate=0.05,
                            S=1000, seed=seed)
    pset, _ = perturb_ensemble(spec)
    res = run(pset, EngineParams(seed=seed))
    assert res.clustering.K == 2 and set(res.modes) == set(bases)
    # each sample with its nearest planted mode
    cache = PairCache(pset)
    modes = [pset.partitions.index(b) for b in bases]
    dists = np.stack([cache.hmod_given_mode(np.arange(pset.S), m) for m in modes])
    planted = Clustering(assignment=np.argmin(dists, axis=0), mode_index=modes, K=2)
    assert res.trace[-1][3] == pytest.approx(
        description_length(pset, planted, cache=cache).total, abs=1e-9)


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
    # one cluster's label entropy is written 0.0, not -0.0
    assert data["objective"]["cluster_labels"] == 0.0
    assert "-0.0" not in json.dumps(data)


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


def test_run_independent_of_cache_state(monkeypatch):
    # the budget splits the margin pairs between the exact count and the
    # estimate, and clusters above 30 members take the sampled mode search
    monkeypatch.setattr(tables, "DEFAULT_MAX_COST", 1e4)
    rng = np.random.default_rng(4)
    pset = PartitionSet.from_partitions(
        [random_partition(16, 5, rng) for _ in range(80)])
    params = EngineParams(seed=4, k0=2)

    def result(cache):
        return run(pset, params, cache=cache).to_json_dict()

    cold = result(PairCache(pset))
    warm_cache = PairCache(pset)
    warm = result(warm_cache)
    reused = result(warm_cache)
    # Omega rows filled first with the mode and sample sides swapped
    transposed_cache = PairCache(pset)
    for q in range(10):
        for m in range(pset.S):
            transposed_cache.omega_block(m, [q])
    transposed = result(transposed_cache)
    assert cold == warm == reused == transposed
    # a cache warmed by a run at another seed and lambda computed its
    # H_mod values in other batches; on these bimodal ensembles a value
    # whose last bits depended on its batch flipped a distance tie in
    # the k-means split
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    for seed in (1, 2):
        spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                                node_flip_rate=0.05, S=150, seed=seed)
        pset, _ = perturb_ensemble(spec)
        warm_cache = PairCache(pset)
        run(pset, EngineParams(seed=seed + 100, lam=0.0), cache=warm_cache)
        warm = run(pset, EngineParams(seed=seed), cache=warm_cache)
        assert warm.to_json_dict() == run(pset, EngineParams(seed=seed)).to_json_dict()


def test_replaced_keeps_the_clusters_it_does_not_name_in_order():
    # stand-ins for clusters, compared by identity
    a, b, c, d, x, y = (object() for _ in range(6))
    pset = PartitionSet.from_partitions([canonicalize([0, 1])])
    state = EngineState(PairCache(pset), EngineParams(), np.zeros(1), [a, b, c, d])

    def ids(clusters):
        return [id(cl) for cl in clusters]

    cases = [((1, [x]), [a, x, c, d]),          # replace
             ((1, [x], 3), [a, x, c]),           # replace, drop after k
             ((2, [x], 0), [b, x, d]),           # replace, drop before k
             ((1, [x, y]), [a, x, c, d, y]),     # replace and append
             ((1, [x, y], 2), [a, x, d, y]),     # replace, drop after k, append
             ((3, [x, y], 0), [b, c, x, y])]     # replace, drop before k, append
    for args, want in cases:
        new = state.replaced(*args)
        assert ids(new.clusters) == ids(want)
        assert new.cache is state.cache and new.priority is state.priority
    assert ids(state.clusters) == ids([a, b, c, d])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_proposals_keep_members_sorted_and_total_consistent(data):
    # a small pool of distinct partitions, so contents repeat, and a
    # small sample, so clusters of a few members outgrow it
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
    state = _initial_state(cache, params, rng, rng.random(S))
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
        # the clusters a move leaves alone keep their relative order
        old = {id(c): k for k, c in enumerate(state.clusters)}
        kept = [old[id(c)] for c in candidate.clusters if id(c) in old]
        assert kept == sorted(kept)
        state = candidate


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kmeans_split_keeps_every_content_on_one_side(data):
    N = data.draw(st.integers(2, 10), label="N")
    S = data.draw(st.integers(1, 30), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 4, rng) for _ in range(data.draw(st.integers(1, 6)))]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    params = EngineParams(mode_sample_size=data.draw(st.integers(1, 4)))
    cache = PairCache(pset)
    members = np.sort(rng.choice(S, size=data.draw(st.integers(1, S)), replace=False))
    state = EngineState(cache, params, rng.random(S), [])
    with patch.object(engine, "MAX_KMEANS_ITERS", data.draw(st.integers(1, 4))):
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
    # the k-means iterations score X by _weighted_argmin, and only the
    # two parts' clusters search for a mode, so the mode queries come
    # in pairs
    params = EngineParams(mode_sample_size=5)
    state = EngineState(cache, params, np.random.default_rng(0).random(pset.S), [])
    searches = []

    def counted(members, *args):
        mode = find_mode_sampled(members, *args)
        searches.append(mode)
        return mode

    monkeypatch.setattr(engine, "find_mode_sampled", counted)
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
        assert len(pairs) < engine.MAX_KMEANS_ITERS
        assert (c1.mode, c2.mode) == pairs[-1]
    assert shared_seeds > 0


def _three_family_ensemble():
    # clusters above the sample size of 30; the run accepts reassign,
    # split, merge and merge-split moves
    bases = [canonicalize(np.repeat(np.arange(3), 8)), canonicalize(np.arange(24) % 4),
             canonicalize(np.repeat(np.arange(6), 4))]
    spec = PerturbationSpec(bases=list(zip(bases, (0.4, 0.3, 0.3))),
                            node_flip_rate=0.1, S=120, seed=0)
    return perturb_ensemble(spec)[0], EngineParams(seed=0, k0=4)


def _repeated_ensemble():
    # 40 samples repeated 4 times, so clusters hold several copies of a
    # content, and a reassign leaves some copies behind
    bases = [canonicalize(np.repeat(np.arange(4), 5)), canonicalize(np.arange(20) % 3)]
    spec = PerturbationSpec(bases=list(zip(bases, (0.6, 0.4))),
                            node_flip_rate=0.05, S=40, seed=0)
    once = perturb_ensemble(spec)[0]
    return (PartitionSet.from_partitions(once.partitions * 4),
            EngineParams(seed=0, k0=2, mode_sample_size=10))


_FROZEN_RUNS = [
    (_three_family_ensemble,
     (2, [0, 12], "eaaf1ff86962cf306fee41ca1a13e4d0f6dbf46fa7aeb6e03bb371c7a657d396",
      139, "0x1.fb714f1c0df84p+4")),
    (_repeated_ensemble,
     (2, [0, 1], "99e9f142de6f6804a1cc1de952e11c268664ab5e83b0589ed84f3a983f9bd92a",
      103, "0x1.1fbadd95b4c36p+4")),
]


@pytest.mark.parametrize("ensemble, expected", _FROZEN_RUNS)
def test_run_reproduces_frozen_trajectories(ensemble, expected):
    # K, the modes, the assignment, the number of steps and the final
    # tracked total of two seeded runs, bit for bit
    pset, params = ensemble()
    res = run(pset, params)
    c = res.clustering
    got = (c.K, [int(m) for m in c.mode_index],
           hashlib.sha256(np.asarray(c.assignment, dtype=np.int64).tobytes()).hexdigest(),
           len(res.trace), float(res.trace[-1][3]).hex())
    assert got == expected


@pytest.mark.parametrize("ensemble, expected", _FROZEN_RUNS)
def test_frozen_trajectories_hold_under_a_compensated_sum(monkeypatch, ensemble,
                                                          expected):
    # from Python 3.12 builtin sum adds floats with compensation; the
    # tracked totals add their cluster terms left to right (tables._fold)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_run_reproduces_frozen_trajectories(ensemble, expected)


def _assert_unique_vectors(got, members, cache):
    # the np.unique reference for the member set ``got`` of ``members``:
    # the sorted members, the copies of each content, its lowest member,
    # and the candidates in order of first appearance in the sorted members
    index = np.sort(np.asarray(members, dtype=np.int64))
    ids, first, copies = np.unique(cache.cid[index], return_index=True,
                                   return_counts=True)
    count = np.zeros(cache.n_cid, dtype=np.int64)
    count[ids] = copies
    lowest = np.full(cache.n_cid, np.iinfo(np.int64).max)
    lowest[ids] = index[first]
    assert np.array_equal(got.index, index)
    assert np.array_equal(got.count, count)
    assert np.array_equal(got.first, lowest)
    order = np.argsort(first)
    reps, counts = got.candidates()
    assert np.array_equal(reps, index[first[order]])
    assert np.array_equal(counts, copies[order])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_content_vectors_match_a_fresh_build(data):
    # member sets in any order, holding only some copies of a content
    # (as a reassign leaves them), and the concatenation of two disjoint
    # sets that a merge passes
    N = data.draw(st.integers(2, 8), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_partition(N, 3, rng) for _ in range(data.draw(st.integers(1, 6)))]
    S = data.draw(st.integers(2, 40), label="S")
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=S)])
    cache = PairCache(pset)
    side = rng.integers(2, size=S)
    if side.all() or not side.any():
        side[0] = 1 - side[0]
    a, b = (np.flatnonzero(side == k) for k in (0, 1))
    some = b[b != b[rng.integers(b.size)]] if b.size > 1 else b
    for members in (rng.permutation(a).tolist(), b, np.concatenate((b, a)), some):
        _assert_unique_vectors(_members(members, cache), members, cache)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_sum_adds_rows_in_order(data):
    # the mode search sums its weighted block over axis 0 and relies on
    # numpy adding the rows one after the other, as a loop would
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    T = data.draw(st.integers(1, 40), label="terms")
    C = data.draw(st.integers(2, 300), label="candidates")
    block = rng.random((T, C)) * 10.0 ** rng.integers(-8, 8, size=(T, 1))
    scores = block[0].copy()
    for row in block[1:]:
        scores += row
    assert np.array_equal(block.sum(axis=0), scores)


def test_propose_reassign_finds_the_origin_among_repeated_contents():
    # four clusters over a few contents, each content spread over
    # several clusters, so the content vectors leave more than one
    # cluster to search for the moved partition
    rng = np.random.default_rng(8)
    pool = [random_partition(12, 3, rng) for _ in range(5)]
    pset = PartitionSet.from_partitions(
        [pool[i] for i in rng.integers(len(pool), size=40)])
    cache = PairCache(pset)
    params = EngineParams(mode_sample_size=4)
    assignment = rng.integers(4, size=40).tolist()
    state = _state_from_assignment(pset, cache, params, assignment)
    assert state.K == 4
    moved = 0
    for seed in range(40):
        p = int(np.random.default_rng(seed).integers(pset.S))
        out = propose_reassign(state, np.random.default_rng(seed))
        if out is state:
            continue
        moved += 1
        k_from = assignment[p]
        k_to = int(np.argmin(cache.hmod_against_modes(
            p, [c.mode for c in state.clusters])))
        want = [c.members[c.members != p] if k == k_from
                else np.append(c.members, p) if k == k_to else c.members
                for k, c in enumerate(state.clusters)]
        want = [m for m in want if m.size]
        assert [c.members.tolist() for c in out.clusters] == \
            [sorted(m.tolist()) for m in want]
        for c, m in zip(out.clusters, want):
            fresh = _make_cluster(m, state)
            assert (c.mode, c.cond_sum) == (fresh.mode, fresh.cond_sum)
            _assert_unique_vectors(c.group, m, cache)
    assert moved >= 10
