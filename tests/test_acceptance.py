"""Acceptance checks, one test per criterion.

Each test exercises a stated end-to-end guarantee of the package at its
stated tolerance; `pytest -v` prints one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from partition_modes import (EngineParams, PairCache, PartitionSet,
                             PerturbationSpec, canonicalize,
                             conditional_entropy, count_tables_exact,
                             count_tables_gaussian, description_length, entropy,
                             full_description_length, log2_omega, mcmc_sample,
                             modified_conditional_entropy, perturb_ensemble,
                             ring_of_cliques, run)

from conftest import brute_force_table_count, margin_vectors, random_partition


def test_criterion_1_exact_count_matches_brute_force():
    # every margin pair with total N <= 12 and at most 4 rows and 4
    # columns, compared exactly against independent cell-by-cell
    # enumeration, in under a minute
    t0 = time.perf_counter()
    checked = 0
    for N in range(2, 13):
        margins = margin_vectors(N, 4)
        for i, a in enumerate(margins):
            for b in margins[i:]:
                expect = math.log2(brute_force_table_count(a, b))
                assert count_tables_exact(a, b) == expect, (a, b)
                checked += 1
    assert checked >= 300
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_entropy_identities():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        N = int(rng.integers(2, 201))
        mode = random_partition(N, int(rng.integers(2, 9)), rng)
        p = random_partition(N, int(rng.integers(2, 9)), rng)

        # coarsening mode's labels makes p a function of mode, so the
        # conditional entropy vanishes exactly
        merge_map = rng.integers(0, max(1, mode.n - 1), size=mode.n)
        coarser = canonicalize(merge_map[mode.labels])
        assert conditional_entropy(coarser, mode) == 0.0

        # against itself only the table-transmission term remains
        self_cost = modified_conditional_entropy(p, p)
        expect = log2_omega(p.counts, p.counts) / N
        assert self_cost == pytest.approx(expect, rel=1e-12)

        for part in (mode, p):
            h = entropy(part)
            assert 0.0 <= h <= math.log2(part.n) + 1e-12


def test_criterion_3_estimator_within_ten_percent_of_exact():
    margins = [
        ((1, 1, 1), (1, 1, 1)),
        ((50, 50), (50, 50)),
        ((2, 2, 2), (3, 3)),
        ((5, 5, 5), (5, 5, 5)),
        ((10, 5, 5), (10, 5, 5)),
        ((4, 4, 4, 4), (4, 4, 4, 4)),
        ((20, 20), (20, 10, 10)),
        ((8, 8, 8), (6, 6, 6, 6)),
    ]
    assert count_tables_exact((50, 50), (50, 50)) == pytest.approx(math.log2(51))
    for rows, cols in margins:
        exact = count_tables_exact(rows, cols)
        est = count_tables_gaussian(rows, cols)
        assert abs(est - exact) <= 0.10 * exact, (rows, cols, est, exact)


def _bimodal_pset(S, seed, flip=0.05):
    base_a = canonicalize(np.repeat(np.arange(4), 25))
    base_b = canonicalize((np.arange(100) // 10) % 5)
    spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                            node_flip_rate=flip, S=S, seed=seed)
    pset, _ = perturb_ensemble(spec)
    return pset, base_a, base_b


def test_criterion_4_objective_consistency():
    # incremental totals tracked by the engine match a from-scratch
    # recomputation (fresh cache) at every accepted step
    pset, _, _ = _bimodal_pset(300, seed=0)
    params = EngineParams(seed=0)
    res = run(pset, params, keep_states=True)
    assert len(res.accepted_states) > 0
    for clustering, tracked_total in res.accepted_states:
        fresh = description_length(pset, clustering, lam=params.lam,
                                   cache=PairCache(pset))
        assert fresh.total == pytest.approx(tracked_total, abs=1e-9)

    # the per-sample objective is a Stirling approximation of the exact
    # clustering-dependent encoding length per sample
    base = canonicalize(np.repeat(np.arange(4), 25))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.02,
                            S=200, seed=1)
    ens, _ = perturb_ensemble(spec)
    out = run(ens, EngineParams(seed=1))
    approx_total = description_length(ens, out.clustering, lam=0.0).total
    exact = full_description_length(ens, out.clustering)
    exact_per_sample = (exact["L2"] + exact["L3"] + exact["L4"]) / ens.S
    assert abs(approx_total - exact_per_sample) <= 0.05 * exact_per_sample


def test_criterion_5_unimodal_recovery():
    base = canonicalize(np.repeat(np.arange(4), 25))
    hits = 0
    elapsed = []
    for seed in range(20):
        spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.05,
                                S=1000, seed=seed)
        pset, _ = perturb_ensemble(spec)
        t0 = time.perf_counter()
        res = run(pset, EngineParams(seed=seed))
        elapsed.append(time.perf_counter() - t0)
        if res.clustering.K == 1 and res.modes[0] == base:
            hits += 1
    assert hits >= 19, hits
    assert np.mean(elapsed) < 30.0


def _clique_pairing_ensemble(S, seed, weight_a=0.5):
    # the two ways of grouping the 8 ring cliques into adjacent pairs;
    # flips act on whole cliques by perturbing an 8-node meta partition
    # that is then expanded to the 48 ring nodes
    meta_a = canonicalize([0, 0, 1, 1, 2, 2, 3, 3])
    meta_b = canonicalize([0, 1, 1, 2, 2, 3, 3, 0])
    spec = PerturbationSpec(bases=[(meta_a, weight_a), (meta_b, 1 - weight_a)],
                            node_flip_rate=0.1, S=S, seed=seed)
    meta_pset, _ = perturb_ensemble(spec)
    expand = lambda p: canonicalize(np.repeat(p.labels, 6))
    pset = PartitionSet.from_partitions([expand(p) for p in meta_pset.partitions])
    return pset, expand(meta_a), expand(meta_b)


def test_criterion_6_bimodal_recovery():
    hits = 0
    for seed in range(20):
        pset, base_a, base_b = _clique_pairing_ensemble(1000, seed)
        res = run(pset, EngineParams(seed=seed))
        ok = (res.clustering.K == 2
              and {m.key() for m in res.modes} == {base_a.key(), base_b.key()}
              and all(0.4 <= w <= 0.6 for w in res.weights))
        hits += ok
    assert hits >= 19, hits


def test_criterion_7_cluster_count_independent_of_ensemble_size():
    # uses the clique-pairing bimodal ensemble: its duplicated contents
    # are what makes extra clusters profitable once the penalty is off
    k_stable = 0
    k_grows = 0
    for seed in range(20):
        pset, _, _ = _clique_pairing_ensemble(500, seed)
        parts = pset.partitions
        k_pen = []
        k_free = []
        for mult in (1, 2, 4):
            grown = PartitionSet.from_partitions(parts * mult)
            k_pen.append(run(grown, EngineParams(lam=1.0, seed=seed)).clustering.K)
            k_free.append(run(grown, EngineParams(lam=0.0, seed=seed)).clustering.K)
        k_stable += (k_pen[0] == k_pen[1] == k_pen[2])
        k_grows += (k_free[0] <= k_free[1] <= k_free[2]
                    and k_free[2] > k_pen[2])
    assert k_stable > 10, k_stable
    assert k_grows > 10, k_grows


def _grouped_bimodal(S, seed):
    # N=100 built from 20 blocks of 5 nodes with flips at whole-block
    # granularity: samples repeat, as posterior sampler output does
    meta_a = canonicalize(np.repeat(np.arange(4), 5))
    meta_b = canonicalize(np.arange(20) % 5)
    spec = PerturbationSpec(bases=[(meta_a, 0.5), (meta_b, 0.5)],
                            node_flip_rate=0.1, S=S, seed=seed)
    meta_pset, _ = perturb_ensemble(spec)
    expand = lambda p: canonicalize(np.repeat(p.labels, 5))
    return PartitionSet.from_partitions([expand(p) for p in meta_pset.partitions])


def test_criterion_8_determinism_and_per_move_cost_scaling():
    pset, _, _ = _bimodal_pset(1000, seed=0)
    a = run(pset, EngineParams(seed=1)).to_json_dict()
    b = run(pset, EngineParams(seed=1)).to_json_dict()
    assert a == b

    sizes = [1000, 2000, 5000, 10000]
    per_move = []
    for S in sizes:
        ens = _grouped_bimodal(S, seed=0)
        t0 = time.perf_counter()
        res = run(ens, EngineParams(seed=1))
        per_move.append((time.perf_counter() - t0) / len(res.trace))
    slope = np.polyfit(np.log(sizes), np.log(per_move), 1)[0]
    assert slope <= 1.2, (slope, per_move)


def test_criterion_9_end_to_end_ring_of_cliques():
    t0 = time.perf_counter()
    graph, _ = ring_of_cliques(8, 6)
    assert graph.N == 48 and graph.num_edges == 128
    pset = mcmc_sample(graph, S=2000, sweeps_between=5, beta=200.0,
                       q_max=10, seed=0)
    res = run(pset, EngineParams(lam=1.0, seed=0))
    for mode in res.modes:
        for c in range(8):
            clique = mode.labels[6 * c: 6 * c + 6]
            assert len(set(clique)) == 1, (c, mode.labels)
    assert time.perf_counter() - t0 < 300.0
