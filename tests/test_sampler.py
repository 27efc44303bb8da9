import itertools
import math

import numpy as np
import pytest

from partition_modes import (PartitionSet, PerturbationSpec, canonicalize,
                             load_partitions, mcmc_sample, perturb_ensemble,
                             ring_of_cliques, write_partitions)
from partition_modes.graphs import Graph


def test_load_partitions_basic(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# two partitions\n0 0 1 1\n1 1 0 0\n")
    pset = load_partitions(path)
    assert pset.S == 2 and pset.N == 4
    # the two lines describe the same set partition
    assert pset.partitions[0] == pset.partitions[1]


@pytest.mark.parametrize("text,msg", [
    ("", "no partitions"),
    ("0 0 1\n0 1\n", "line 2: expected 3 labels"),
    ("0 a 1\n", "line 1: non-integer"),
    ("0 1 2\n0 1 -99999999999999999999\n", "line 2: label out of range"),
    ("# c\n\n0 1\n0 9223372036854775808\n0 1 2\n",
     "line 4: label out of range"),
    ("0 1\n0 -9223372036854775809\n", "line 2: label out of range"),
    ("0 1\n0 1 2\n0 99999999999999999999\n", "line 2: expected 2 labels, got 3"),
    ("0 1\n\n# c\n1 x\n", "line 4: non-integer label"),
])
def test_load_partitions_errors(tmp_path, text, msg):
    path = tmp_path / "p.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + msg):
        load_partitions(path)


def test_load_partitions_accepts_the_int64_range(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("-9223372036854775808 9223372036854775807 -9223372036854775808\n")
    assert load_partitions(path).partitions[0] == canonicalize([0, 1, 0])


def test_partitions_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    parts = [canonicalize(rng.integers(0, 4, size=12)) for _ in range(9)]
    pset = PartitionSet.from_partitions(parts)
    path = tmp_path / "p.txt"
    write_partitions(pset, path)
    back = load_partitions(path)
    assert back.S == pset.S
    assert all(a == b for a, b in zip(back.partitions, pset.partitions))


def test_perturbation_spec_validation():
    base = canonicalize([0, 0, 1, 1])
    with pytest.raises(ValueError, match="weights"):
        PerturbationSpec(bases=[(base, 0.7)], node_flip_rate=0.1, S=10)
    with pytest.raises(ValueError, match="flip_rate"):
        PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=1.0, S=10)
    with pytest.raises(ValueError, match="ensemble size"):
        PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.1, S=0)
    with pytest.raises(ValueError, match="need at least one base partition"):
        PerturbationSpec(bases=[], node_flip_rate=0.1, S=10)
    # NaN passes both w <= 0 and the sum test
    for w in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="weights"):
            PerturbationSpec(bases=[(base, w)], node_flip_rate=0.1, S=10)
    with pytest.raises(ValueError, match="weights"):
        PerturbationSpec(bases=[(base, 1.0), (base, float("nan"))],
                         node_flip_rate=0.1, S=10)
    for bad in (dict(S=2.5), dict(S=10.0), dict(S=10, seed=1.5),
                dict(S=10, seed=-1)):
        with pytest.raises(ValueError, match="ensemble size"):
            PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.1, **bad)
    PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.1, S=np.int64(10),
                     seed=np.int32(3))
    other = canonicalize([0, 1, 2])
    with pytest.raises(ValueError, match="share one node set"):
        PerturbationSpec(bases=[(base, 0.5), (other, 0.5)],
                         node_flip_rate=0.1, S=10)


def test_perturb_ensemble_zero_rate():
    base = canonicalize([0, 0, 1, 1, 2])
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.0, S=25, seed=0)
    pset, idx = perturb_ensemble(spec)
    assert pset.S == 25
    assert all(p == base for p in pset.partitions)
    assert list(idx) == [0] * 25


def test_perturb_ensemble_mixture_concentration():
    a = canonicalize([0, 0, 1, 1])
    b = canonicalize([0, 1, 0, 1])
    spec = PerturbationSpec(bases=[(a, 0.5), (b, 0.5)], node_flip_rate=0.0,
                            S=10000, seed=1)
    _, idx = perturb_ensemble(spec)
    count_a = int((idx == 0).sum())
    assert abs(count_a - 5000) <= 4 * np.sqrt(10000 * 0.25)


def test_perturb_ensemble_flip_statistics():
    # rate 0.05 over 100 nodes draws 5 flips on average; a flip lands on
    # one of 4 equal groups, so it changes the label 3/4 of the time
    base = canonicalize(np.repeat(np.arange(4), 25))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.05,
                            S=2000, seed=2)
    pset, _ = perturb_ensemble(spec)
    # canonicalization renames labels, so align each sample to the base
    # by maximum overlap before counting changed nodes
    from partition_modes import contingency_table
    diffs = []
    for p in pset.partitions:
        t = contingency_table(base, p).t
        mapped = t.argmax(axis=0)[p.labels]
        diffs.append((mapped != base.labels).sum())
    diffs = np.array(diffs)
    expect = 5 * 0.75
    assert abs(diffs.mean() - expect) <= 4 * np.sqrt(diffs.var() / pset.S)


def test_perturb_ensemble_deterministic():
    base = canonicalize(np.repeat(np.arange(4), 5))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.2, S=30, seed=5)
    a, ia = perturb_ensemble(spec)
    b, ib = perturb_ensemble(spec)
    assert all(x == y for x, y in zip(a.partitions, b.partitions))
    assert np.array_equal(ia, ib)


def test_mcmc_sample_validation():
    graph, _ = ring_of_cliques(3, 3)
    with pytest.raises(ValueError):
        mcmc_sample(graph, S=0)
    with pytest.raises(ValueError):
        mcmc_sample(graph, S=5, sweeps_between=0)
    with pytest.raises(ValueError, match="empty graph"):
        mcmc_sample(Graph(N=0, edges=set()), S=5)
    # counts and the seed must be integers, not truncated
    for bad in (dict(S=2.5), dict(S=5, sweeps_between=1.5),
                dict(S=5, q_max=3.0), dict(S=5, seed=0.5), dict(S=5, seed=-1)):
        with pytest.raises(ValueError, match="invalid sampler parameters"):
            mcmc_sample(graph, **bad)
    assert mcmc_sample(graph, S=np.int64(2), seed=np.int64(1)).S == 2


def test_mcmc_sample_shapes_and_determinism():
    graph, _ = ring_of_cliques(4, 3)
    pset = mcmc_sample(graph, S=20, sweeps_between=2, beta=5.0, q_max=6, seed=3)
    assert pset.S == 20 and pset.N == graph.N
    for p in pset.partitions:
        assert 1 <= p.n <= 6
    again = mcmc_sample(graph, S=20, sweeps_between=2, beta=5.0, q_max=6, seed=3)
    assert all(a == b for a, b in zip(pset.partitions, again.partitions))


def test_mcmc_high_beta_rarely_splits_cliques():
    # at beta=300 a clique splits only in rare excursions at stationarity:
    # 1.4% of these samples, and 0.6-4.5% for each run of 30 seeds in
    # 0-299; at beta=100 and below every sample splits some clique
    graph, _ = ring_of_cliques(8, 6)
    split = 0
    for seed in range(30):
        pset = mcmc_sample(graph, S=50, sweeps_between=5, beta=300.0,
                           q_max=10, seed=seed)
        labels = np.stack([p.labels for p in pset.partitions]).reshape(50, 8, 6)
        split += int((labels != labels[:, :, :1]).any(axis=(1, 2)).sum())
    assert split / (30 * 50) <= 0.1


@pytest.mark.parametrize("beta", [-1e6, -math.inf])
def test_mcmc_negative_beta_does_not_overflow(beta):
    # RuntimeWarnings are errors in this suite: an exp that overflows on
    # a move with beta * delta > 0 fails here
    graph, _ = ring_of_cliques(4, 3)
    pset = mcmc_sample(graph, S=3, beta=beta, seed=0)
    assert pset.S == 3 and pset.N == graph.N


def test_mcmc_two_cliques_concentrate_on_cut():
    # two disjoint 6-cliques: the modularity optimum over 2 labels is
    # the component cut (verified by checking every sample matches it)
    edges = set()
    for base in (0, 6):
        for a in range(6):
            for b in range(a + 1, 6):
                edges.add((base + a, base + b))
    graph = Graph(N=12, edges=edges)
    truth = canonicalize([0] * 6 + [1] * 6)
    pset = mcmc_sample(graph, S=40, sweeps_between=2, beta=100.0,
                       q_max=2, seed=1)
    matches = sum(p == truth for p in pset.partitions)
    assert matches >= 36


# S and the total-variation bound per case: at (1.0, 3) the exact laws at
# beta and at 4/3 or 2/3 of beta are only 0.016 apart, so that case needs
# more samples and a tighter bound to tell them apart
@pytest.mark.parametrize("beta,q_max,S,tv_bound",
                         [(3.0, 2, 20000, 0.025), (1.0, 3, 100000, 0.01)],
                         ids=["3.0-2", "1.0-3"])
def test_mcmc_stationary_weight_is_exp_beta_modularity(beta, q_max, S, tv_bound):
    # exact weights by enumeration: every labelling of the 4 nodes,
    # weighted exp(beta * Q), summed onto its canonical partition
    edges = {(0, 1), (1, 2), (2, 3), (0, 2)}
    degrees = np.bincount(np.array(sorted(edges)).ravel(), minlength=4)
    m = len(edges)
    exact = {}
    for labels in itertools.product(range(q_max), repeat=4):
        q = sum(1 for u, v in edges if labels[u] == labels[v]) / m
        for a in range(q_max):
            q -= (sum(degrees[i] for i in range(4) if labels[i] == a)
                  / (2 * m)) ** 2
        key = canonicalize(labels).key()
        exact[key] = exact.get(key, 0.0) + np.exp(beta * q)
    total = sum(exact.values())
    pset = mcmc_sample(Graph(N=4, edges=edges), S=S, sweeps_between=1,
                       beta=beta, q_max=q_max, seed=0)
    seen = {}
    for p in pset.partitions:
        seen[p.key()] = seen.get(p.key(), 0) + 1
    tv = 0.5 * sum(abs(w / total - seen.get(k, 0) / pset.S)
                   for k, w in exact.items())
    # over seeds 0-4 the true beta reads 0.006-0.010 at (3.0, 2) and
    # 0.003-0.007 at (1.0, 3); a beta off by a third (4/3 or 2/3 of it)
    # reads 0.043-0.048 and 0.013-0.019 on seeds 0-2
    assert tv <= tv_bound
