"""Merge-split greedy optimizer over clusterings of a partition ensemble.

Starts from a random division into k0 clusters and repeatedly proposes
one of four moves (reassign one partition, merge two clusters, split a
cluster k-means style, or merge immediately followed by a split),
accepting a proposal only if it strictly decreases the penalized
description length.  Stops after a fixed number of consecutive
rejections.

Every edit of the cluster list goes through ``EngineState.replaced``:
a move's first new cluster takes the index of the one it replaces, a
dropped cluster's successors move up one, and other parts are
appended.  Clusters a move does not name keep their order, and with it
a seed's draws of cluster indices and so its trajectory.

The k-means split works on the distinct contents of a cluster: its two
seeds differ in content, every copy of a partition goes to the same
part, and each part keeps its mode's content, so the two modes never
coincide.  A cluster of one content is not split at all.

The sampled mode search is coordinated across clusters.  Each run
first draws one priority per partition, iid uniform, and a cluster's
sample is its ``mode_sample_size`` members of lowest priority.  For a
fixed cluster every ordering of its members by priority is equally
likely, so this is a uniform sample without replacement, as the paper's
Monte Carlo estimate asks for.  Across clusters the samples are
coordinated (permanent random numbers: Ohlsson 1995; bottom-k sketches:
Cohen & Kaplan 2007): clusters that share most of their members share
most of their sample.  The k-means iterations of one split, repeated
proposals on an unchanged cluster and the two clusters of a reassign
therefore score against the same terms, and their H_mod rows are cache
hits.

Each cluster holds its members as a sorted int64 array together with
two vectors over the cache's content ids: the number of copies of each
content in the cluster and the lowest member index of each.  One
builder, ``cache._members``, makes them from partition indices for every
cluster, merge, reassign side, k-means part and search sample, so a
mode search reads its candidates (the lowest member of each content,
ascending) from the vectors.  A search gathers one block of H_mod
values, sample terms by candidates, in one cache call, and a state's
total is computed once, when it is first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .cache import PairCache, _cache_for, _members, _Members
from .objective import (Clustering, ObjectiveBreakdown, _penalty,
                        cluster_label_entropy, description_length)
from .partitions import Partition, PartitionSet, _ints
from .tables import _fold

MOVE_NAMES = ("reassign", "merge", "split", "merge_split")

# k-means iterations of one split before it stops without converging
MAX_KMEANS_ITERS = 30


@dataclass
class EngineParams:
    lam: float = 1.0
    k0: int = 1
    mode_sample_size: int = 30
    patience: int = 100
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        seed, *counts = _ints((self.seed, self.k0, self.mode_sample_size, self.patience,
                               self.restarts), "invalid engine parameters")
        if seed < 0 or min(counts) < 1:
            raise ValueError("invalid engine parameters")
        self.lam = _penalty(self.lam, "invalid engine parameters")


def _given_members(members, cache: PairCache) -> _Members:
    """``_members`` of a member set given to a public search, checked
    first: ``_members`` would truncate a float index, wrap a negative
    one and count a repeated one twice.  The engine's own index arrays
    are valid by construction and skip the checks."""
    if isinstance(members, _Members):
        return members
    members = np.asarray(members)
    if members.size:
        if members.dtype.kind not in "iu":
            raise ValueError("member indices must be integers")
        index = np.sort(members.astype(np.int64))
        if index[0] < 0 or index[-1] >= cache.cid.size:
            raise ValueError("member index out of range")
        if np.count_nonzero(index[1:] == index[:-1]):
            raise ValueError("duplicate member index")
    return _members(members, cache)


@dataclass(frozen=True, eq=False)
class _Cluster:
    group: _Members
    mode: int
    mode_entropy: float
    cond_sum: float      # sum over members of H_mod(member | mode)

    @property
    def members(self) -> np.ndarray:
        return self.group.index


@dataclass(eq=False)
class EngineState:
    """One clustering configuration plus its cached objective pieces.

    ``priority`` holds the run's sampling priority of every partition;
    states derived by ``replaced`` share it.  ``total`` is computed on
    first access and kept, so a state's clusters are final once it is
    read."""

    cache: PairCache
    params: EngineParams
    priority: np.ndarray
    clusters: list[_Cluster]

    @property
    def K(self) -> int:
        return len(self.clusters)

    @functools.cached_property
    def total(self) -> float:
        N, S = self.cache.pset.N, self.cache.pset.S
        sizes = [c.members.size for c in self.clusters]
        mode_term = N / S * _fold(c.mode_entropy for c in self.clusters)
        cond_term = N / S * _fold(c.cond_sum for c in self.clusters)
        label_term = cluster_label_entropy(sizes, S)
        return mode_term + label_term + cond_term + self.params.lam * self.K

    def to_clustering(self) -> Clustering:
        assignment = np.empty(self.cache.pset.S, dtype=np.int64)
        for k, c in enumerate(self.clusters):
            assignment[c.members] = k
        return Clustering(assignment=assignment,
                          mode_index=[c.mode for c in self.clusters],
                          K=self.K)

    def replaced(self, k: int, parts, drop: int | None = None) -> EngineState:
        """``parts[0]`` at index k, cluster ``drop`` removed, the rest appended."""
        clusters = list(self.clusters)
        clusters[k] = parts[0]
        if drop is not None:
            del clusters[drop]
        return replace(self, clusters=clusters + list(parts[1:]))


def _weighted_argmin(candidates: np.ndarray, terms: np.ndarray, weights,
                     cache: PairCache) -> int:
    """The candidate p minimizing H(p) + sum_j weights[j] H_mod(terms[j] | p),
    from one ``hmod_block`` of terms by candidates.  The weighted rows
    are added to the entropies one after the other, in term order: a sum
    over axis 0 of a C-contiguous block adds row after row, with no
    pairwise regrouping.  Candidates come in increasing partition-index
    order, so argmin keeps the lowest-index tie-break."""
    block = cache.hmod_block(terms, candidates)
    block *= np.asarray(weights, dtype=np.float64)[:, None]
    block[0] += cache.entropies(candidates)
    return int(candidates[int(np.argmin(block.sum(axis=0)))])


def find_mode_exact(cluster_members, cache: PairCache) -> int:
    """Member partition minimizing H(p) + sum_q H_mod(q | p) over the
    whole cluster; ties broken by lowest partition index.  Each distinct
    content is scored once and weighs as many times as it occurs.  The
    reference for ``find_mode_sampled``, the engine's one search."""
    reps, counts = _given_members(cluster_members, cache).candidates()
    return _weighted_argmin(reps, reps, counts, cache)


def find_mode_sampled(cluster_members, sample_size: int, priority: np.ndarray,
                      cache: PairCache) -> int:
    """Monte Carlo mode estimate: score every member against a sample X
    of cluster members, scaled by the cluster size: the argmin of
    H(p) + |C|/|X| sum_{q in X} H_mod(q | p).  A cluster that fits
    inside the sample is its own sample, with weight 1 per member: the
    exact search.

    X is the ``sample_size`` members of lowest ``priority``, an array
    over all partition indices.  With iid continuous priorities every
    ordering of a fixed cluster's members is equally likely, so X is a
    uniform sample without replacement; clusters that share members
    share the part of X those members take.

    ``cluster_members`` is partition indices or the engine's member set
    with its content vectors."""
    sample_size, = _ints([sample_size], "sample size must be an integer")
    if sample_size < 1:
        raise ValueError("sample size must be at least 1")
    group = _given_members(cluster_members, cache)
    members = group.index
    k = min(sample_size, members.size)
    sample = members[np.argpartition(priority[members], k - 1)[:k]]
    terms, counts = _members(sample, cache).candidates()
    weights = members.size / k * np.asarray(counts, dtype=np.float64)
    return _weighted_argmin(group.candidates()[0], terms, weights, cache)


def _find_mode(members, state: EngineState) -> int:
    """Mode of a member set under the run's priorities: the sampled
    search, exact for a set of at most ``params.mode_sample_size``."""
    return find_mode_sampled(members, state.params.mode_sample_size,
                             state.priority, state.cache)


def _make_cluster(members, state: EngineState, mode: int | None = None) -> _Cluster:
    group = _members(members, state.cache)
    if mode is None:
        mode = _find_mode(group, state)
    cache = state.cache
    cond = float(cache.hmod_given_mode(group.index, mode).sum())
    return _Cluster(group=group, mode=mode, mode_entropy=cache.entropy(mode),
                    cond_sum=cond)


# -- proposal moves --------------------------------------------------------

def propose_reassign(state: EngineState, rng: np.random.Generator) -> EngineState:
    """Move 1: move one random partition to the cluster with the nearest
    mode (by modified conditional entropy)."""
    cache = state.cache
    p = int(rng.integers(cache.pset.S))
    c = int(cache.cid[p])
    modes = [cl.mode for cl in state.clusters]
    dists = cache.hmod_against_modes(p, modes)
    k_to = int(np.argmin(dists))
    # only the clusters holding p's content can hold p
    k_from = next(k for k, cl in enumerate(state.clusters) if cl.group.count[c]
                  and (i := np.searchsorted(cl.members, p)) < cl.members.size
                  and cl.members[i] == p)
    if k_to == k_from:
        return state
    to = _make_cluster(np.append(state.clusters[k_to].members, p), state)
    origin = state.clusters[k_from].members
    if origin.size == 1:
        return state.replaced(k_to, [to], drop=k_from)
    rest = _make_cluster(origin[origin != p], state)
    return state.replaced(k_to, [to]).replaced(k_from, [rest])


def propose_merge(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 2: merge two random clusters, recomputing the mode."""
    if state.K < 2:
        return None
    k1, k2 = sorted(int(k) for k in rng.choice(state.K, size=2, replace=False))
    merged = _make_cluster(np.concatenate((state.clusters[k1].members,
                                           state.clusters[k2].members)), state)
    return state.replaced(k1, [merged], drop=k2)


def _kmeans_split(members, state: EngineState, rng: np.random.Generator):
    """Two-way k-means-style split over the distinct contents of a
    cluster, or None when the cluster holds a single content: two equal
    modes cannot lower the description length, since the label entropy,
    the mode entropy and the penalty all grow.

    Two random members seed the parts; when they share a content, the
    second seed is redrawn among the members of the other contents.
    Each iteration sends every content, with all its copies, to the
    part with the closer mode.  An exact distance tie gets one coin per
    content: with the modes fixed the label entropy is concave in how
    the copies are divided, so keeping them together is never worse
    than dividing them.  Each mode's content stays in its own part, the
    modes are recomputed, and the loop ends when the content assignment
    repeats or after ``MAX_KMEANS_ITERS`` iterations.

    The two parts never share a content and each mode is a member of
    its part, so the two modes never coincide: the loop cannot stall on
    two halves of one content that both pick it as their mode."""
    cache = state.cache
    group = _members(members, cache)
    contents = np.flatnonzero(group.count)
    if contents.size == 1:
        return None
    reps = cache.rep[contents]
    arr = group.index
    arr_cid = cache.cid[arr]
    i1, i2 = (int(i) for i in rng.choice(arr.size, size=2, replace=False))
    if arr_cid[i1] == arr_cid[i2]:
        others = np.flatnonzero(arr_cid != arr_cid[i1])
        i2 = int(others[rng.integers(others.size)])
    m1, m2 = int(arr[i1]), int(arr[i2])
    assign = None
    keep = np.zeros(cache.n_cid, dtype=bool)
    for _ in range(MAX_KMEANS_ITERS):
        d1 = cache.hmod_given_mode(reps, m1)
        d2 = cache.hmod_given_mode(reps, m2)
        side = d1 < d2
        ties = d1 == d2
        side[ties] = rng.random(int(ties.sum())) < 0.5
        side[np.searchsorted(contents, cache.cid[m1])] = True
        side[np.searchsorted(contents, cache.cid[m2])] = False
        if assign is not None and np.array_equal(side, assign):
            break
        assign = side
        keep[contents] = assign
        part1 = _members(arr[keep[arr_cid]], cache)
        part2 = _members(arr[~keep[arr_cid]], cache)
        m1 = _find_mode(part1, state)
        m2 = _find_mode(part2, state)
    c1 = _make_cluster(part1, state, mode=m1)
    c2 = _make_cluster(part2, state, mode=m2)
    return c1, c2


def propose_split(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 3: split one random cluster into two."""
    k = int(rng.integers(state.K))
    parts = _kmeans_split(state.clusters[k].group, state, rng)
    return None if parts is None else state.replaced(k, parts)


def propose_merge_split(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 4: merge two random clusters, then immediately split the
    merged cluster."""
    if state.K < 2:
        return None
    k1, k2 = sorted(int(k) for k in rng.choice(state.K, size=2, replace=False))
    merged = np.concatenate((state.clusters[k1].members, state.clusters[k2].members))
    parts = _kmeans_split(merged, state, rng)
    return None if parts is None else state.replaced(k1, parts, drop=k2)


_MOVES = (propose_reassign, propose_merge, propose_split, propose_merge_split)


# -- driver ----------------------------------------------------------------

@dataclass
class ClusteringResult:
    clustering: Clustering
    breakdown: ObjectiveBreakdown
    weights: np.ndarray
    modes: list[Partition]
    trace: list
    lam: float
    accepted_states: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "K": self.clustering.K,
            "lambda": self.lam,
            "weights": [float(w) for w in self.weights],
            "modes": [[int(x) for x in m.labels] for m in self.modes],
            "assignment": [int(a) for a in self.clustering.assignment],
            "mode_index": [int(m) for m in self.clustering.mode_index],
            "objective": self.breakdown.to_json_dict(),
            "trace": [[int(s), name, bool(acc), float(tot)]
                      for s, name, acc, tot in self.trace],
        }


def _initial_state(cache, params, rng, priority) -> EngineState:
    state = EngineState(cache, params, priority, [])
    assignment = rng.integers(params.k0, size=cache.pset.S)
    for k in range(params.k0):
        members = np.flatnonzero(assignment == k)
        if members.size:
            state.clusters.append(_make_cluster(members, state))
    return state


def _run_once(cache, params, rng, keep_states=False):
    state = _initial_state(cache, params, rng, rng.random(cache.pset.S))
    trace, accepted_states = [], []
    rejections = 0
    while rejections < params.patience:
        move_id = int(rng.integers(len(_MOVES)))
        candidate = _MOVES[move_id](state, rng)
        accepted = candidate is not None and candidate.total < state.total
        if accepted:
            state = candidate
            rejections = 0
            if keep_states:
                accepted_states.append((state.to_clustering(), state.total))
        else:
            rejections += 1
        trace.append((len(trace), MOVE_NAMES[move_id], accepted, state.total))
    return state, trace, accepted_states


def run(pset: PartitionSet, params: EngineParams | None = None,
        cache: PairCache | None = None, keep_states: bool = False) -> ClusteringResult:
    """Optimize the penalized description length over clusterings.

    Deterministic given ``params.seed``; with restarts > 1 the run with
    the lowest final objective wins, the earliest of equal ones.
    """
    if params is None:
        params = EngineParams()
    cache = _cache_for(pset, cache)
    runs = (_run_once(cache, params, np.random.default_rng(params.seed + r), keep_states)
            for r in range(params.restarts))
    state, trace, accepted = min(runs, key=lambda r: r[0].total)
    clustering = state.to_clustering()
    breakdown = description_length(pset, clustering, lam=params.lam, cache=cache)
    return ClusteringResult(
        clustering=clustering,
        breakdown=breakdown,
        weights=breakdown.weights,
        modes=[pset.partitions[m] for m in clustering.mode_index],
        trace=trace,
        lam=params.lam,
        accepted_states=accepted,
    )
