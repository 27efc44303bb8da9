"""Merge-split greedy optimizer over clusterings of a partition ensemble.

Starts from a random division into k0 clusters and repeatedly proposes
one of four moves (reassign one partition, merge two clusters, split a
cluster k-means style, or merge immediately followed by a split),
accepting a proposal only if it strictly decreases the penalized
description length.  Stops after a fixed number of consecutive
rejections.

Each cluster holds its members as a sorted int64 array.  While the
state does not change, the search keeps proposing moves that rebuild
the same clusters (at K=2 every merge proposal forms the same merged
cluster), so each run keeps a memo from a member set, keyed by a digest
of its sorted indices, to the mode the sampled search returned for it.
The memo is emptied on every accepted move and never outlives a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .cache import PairCache
from .objective import (Clustering, ObjectiveBreakdown, cluster_label_entropy,
                        description_length)
from .partitions import Partition, PartitionSet
from .tables import DEFAULT_MAX_COST

MOVE_NAMES = ("reassign", "merge", "split", "merge_split")


@dataclass
class EngineParams:
    lam: float = 1.0
    k0: int = 1
    mode_sample_size: int = 30
    patience: int = 100
    seed: int = 0
    exact_mode_threshold: int = 30
    max_kmeans_iters: int = 30
    restarts: int = 1
    omega_max_cost: float = DEFAULT_MAX_COST

    def __post_init__(self):
        if self.lam < 0 or self.k0 < 1 or self.mode_sample_size < 1 \
                or self.patience < 1 or self.restarts < 1:
            raise ValueError("invalid engine parameters")


@dataclass(frozen=True, eq=False)
class _Cluster:
    members: np.ndarray  # sorted int64 partition indices
    mode: int
    mode_entropy: float
    cond_sum: float      # sum over members of H_mod(member | mode)


class EngineState:
    """One clustering configuration plus its cached objective pieces.

    ``mode_memo`` maps a member-set digest to the mode the sampled
    search found for it; states derived by ``replaced`` share it."""

    def __init__(self, pset: PartitionSet, cache: PairCache, params: EngineParams,
                 clusters: list[_Cluster], mode_memo: dict | None = None):
        self.pset = pset
        self.cache = cache
        self.params = params
        self.clusters = clusters
        self.mode_memo = {} if mode_memo is None else mode_memo

    @property
    def K(self) -> int:
        return len(self.clusters)

    @property
    def total(self) -> float:
        N, S = self.pset.N, self.pset.S
        sizes = [c.members.size for c in self.clusters]
        mode_term = N / S * sum(c.mode_entropy for c in self.clusters)
        cond_term = N / S * sum(c.cond_sum for c in self.clusters)
        label_term = cluster_label_entropy(sizes, S)
        return mode_term + label_term + cond_term + self.params.lam * self.K

    def to_clustering(self) -> Clustering:
        assignment = np.empty(self.pset.S, dtype=np.int64)
        for k, c in enumerate(self.clusters):
            assignment[c.members] = k
        return Clustering(assignment=assignment,
                          mode_index=[c.mode for c in self.clusters],
                          K=self.K)

    def replaced(self, new_clusters: list[_Cluster]) -> "EngineState":
        return EngineState(self.pset, self.cache, self.params, new_clusters,
                           self.mode_memo)


def _sorted_members(cluster_members) -> np.ndarray:
    members = np.sort(np.asarray(cluster_members, dtype=np.int64))
    if not members.size:
        raise ValueError("empty cluster")
    return members


def _distinct_candidates(members: np.ndarray, cache):
    """Deduplicate a sorted member array by partition content.  Returns
    the lowest member index of each distinct content (in order of first
    appearance) and the content multiplicities.  Candidates of equal
    content always score identically, so argmin over representatives
    with this ordering reproduces the lowest-index tie-break over the
    full member list."""
    _, first, counts = np.unique(cache.cid[members], return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    return members[first[order]], counts[order]


def find_mode_exact(cluster_members, pset: PartitionSet, cache: PairCache) -> int:
    """Member partition minimizing H(p) + sum_q H_mod(q | p) over the
    whole cluster; ties broken by lowest partition index."""
    members = _sorted_members(cluster_members)
    reps, counts = _distinct_candidates(members, cache)
    scores = cache.entropies(reps)
    for rep_q, cnt in zip(reps, counts):
        scores += cnt * cache.hmod_against_modes(rep_q, reps)
    return int(reps[int(np.argmin(scores))])


def find_mode_sampled(cluster_members, pset: PartitionSet, sample_size: int,
                      rng: np.random.Generator, cache: PairCache) -> int:
    """Monte Carlo mode estimate: score candidates against a random
    sample X of cluster members (without replacement), scaled by the
    cluster size.  Falls back to the exact search when the cluster fits
    inside the sample.

    Candidates are eliminated early by branch and bound: each H_mod term
    is non-negative, so a candidate's partial sum is a lower bound on
    its final score, and completing the current front-runner's score
    gives an upper bound on the minimum.  This never changes the argmin
    (a small slack protects exact score ties) but skips most of the
    pairwise entropy evaluations in large clusters.

    The function keeps no state; the engine memoizes its result per
    member set within a run (see ``_find_mode``)."""
    members = _sorted_members(cluster_members)
    c_k = members.size
    if c_k <= sample_size:
        return find_mode_exact(members, pset, cache)
    sample = rng.choice(members, size=sample_size, replace=False)
    arr, _ = _distinct_candidates(members, cache)
    sample_reps, sample_counts = _distinct_candidates(np.sort(sample), cache)
    ent = cache.entropies(arr)
    scores = ent.copy()
    scale = c_k / sample_size
    weights = scale * np.asarray(sample_counts, dtype=np.float64)
    n_terms = len(sample_reps)
    # per-candidate lower bound on every sample term: H_mod(q | p) is at
    # least (H(q) - H(p))+ plus the table-count cost, which depends only
    # on the margin signatures and is shared across candidates; suffix
    # sums of these bound the not-yet-added part of each score
    sample_ent = cache.entropies(sample_reps)
    gap = np.maximum(0.0, sample_ent[None, :] - ent[:, None])
    table = cache._omega_block(np.repeat(arr, n_terms),
                               np.tile(sample_reps, arr.size))
    table = table.reshape(arr.size, n_terms) / pset.N
    suffix = np.zeros((arr.size, n_terms + 1))
    suffix[:, :n_terms] = weights * (gap + table)
    suffix = np.cumsum(suffix[:, ::-1], axis=1)[:, ::-1]
    alive = np.arange(arr.size)
    for j, rep_q in enumerate(sample_reps):
        scores[alive] += weights[j] * cache.hmod_against_modes(rep_q, arr[alive])
        if j + 1 < n_terms and alive.size > 1:
            low = scores[alive] + suffix[alive, j + 1]
            leader = alive[int(np.argmin(low))]
            rest = cache.hmod_given_mode(sample_reps[j + 1:], int(arr[leader]))
            bound = float(scores[leader] + weights[j + 1:] @ rest)
            alive = alive[low <= bound + 1e-9]
    # candidates are in increasing partition-index order, so argmin over the
    # surviving candidates keeps the lowest-index tie-break
    winner = alive[int(np.argmin(scores[alive]))]
    return int(arr[winner])


def _find_mode(members: np.ndarray, pset, cache, params, rng, memo=None) -> int:
    """Mode of a sorted int64 member array: the exact search up to
    ``params.exact_mode_threshold`` members, the sampled search above.

    With a ``memo``, a member set that was searched before gets back the
    mode stored for it.  The hit still draws the sample the search would
    have drawn, so the random stream stays aligned with a memo-free run."""
    if members.size <= params.exact_mode_threshold:
        return find_mode_exact(members, pset, cache)
    if memo is None:
        return find_mode_sampled(members, pset, params.mode_sample_size, rng, cache)
    key = hashlib.blake2b(members.tobytes(), digest_size=16).digest()
    mode = memo.get(key)
    if mode is None:
        mode = memo[key] = find_mode_sampled(members, pset, params.mode_sample_size,
                                             rng, cache)
    elif members.size > params.mode_sample_size:
        rng.choice(members.size, size=params.mode_sample_size, replace=False)
    return mode


def _make_cluster(members, pset, cache, params, rng, mode: int | None = None,
                  *, memo: dict | None = None) -> _Cluster:
    members = _sorted_members(members)
    if mode is None:
        mode = _find_mode(members, pset, cache, params, rng, memo)
    cond = float(cache.hmod_given_mode(members, mode).sum())
    return _Cluster(members=members, mode=mode,
                    mode_entropy=cache.entropy(mode), cond_sum=cond)


# -- proposal moves --------------------------------------------------------

def propose_reassign(state: EngineState, rng: np.random.Generator) -> EngineState:
    """Move 1: move one random partition to the cluster with the nearest
    mode (by modified conditional entropy)."""
    pset, cache, params = state.pset, state.cache, state.params
    p = int(rng.integers(pset.S))
    modes = [c.mode for c in state.clusters]
    dists = cache.hmod_against_modes(p, modes)
    k_to = int(np.argmin(dists))
    k_from = next(k for k, c in enumerate(state.clusters)
                  if (i := np.searchsorted(c.members, p)) < c.members.size
                  and c.members[i] == p)
    if k_to == k_from:
        return state
    memo = state.mode_memo
    new = list(state.clusters)
    target = state.clusters[k_to]
    new[k_to] = _make_cluster(np.append(target.members, p), pset, cache, params, rng,
                              memo=memo)
    origin = state.clusters[k_from].members
    if origin.size > 1:
        new[k_from] = _make_cluster(origin[origin != p], pset, cache, params, rng,
                                    memo=memo)
    else:
        del new[k_from]
    return state.replaced(new)


def propose_merge(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 2: merge two random clusters, recomputing the mode."""
    if state.K < 2:
        return None
    k1, k2 = sorted(int(k) for k in rng.choice(state.K, size=2, replace=False))
    merged = _make_cluster(np.concatenate((state.clusters[k1].members,
                                           state.clusters[k2].members)),
                           state.pset, state.cache, state.params, rng,
                           memo=state.mode_memo)
    new = list(state.clusters)
    new[k1] = merged
    del new[k2]
    return state.replaced(new)


def _kmeans_split(members, pset, cache, params, rng, memo):
    """Two-way k-means-style split: two random members seed the parts,
    each member goes to the closer mode, modes are recomputed, repeated
    until the assignment stabilizes or the iteration cap is hit."""
    arr = _sorted_members(members)
    idx = rng.choice(arr.size, size=2, replace=False)
    m1, m2 = int(arr[idx[0]]), int(arr[idx[1]])
    assign = None
    for _ in range(params.max_kmeans_iters):
        d1 = cache.hmod_given_mode(arr, m1)
        d2 = cache.hmod_given_mode(arr, m2)
        # exact distance ties (common when the cluster holds duplicated
        # partitions) are broken by fresh coin flips each iteration:
        # breaking them all one way collapses the split to a singleton,
        # and a frozen choice can freeze a mixed half-and-half split
        # when the two provisional modes are equal as partitions
        side = d1 < d2
        ties = d1 == d2
        side[ties] = rng.random(int(ties.sum())) < 0.5
        side[arr == m1] = True   # modes stay in their own part
        side[arr == m2] = False
        if assign is not None and np.array_equal(side, assign):
            break
        assign = side
        m1 = _find_mode(arr[side], pset, cache, params, rng, memo)
        m2 = _find_mode(arr[~side], pset, cache, params, rng, memo)
    c1 = _make_cluster(arr[assign], pset, cache, params, rng, mode=m1)
    c2 = _make_cluster(arr[~assign], pset, cache, params, rng, mode=m2)
    return c1, c2


def propose_split(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 3: split one random cluster into two."""
    k = int(rng.integers(state.K))
    if state.clusters[k].members.size < 2:
        return None
    c1, c2 = _kmeans_split(state.clusters[k].members, state.pset, state.cache,
                           state.params, rng, state.mode_memo)
    new = list(state.clusters)
    new[k] = c1
    new.append(c2)
    return state.replaced(new)


def propose_merge_split(state: EngineState, rng: np.random.Generator) -> EngineState | None:
    """Move 4: merge two random clusters, then immediately split the
    merged cluster."""
    if state.K < 2:
        return None
    k1, k2 = sorted(int(k) for k in rng.choice(state.K, size=2, replace=False))
    merged = np.concatenate((state.clusters[k1].members, state.clusters[k2].members))
    c1, c2 = _kmeans_split(merged, state.pset, state.cache, state.params, rng,
                           state.mode_memo)
    new = list(state.clusters)
    new[k1] = c1
    del new[k2]
    new.append(c2)
    return state.replaced(new)


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


def _initial_state(pset, cache, params, rng) -> EngineState:
    assignment = rng.integers(params.k0, size=pset.S)
    clusters = []
    for k in range(params.k0):
        members = np.flatnonzero(assignment == k)
        if members.size:
            clusters.append(_make_cluster(members, pset, cache, params, rng))
    return EngineState(pset, cache, params, clusters)


def _run_once(pset, cache, params, rng, keep_states=False):
    # each run starts from a new state, and so with an empty mode memo
    state = _initial_state(pset, cache, params, rng)
    trace = []
    accepted_states = []
    rejections = 0
    step = 0
    while rejections < params.patience:
        move_id = int(rng.integers(len(_MOVES)))
        candidate = _MOVES[move_id](state, rng)
        accepted = candidate is not None and candidate.total < state.total
        if accepted:
            state = candidate
            state.mode_memo.clear()
            rejections = 0
            if keep_states:
                accepted_states.append((state.to_clustering(), state.total))
        else:
            rejections += 1
        trace.append((step, MOVE_NAMES[move_id], accepted, state.total))
        step += 1
    return state, trace, accepted_states


def run(pset: PartitionSet, params: EngineParams | None = None,
        cache: PairCache | None = None, keep_states: bool = False) -> ClusteringResult:
    """Optimize the penalized description length over clusterings.

    Deterministic given ``params.seed``; with restarts > 1 the run with
    the lowest final objective wins.
    """
    if params is None:
        params = EngineParams()
    if cache is None:
        cache = PairCache(pset, max_cost=params.omega_max_cost)
    best = None
    for r in range(params.restarts):
        rng = np.random.default_rng(params.seed + r)
        state, trace, accepted = _run_once(pset, cache, params, rng,
                                           keep_states=keep_states)
        if best is None or state.total < best[0].total:
            best = (state, trace, accepted)
    state, trace, accepted = best
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
