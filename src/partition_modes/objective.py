"""Description-length objective over clusterings of a partition ensemble.

Assembles the per-sample penalized objective (mode entropies, cluster
label entropy, modified conditional entropies, and the per-cluster
penalty) plus the exact four-part encoding length used for reporting
and cross-checks.  Log-factorials and log-binomials come from the
standard library's ``math.lgamma``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .cache import PairCache
from .partitions import PartitionSet, contingency_table
from .tables import _log2_binom

_LN2 = math.log(2.0)


@dataclass
class Clustering:
    """Assignment of the S ensemble partitions to K clusters, with one
    member partition of each cluster designated as its mode."""

    assignment: np.ndarray   # length S, values in [0, K)
    mode_index: list[int]    # length K, index into the PartitionSet
    K: int

    def validate(self, pset: PartitionSet) -> None:
        S = pset.S
        if self.assignment.shape != (S,):
            raise ValueError("assignment length does not match ensemble size")
        # numpy raises TypeError or IndexError on non-integers further down
        if (self.assignment.dtype.kind not in "iu"
                or not np.can_cast(self.assignment.dtype, np.int64)):
            raise ValueError("cluster ids must be integers")
        try:
            modes = [operator.index(m) for m in self.mode_index]
            operator.index(self.K)
        except TypeError:
            raise ValueError("K and the mode indices must be integers") from None
        # K and the cluster ids are bounded before bincount allocates K counts
        if len(self.mode_index) != self.K:
            raise ValueError("every cluster must be non-empty with one mode")
        if self.assignment.min() < 0 or self.assignment.max() >= self.K:
            raise ValueError("cluster id out of range")
        if np.any(self.cluster_sizes() == 0):
            raise ValueError("every cluster must be non-empty with one mode")
        for k, m in enumerate(modes):
            if not 0 <= m < S:
                raise ValueError("mode index %d out of range" % m)
            if self.assignment[m] != k:
                raise ValueError("mode %d is not a member of cluster %d" % (m, k))

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.K)

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == k)


@dataclass
class ObjectiveBreakdown:
    mode_entropy_term: float
    cluster_label_term: float
    conditional_term: float
    penalty_term: float
    total: float
    weights: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "mode_entropy": self.mode_entropy_term,
            "cluster_labels": self.cluster_label_term,
            "conditional": self.conditional_term,
            "penalty": self.penalty_term,
            "total": self.total,
            "weights": [float(w) for w in self.weights],
        }


def cluster_label_entropy(cluster_sizes, S: int) -> float:
    """Entropy of the cluster-membership labels in bits: -sum (c/S) log2 (c/S)."""
    sizes = np.asarray(cluster_sizes, dtype=np.float64)
    if sizes.sum() != S or np.any(sizes < 1):
        raise ValueError("cluster sizes must be positive and sum to S")
    f = sizes / S
    return float(-np.sum(f * np.log2(f)))


def description_length(pset: PartitionSet, clustering: Clustering,
                       lam: float = 1.0,
                       cache: PairCache | None = None) -> ObjectiveBreakdown:
    """Penalized per-sample description length of the ensemble under the
    given clustering, broken into its four terms."""
    clustering.validate(pset)
    if not math.isfinite(lam) or lam < 0:
        raise ValueError("penalty weight must be finite and non-negative")
    if cache is None:
        cache = PairCache(pset)
    N, S = pset.N, pset.S
    sizes = clustering.cluster_sizes()

    mode_term = N / S * sum(cache.entropy(m) for m in clustering.mode_index)
    label_term = cluster_label_entropy(sizes, S)
    cond = 0.0
    for k, m in enumerate(clustering.mode_index):
        cond += cache.hmod_given_mode(clustering.members(k), m).sum()
    cond_term = N / S * cond
    penalty = lam * clustering.K
    return ObjectiveBreakdown(
        mode_entropy_term=mode_term,
        cluster_label_term=label_term,
        conditional_term=cond_term,
        penalty_term=penalty,
        total=mode_term + label_term + cond_term + penalty,
        weights=sizes / S,
    )


def _log2_factorials(n: int) -> np.ndarray:
    """log2 k! for k = 0..n, indexed by k."""
    return np.fromiter((math.lgamma(k + 1.0) for k in range(n + 1)),
                       dtype=np.float64, count=n + 1) / _LN2


def full_description_length(pset: PartitionSet, clustering: Clustering,
                            cache: PairCache | None = None) -> dict:
    """Exact (non-Stirling) encoding length in bits, split into its four
    stages: community-size vectors, mode label vectors, cluster
    assignments, and per-partition contingency tables plus labels.

    The mode's own transmission cost is included in L4 (the self term
    changes the total only negligibly and simplifies bookkeeping).
    L1 does not depend on the clustering and is reported but never used
    in optimization comparisons.  L4 takes its table counts from
    ``cache``, by default a fresh ``PairCache``; past the exact-count
    budget of ``log2_omega`` they are estimates, so L4 is then approximate.
    """
    clustering.validate(pset)
    if cache is None:
        cache = PairCache(pset)
    N, S, K = pset.N, pset.S, clustering.K
    sizes = clustering.cluster_sizes()
    lf = _log2_factorials(max(N, S))

    L1 = float(sum(_log2_binom(N - 1, p.n - 1) for p in pset.partitions))
    L2 = float(sum(lf[N] - lf[pset.partitions[m].counts].sum()
                   for m in clustering.mode_index))
    L3 = _log2_binom(S - 1, K - 1) + float(lf[S] - lf[sizes].sum())
    L4 = 0.0
    for k, m in enumerate(clustering.mode_index):
        mode = pset.partitions[m]
        members = clustering.members(k)
        omegas = cache.omega_block(m, members)
        for p_idx, omega in zip(members, omegas):
            t = contingency_table(mode, pset.partitions[p_idx]).t
            L4 += float(lf[mode.counts].sum() - lf[t].sum())
            L4 += float(omega)
    return {"L1": L1, "L2": L2, "L3": L3, "L4": L4,
            "total": L1 + L2 + L3 + L4}
