"""Sources of partition ensembles: file ingestion, ground-truth
perturbation ensembles, and a small modularity-based Metropolis sampler
for self-contained demos."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_text_file
from .graphs import Graph
from .partitions import Partition, PartitionSet, canonicalize


def load_partitions(path, expected_N: int | None = None) -> PartitionSet:
    """Read one partition per line (whitespace-separated integer labels,
    '#' comments ignored), canonicalizing each."""
    parts = []
    N = expected_N
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                raw = [int(t) for t in tokens]
            except ValueError:
                raise ValueError("line %d: non-integer label" % lineno) from None
            if N is None:
                N = len(raw)
            elif len(raw) != N:
                raise ValueError("line %d: expected %d labels, got %d"
                                 % (lineno, N, len(raw)))
            try:
                parts.append(canonicalize(raw))
            except OverflowError:   # past the int64 labels canonicalize uses
                raise ValueError("line %d: label out of range" % lineno) from None
    if not parts:
        raise ValueError("no partitions in %s" % path)
    return PartitionSet(partitions=parts, N=N)


def write_partitions(pset: PartitionSet, path) -> None:
    """Write one partition per line, atomically: a failure leaves no
    partial file."""
    with atomic_text_file(path) as fh:
        for p in pset.partitions:
            fh.write(" ".join(str(int(x)) for x in p.labels) + "\n")


@dataclass
class PerturbationSpec:
    """Mixture-of-bases ensemble: each sample copies one base partition
    and reassigns each node, with probability ``node_flip_rate``, to a
    uniformly random existing community of that base."""

    bases: list            # (Partition, weight) pairs
    node_flip_rate: float
    S: int
    seed: int = 0

    def __post_init__(self):
        if not self.bases:
            raise ValueError("need at least one base partition")
        weights = [w for _, w in self.bases]
        if any(w <= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be positive and sum to 1")
        if not (0 <= self.node_flip_rate < 1):
            raise ValueError("node_flip_rate must be in [0, 1)")
        if self.S < 1:
            raise ValueError("ensemble size must be positive")
        ns = {p.N for p, _ in self.bases}
        if len(ns) != 1:
            raise ValueError("base partitions must share one node set")


def perturb_ensemble(spec: PerturbationSpec) -> tuple[PartitionSet, np.ndarray]:
    """Draw the ensemble described by ``spec``; also returns the true
    base index of every sample for scoring."""
    rng = np.random.default_rng(spec.seed)
    weights = np.array([w for _, w in spec.bases])
    base_idx = rng.choice(len(spec.bases), size=spec.S, p=weights)
    samples = []
    for b in base_idx:
        base = spec.bases[int(b)][0]
        labels = base.labels.copy()
        flip = rng.random(base.N) < spec.node_flip_rate
        labels[flip] = rng.integers(0, base.n, size=int(flip.sum()))
        samples.append(canonicalize(labels))
    return PartitionSet.from_partitions(samples), base_idx


def _modularity_delta(node, old, new, labels, adj, degrees, deg_sums, two_m):
    """Change in Newman-Girvan modularity when ``node`` moves old -> new."""
    if old == new:
        return 0.0
    d_old = 0
    d_new = 0
    for nb in adj[node]:
        if labels[nb] == old:
            d_old += 1
        elif labels[nb] == new:
            d_new += 1
    k = degrees[node]
    m = two_m / 2.0
    return (d_new - d_old) / m - k * (deg_sums[new] - deg_sums[old] + k) / (2.0 * m * m)


def mcmc_sample(graph: Graph, S: int, sweeps_between: int = 1, beta: float = 1.0,
                q_max: int = 10, seed: int = 0) -> PartitionSet:
    """Single-node Metropolis sampler with stationary weight
    exp(beta * modularity); records a partition every ``sweeps_between``
    sweeps after a burn-in of 10x that many sweeps."""
    if S < 1:
        raise ValueError("need at least one sample")
    if graph.N < 1:
        raise ValueError("empty graph")
    # NaN would reject every downhill move; inf is the zero-temperature limit
    if sweeps_between < 1 or q_max < 1 or math.isnan(beta):
        raise ValueError("invalid sampler parameters")
    N = graph.N
    adj = [[] for _ in range(N)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    degrees = np.array([len(a) for a in adj])
    two_m = int(degrees.sum())
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, q_max, size=N)
    deg_sums = np.bincount(labels, weights=degrees, minlength=q_max)

    def sweep():
        for _ in range(N):
            node = int(rng.integers(N))
            old = int(labels[node])
            new = int(rng.integers(q_max))
            if new == old:
                continue
            if two_m == 0:
                delta = 0.0
            else:
                delta = _modularity_delta(node, old, new, labels, adj,
                                          degrees, deg_sums, two_m)
            if delta >= 0 or rng.random() < np.exp(beta * delta):
                labels[node] = new
                deg_sums[old] -= degrees[node]
                deg_sums[new] += degrees[node]

    for _ in range(10 * sweeps_between):
        sweep()
    samples = []
    for _ in range(S):
        for _ in range(sweeps_between):
            sweep()
        samples.append(canonicalize(labels))
    return PartitionSet.from_partitions(samples)
