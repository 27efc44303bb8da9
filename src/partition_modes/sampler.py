"""Sources of partition ensembles: file ingestion, ground-truth
perturbation ensembles, and a small modularity-based Metropolis sampler
for self-contained demos."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_text_file
from .graphs import Graph
from .partitions import Partition, PartitionSet, canonicalize_rows

# Moves per block of generator draws in mcmc_sample: large enough that
# small graphs pay little numpy call overhead, small enough that the
# drawn Python objects stay near a hundred kilobytes.
_BLOCK = 2048


def load_partitions(path) -> PartitionSet:
    """Read one partition per line (whitespace-separated integer labels,
    '#' comments ignored), canonicalizing the ensemble at once."""
    rows = []
    N = None
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
                rows.append(np.array(raw, dtype=np.int64))
            except OverflowError:   # past the int64 labels canonicalize uses
                raise ValueError("line %d: label out of range" % lineno) from None
    if not rows:
        raise ValueError("no partitions in %s" % path)
    return PartitionSet(partitions=canonicalize_rows(np.stack(rows)), N=N)


def write_partitions(pset: PartitionSet, path) -> None:
    """Write one partition per line, atomically: a failure leaves no
    partial file."""
    with atomic_text_file(path) as fh:
        for p in pset.partitions:
            fh.write(" ".join(map(str, p.labels.tolist())) + "\n")


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
        # NaN fails every comparison, so finiteness is tested on its own
        if (not all(math.isfinite(w) and w > 0 for w in weights)
                or abs(sum(weights) - 1.0) > 1e-9):
            raise ValueError("mixture weights must be positive and sum to 1")
        if not (0 <= self.node_flip_rate < 1):
            raise ValueError("node_flip_rate must be in [0, 1)")
        try:
            ok = operator.index(self.S) >= 1 and operator.index(self.seed) >= 0
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("ensemble size must be positive and the seed "
                             "non-negative, both integers")
        ns = {p.N for p, _ in self.bases}
        if len(ns) != 1:
            raise ValueError("base partitions must share one node set")


def perturb_ensemble(spec: PerturbationSpec) -> tuple[PartitionSet, np.ndarray]:
    """Draw the ensemble described by ``spec``; also returns the true
    base index of every sample for scoring."""
    rng = np.random.default_rng(spec.seed)
    weights = np.array([w for _, w in spec.bases])
    base_idx = rng.choice(len(spec.bases), size=spec.S, p=weights)
    samples = np.empty((spec.S, spec.bases[0][0].N), dtype=np.int64)
    for labels, b in zip(samples, base_idx):
        base = spec.bases[int(b)][0]
        labels[:] = base.labels
        flip = rng.random(base.N) < spec.node_flip_rate
        labels[flip] = rng.integers(0, base.n, size=int(flip.sum()))
    return PartitionSet.from_partitions(canonicalize_rows(samples)), base_idx


def mcmc_sample(graph: Graph, S: int, sweeps_between: int = 1, beta: float = 1.0,
                q_max: int = 10, seed: int = 0) -> PartitionSet:
    """Single-node Metropolis sampler with stationary weight
    exp(beta * modularity); records a partition every ``sweeps_between``
    sweeps after a burn-in of 10x that many sweeps.  The samples depend
    only on the arguments: one seed gives the same samples every time."""
    try:
        for v in (S, sweeps_between, q_max, seed):
            operator.index(v)
    except TypeError:
        raise ValueError("invalid sampler parameters") from None
    if S < 1:
        raise ValueError("need at least one sample")
    if graph.N < 1:
        raise ValueError("empty graph")
    # NaN would reject every downhill move; inf is the zero-temperature limit
    if sweeps_between < 1 or q_max < 1 or seed < 0 or math.isnan(beta):
        raise ValueError("invalid sampler parameters")
    N = graph.N
    adj = [[] for _ in range(N)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    degrees = [len(a) for a in adj]
    m = sum(degrees) / 2.0
    two_m2 = 2.0 * m * m
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, q_max, size=N).tolist()
    deg_sums = [0] * q_max
    for node, label in enumerate(labels):
        deg_sums[label] += degrees[node]
    samples = np.empty((S, N), dtype=np.int64)
    recorded = 0
    record_every = sweeps_between * N
    # moves until the next record: the first ends the first sweeps_between
    # sweeps after the burn-in, the last ends the last move
    until_record = 11 * record_every
    left = (10 + S) * record_every
    while left:
        # each move's node, label and uniform come from one block of
        # draws; the block size and the draw order fix every seed's samples
        size = min(_BLOCK, left)
        left -= size
        nodes = rng.integers(N, size=size).tolist()
        news = rng.integers(q_max, size=size).tolist()
        uniforms = rng.random(size).tolist()
        for node, new, u in zip(nodes, news, uniforms):
            if not until_record:
                samples[recorded] = labels
                recorded += 1
                until_record = record_every
            until_record -= 1
            old = labels[node]
            if new == old:
                continue
            k = degrees[node]
            if m:   # without edges Q is taken as 0: every move is accepted
                gain = 0
                for nb in adj[node]:
                    label = labels[nb]
                    gain += (label == new) - (label == old)
                x = beta * (gain / m - k * (deg_sums[new] - deg_sums[old] + k) / two_m2)
                # every move with x >= 0 is taken without exp, which would
                # overflow at a negative beta; x is NaN, and the move taken,
                # when beta is infinite and the modularity does not change
                if x < 0 and not u < math.exp(x):
                    continue
            labels[node] = new
            deg_sums[old] -= k
            deg_sums[new] += k
    samples[recorded] = labels
    return PartitionSet.from_partitions(canonicalize_rows(samples))
