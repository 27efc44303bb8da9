"""Canonical partition representation and information-theoretic primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import DEFAULT_MAX_COST, log2_omega


@dataclass(frozen=True, eq=False)
class Partition:
    """A division of N nodes into communities, with canonical labels
    0..n-1 assigned in order of first appearance."""

    labels: np.ndarray
    n: int
    counts: np.ndarray

    @property
    def N(self) -> int:
        return self.labels.shape[0]

    def key(self) -> bytes:
        """Content key: equal keys iff equal canonical label vectors."""
        return self.labels.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash(self.key())


def canonicalize(raw_labels) -> Partition:
    """Relabel arbitrary integer community labels to 0..n-1 by first
    appearance and drop empty communities."""
    arr = np.asarray(raw_labels, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty partition")
    _, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    rank = np.empty(first_pos.size, dtype=np.int64)
    rank[np.argsort(first_pos)] = np.arange(first_pos.size)
    labels = rank[inverse]
    counts = np.bincount(labels)
    return Partition(labels=labels, n=int(first_pos.size), counts=counts)


@dataclass
class PartitionSet:
    """An ordered collection of partitions over one shared node set."""

    partitions: list[Partition]
    N: int

    def __post_init__(self):
        if not self.partitions:
            raise ValueError("empty partition set")
        for p in self.partitions:
            if p.N != self.N:
                raise ValueError("incompatible partitions")

    @classmethod
    def from_partitions(cls, partitions: list[Partition]) -> "PartitionSet":
        if not partitions:
            raise ValueError("empty partition set")
        return cls(partitions=list(partitions), N=partitions[0].N)

    @property
    def S(self) -> int:
        return len(self.partitions)


@dataclass
class ContingencyTable:
    rows: int
    cols: int
    t: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray


def entropy(p: Partition) -> float:
    """Entropy of the community-size distribution, in bits per node."""
    freq = p.counts / p.N
    return float(-np.sum(freq * np.log2(freq)))


def contingency_table(m: Partition, p: Partition) -> ContingencyTable:
    """Joint label-count matrix: t[r][s] = nodes in community r of ``m``
    and community s of ``p``."""
    if m.N != p.N:
        raise ValueError("incompatible partitions")
    t = np.bincount(m.labels * p.n + p.labels, minlength=m.n * p.n)
    t = t.reshape(m.n, p.n)
    return ContingencyTable(rows=m.n, cols=p.n, t=t,
                            row_sums=t.sum(axis=1), col_sums=t.sum(axis=0))


def conditional_entropy(p: Partition, mode: Partition) -> float:
    """Conditional entropy of p's labels given mode's labels, bits per node.

    Zero exactly when each mode community maps into a single community
    of ``p``."""
    table = contingency_table(mode, p)
    t = table.t
    a = table.row_sums[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(t > 0, t * np.log2(t / a), 0.0)
    return float(max(0.0, -term.sum() / p.N))


def modified_conditional_entropy(p: Partition, mode: Partition,
                                 max_cost: float = DEFAULT_MAX_COST) -> float:
    """Conditional entropy plus the per-node cost of transmitting the
    contingency table between the two partitions."""
    if p.N != mode.N:
        raise ValueError("incompatible partitions")
    omega = log2_omega(mode.counts, p.counts, max_cost=max_cost)
    return conditional_entropy(p, mode) + omega / p.N
