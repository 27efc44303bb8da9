"""Canonical partition representation and information-theoretic primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import log2_omega

# Labels per numpy pass of canonicalize_rows: bounds the pass's
# temporary arrays to a few hundred kilobytes whatever the ensemble size.
_PASS_LABELS = 1 << 12


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


def _int64_values(raw, what="partition labels") -> np.ndarray:
    """``raw`` as int64, int64 input not copied.  A float is taken only
    at an integral value within int64: truncated, two labels could merge
    their communities."""
    arr = np.asarray(raw)
    if arr.dtype.kind not in "bi" and not (arr.dtype.kind in "fu" and np.all(
            (arr == np.floor(arr)) & (arr >= -2 ** 63) & (arr < 2 ** 63))):
        raise ValueError(what + " must be integers")
    return arr.astype(np.int64, copy=False)


def canonicalize(raw_labels) -> Partition:
    """Relabel arbitrary integer community labels to 0..n-1 by first
    appearance and drop empty communities."""
    arr = np.asarray(raw_labels)
    if arr.ndim != 1:
        raise ValueError("partition labels must be a 1-D sequence")
    return canonicalize_rows(arr[None, :])[0]


def canonicalize_rows(raw_rows) -> list[Partition]:
    """Canonicalize every row of an S x N label matrix, as
    ``canonicalize`` does one row, a block of rows per numpy pass.  The
    returned partitions' labels are rows of one S x N array."""
    raw = _int64_values(raw_rows)
    if raw.ndim != 2:
        raise ValueError("partition rows must be a 2-D S x N label matrix")
    if raw.size == 0:
        raise ValueError("empty partition")
    S, N = raw.shape
    labels = np.empty((S, N), dtype=np.int64)
    rows = max(1, _PASS_LABELS // N)
    flat = np.arange(min(S, rows) * N)
    out = []
    for lo in range(0, S, rows):
        block = raw[lo:lo + rows]
        idx = flat[:block.size]
        # flat positions in row-wise stable label order: each label's
        # first position heads its run, and each row starts a run
        pos = np.argsort(block, axis=1, kind="stable")
        pos += idx[::N, None]
        pos = pos.ravel()
        srt = block.ravel()[pos]
        starts = np.empty(block.size, dtype=bool)
        np.not_equal(srt[1:], srt[:-1], out=starts[1:])
        starts[::N] = True
        head = np.where(starts, idx, 0)
        np.maximum.accumulate(head, out=head)
        first = np.empty_like(pos)
        first[pos] = pos[head]
        # communities numbered from 1 across the block by first
        # appearance; a row's first node opens its first community
        rank = np.cumsum(first == idx)
        block_labels = labels[lo:lo + rows]
        np.take(rank, first, out=block_labels.reshape(-1))
        counts = np.bincount(block_labels.reshape(-1))
        row_first = rank[::N]
        block_labels -= row_first[:, None]
        n = rank[N - 1::N] - row_first + 1
        out += [Partition(labels=row, n=k, counts=counts[f:f + k])
                for row, k, f in zip(block_labels, n.tolist(), row_first.tolist())]
    return out


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


def modified_conditional_entropy(p: Partition, mode: Partition) -> float:
    """Conditional entropy plus the per-node cost of transmitting the
    contingency table between the two partitions."""
    if p.N != mode.N:
        raise ValueError("incompatible partitions")
    omega = log2_omega(mode.counts, p.counts)
    return conditional_entropy(p, mode) + omega / p.N
