"""Canonical partition representation and information-theoretic primitives."""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .tables import Margin, _int64_values, log2_omega

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


def _ints(values, message) -> list[int]:
    """A caller's counts, seeds and indices as Python ints.  A value not
    of an integer type, or a bool or ``np.bool_`` (a flag, not a count),
    raises ``ValueError(message)`` rather than being truncated; labels
    and sizes are data, and take integral floats (``_int64_values``)."""
    try:
        return [operator.index(None if isinstance(v, (bool, np.bool_)) else v)
                for v in values]
    except TypeError:
        raise ValueError(message) from None


def _real(value, message) -> float:
    """A caller's weight, rate, probability or temperature as a Python
    float.  A bool or ``np.bool_`` (a flag), or a value that is not a
    real number (a string, None), raises ``ValueError(message)``; an int
    past the float range, such as 10**400, is an infinity.  Each site
    checks its own range."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(message)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def canonicalize(raw_labels) -> Partition:
    """Relabel arbitrary integer community labels to 0..n-1 by first
    appearance and drop empty communities."""
    arr = np.asarray(raw_labels)
    if arr.ndim != 1:
        raise ValueError("partition labels must be a 1-D sequence")
    return canonicalize_rows([arr]).partitions[0]


def _blocks(rows) -> Iterator[np.ndarray]:
    """``canonicalize_rows``' label rows, read as they are consumed and
    stacked into int64 blocks of about ``_PASS_LABELS`` labels each.
    Every row must have the first row's shape: one label per node.  Each
    row is made int64 on its own, so rows of mixed integer types are not
    stacked as float64, which would merge labels past 2**53."""
    rows = (_int64_values(row, "partition labels must be integers") for row in rows)
    first = next(rows, np.empty(0))
    if first.ndim != 1:
        raise ValueError("partition rows must be a 2-D S x N label matrix")
    if not first.size:
        raise ValueError("empty partition")
    rows = itertools.chain([first], rows)
    while block := list(itertools.islice(rows, max(1, _PASS_LABELS // first.size))):
        if any(row.shape != first.shape for row in block):
            raise ValueError("incompatible partitions")
        yield np.concatenate(block).reshape(len(block), -1)


def canonicalize_rows(rows) -> PartitionSet:
    """The ``PartitionSet`` of any iterable of 1-D label rows of one
    length N (an S x N matrix, a list, a generator), taken in order:
    every row canonicalized as ``canonicalize`` does one, a block of rows
    per numpy pass (``_blocks``), and interned as its block is done.  A
    row whose content was seen before takes that content's id; a new
    content becomes one ``Partition`` whose labels and counts are copied
    out of its block with the block's other new contents, and its margin
    signature is interned.  So the set holds its distinct contents and no
    block, a generator's rows are read a block at a time, and the sample
    ids take 8 bytes each, in an int64 buffer that becomes ``cid``."""
    ids, sigs = {}, {}      # content keys and margin signatures, to ids
    cid, contents, rep, margin_id = array("q"), [], [], []
    for block in _blocks(rows):
        N = block.shape[1]
        idx = np.arange(block.size)
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
        rank = np.cumsum(first == idx, dtype=np.int64)
        labels = rank[first]
        counts = np.bincount(labels)
        row_first = rank[::N]
        labels = labels.reshape(block.shape)
        labels -= row_first[:, None]
        n = rank[N - 1::N] - row_first + 1
        # a row's key: its canonical labels, all below N, as bytes of the
        # narrowest type that holds N - 1
        key_type = np.min_scalar_type(N - 1)
        keys = labels.astype(key_type).view((np.void, key_type.itemsize * N))
        block_cid = [ids.setdefault(k, len(ids)) for k in keys.ravel().tolist()]
        # the first row of each content new in this block, in id order
        new = []
        for i, c in enumerate(block_cid):
            if c == len(contents) + len(new):
                new.append(i)
        if new:
            # their communities' counts, row after row, in one gather
            new = np.array(new)
            n_new = n[new]
            ends = np.cumsum(n_new)
            counts = counts[np.arange(ends[-1])
                            + np.repeat(row_first[new] - ends + n_new, n_new)]
            for i, row, k, e in zip(new.tolist(), labels[new], n_new.tolist(),
                                    ends.tolist()):
                contents.append(Partition(labels=row, n=k, counts=counts[e - k:e]))
                rep.append(len(cid) + i)
                sig = tuple(sorted(counts[e - k:e].tolist()))
                margin_id.append(sigs.setdefault(sig, len(sigs)))
        cid.extend(block_cid)
    return PartitionSet(partitions=[contents[c] for c in cid], N=N,
                        cid=np.frombuffer(cid, dtype=np.int64),
                        rep=np.array(rep, dtype=np.int64),
                        margin_id=np.array(margin_id, dtype=np.int64),
                        margins=[Margin(s) for s in sigs])


@dataclass(frozen=True, eq=False)
class PartitionSet:
    """An ordered ensemble of S partitions over one node set, held at
    content level: ``partitions`` has one entry per sample, and all
    copies of a content are one shared ``Partition``.  ``cid`` numbers
    each sample's content 0, 1, ... in order of first appearance, and
    ``rep`` holds each content's lowest sample index; ``margin_id`` and
    ``margins`` number the margin signatures (sorted sizes) of the contents
    alike, one ``tables.Margin`` each.  Built only by ``canonicalize_rows``,
    which decides which samples share a content and which contents a
    margin; ``from_partitions`` goes through it."""

    partitions: list[Partition]
    N: int
    cid: np.ndarray
    rep: np.ndarray
    margin_id: np.ndarray
    margins: list[Margin]

    @classmethod
    def from_partitions(cls, partitions: list[Partition]) -> "PartitionSet":
        """The set of ``partitions``, whose label rows stream into
        ``canonicalize_rows``, which checks that they share one node
        count: no S x N matrix is built, and equal contents become one
        shared ``Partition``."""
        if not partitions:
            raise ValueError("empty partition set")
        return canonicalize_rows(p.labels for p in partitions)

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
