"""Canonical partition representation and information-theoretic primitives."""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
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


def _chunks(rows) -> Iterator[np.ndarray]:
    """The equal-length label rows of an iterable, stacked into S x N
    chunks of about ``_PASS_LABELS`` labels, one numpy pass of
    ``canonicalize_rows`` each, so rows are read as they are consumed."""
    rows = iter(rows)
    for first in rows:
        size = max(1, _PASS_LABELS // first.shape[0])
        chunk = [first, *itertools.islice(rows, size - 1)]
        yield np.concatenate(chunk).reshape(len(chunk), -1)


def canonicalize(raw_labels) -> Partition:
    """Relabel arbitrary integer community labels to 0..n-1 by first
    appearance and drop empty communities."""
    arr = np.asarray(raw_labels)
    if arr.ndim != 1:
        raise ValueError("partition labels must be a 1-D sequence")
    return canonicalize_rows(arr[None, :]).partitions[0]


def _blocks(raw_rows) -> Iterator[np.ndarray]:
    """The int64 blocks of rows of ``canonicalize_rows``' input, about
    ``_PASS_LABELS`` labels each: views of a matrix, or of each chunk
    of an iterator in turn."""
    N = None
    for chunk in raw_rows if isinstance(raw_rows, Iterator) else [raw_rows]:
        raw = _int64_values(chunk)
        if raw.ndim != 2:
            raise ValueError("partition rows must be a 2-D S x N label matrix")
        if N is not None and raw.shape[1] != N:
            raise ValueError("incompatible partitions")
        N = raw.shape[1]
        if not N:
            raise ValueError("empty partition")
        rows = max(1, _PASS_LABELS // N)
        for lo in range(0, raw.shape[0], rows):
            yield raw[lo:lo + rows]


def canonicalize_rows(raw_rows) -> PartitionSet:
    """The ``PartitionSet`` of an S x N label matrix, or of an iterator
    of such matrices (chunks) of one N, taken in order, as ``_chunks``
    yields them: every row canonicalized as ``canonicalize`` does one, a
    block of rows per numpy pass, and interned as its block is done.  A
    row whose content was seen before takes that content's id; a new
    content becomes one ``Partition`` whose labels and counts are copied
    out of its block with the block's other new contents.  So the set
    holds its distinct contents and no block, and an iterator's chunks
    are read one at a time."""
    ids: dict[bytes, int] = {}
    cid, contents, rep = [], [], []
    for block in _blocks(raw_rows):
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
        cid += block_cid
    if not cid:
        raise ValueError("empty partition")
    return PartitionSet(partitions=[contents[c] for c in cid], N=N,
                        cid=np.array(cid, dtype=np.int64),
                        rep=np.array(rep, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class PartitionSet:
    """An ordered ensemble of S partitions over one node set, held at
    content level: ``partitions`` has one entry per sample, and all
    copies of a content are one shared ``Partition``.  ``cid`` numbers
    each sample's content 0, 1, ... in order of first appearance, and
    ``rep`` holds each content's lowest sample index.  Built only by
    ``canonicalize_rows``, the one place that decides which samples are
    equal; ``from_partitions`` goes through it."""

    partitions: list[Partition]
    N: int
    cid: np.ndarray
    rep: np.ndarray

    @classmethod
    def from_partitions(cls, partitions: list[Partition]) -> "PartitionSet":
        """The set of ``partitions``, whose labels reach
        ``canonicalize_rows`` a chunk at a time: no S x N matrix is
        built, and equal contents become one shared ``Partition``."""
        if not partitions:
            raise ValueError("empty partition set")
        N = partitions[0].N
        if any(p.N != N for p in partitions):
            raise ValueError("incompatible partitions")
        return canonicalize_rows(_chunks(p.labels for p in partitions))

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
