"""Shared memoization of entropies, table counts and modified
conditional entropies.

Values are keyed by partition content, so duplicated partitions in an
ensemble cost nothing extra.  The ``PartitionSet`` owns the content ids
and the margin signatures (below): it numbers each once, as it is built,
and the cache reads them and each content's lowest sample.  Per-content
and per-signature values are built with the cache; lookups gather pair
values from rows, computing only the unset ones.

Missing H_mod pairs are computed in batches at the content level.  The
cache holds one label row per distinct content, in the narrowest
unsigned dtype that fits the largest community count, a table of
x log2 x for the integers 0..N, and per margin signature (below) the
sum a log2 a over its community sizes a.  The table is in int64 fixed
point: x log2 x times the largest power of two 2^k with
2^k N log2 N <= 2^62, rounded.  Integer sums are exact in any order, so
a value does not depend on the batch that computed it.  With t the
contingency table of sample q against mode m and a_k = sum_l t_kl the
sizes of the mode's communities,

    H(q | m) = -sum_kl t_kl log2(t_kl / a_k) / N
             = (sum_k a_k log2 a_k - sum_kl t_kl log2 t_kl) / N,

so a batch needs one ``bincount`` over joint label codes and a table
lookup per count: no division, logarithm or mask over float tables.
The samples of a batch go through in chunks whose tables and label
codes hold at most ``_KERNEL_CELLS`` elements (one sample at least), so
the kernel's temporaries stay bounded however many communities or nodes
the partitions have.
One builder, ``PairCache._tables``, yields these tables to W, the exact
encoding's L4 and the CLI's agreement table, one per distinct content.

H_mod values live in one store of a direction-free part.  With J(q, m)
the fixed-point joint sum, which is the same integer either way round,
and Omega symmetric under transposition,

    H_mod(q | m) = a(m) + W(q, m),   a(m) = A_m / (scale N),
    W(q, m) = log2 Omega(q, m) / N - J(q, m) / (scale N) = W(m, q),

where A_m is the mode's size sum.  The row of content c holds W(c, x),
so a sample scored against a fixed mode reads the mode's row, a fixed
sample scored against candidate modes reads its own row, and both give
the same float for one pair: J is an exact integer sum and Omega is
symmetric, so the value does not depend on which row computed it.  A
row computes its own missing pairs rather than copying them from the
other content's row.  On the ``distinct_bimodal`` benchmark workload a
copy was found for 32% of the lookups and cost about as much as the
kernel pair it saved; where the hit rate is higher, as on
``repeated_unimodal`` (61%), the kernel computes more pairs.  When q is a
function of m, J = A_m exactly and the sum cannot round below zero.

Table counts depend only on the community sizes, which many contents
share, so they are kept per margin signature: the sorted size vector,
whose ``Margin`` (see ``tables``) carries its cost-model and estimator
pieces.  Its size sum, community count and entropy
H(p) = log2 N - sum_k a_k log2 a_k / N are gathered to its contents.
The counts live in rows of the same kind, one per signature that has
been the mode side of a lookup: the row of a holds log2 Omega(a, b),
NaN where unset.  A count costs far more than a kernel pair, so a count
missing from a's row is copied from b's row when that row holds it, and
each unordered signature pair is counted once.  Memory grows with the
signatures that serve as modes, not with the square of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import PartitionSet
from .tables import log2_omega

# largest contingency table, in cells, that one kernel chunk counts
_KERNEL_CELLS = 1 << 20


def _pair_row(rows: dict, size: int, a: int, bs: np.ndarray,
              compute) -> np.ndarray:
    """Values of the pairs (a, b) for ``bs``, gathered from the row of a,
    which is allocated on first use; its distinct unset b are filled by
    one ``compute(a, missing)`` call."""
    row = rows.get(a)
    if row is None:
        row = rows[a] = np.full(size, np.nan)
    vals = row[bs]
    unset = np.isnan(vals)
    # hmod_block reads every term row here: count_nonzero is one C call,
    # about half the cost of ``unset.any()``
    if np.count_nonzero(unset):
        missing = np.flatnonzero(np.bincount(bs[unset]))
        row[missing] = compute(a, missing)
        vals = row[bs]
    return vals


# content vectors hold this first member index where a content is absent
_ABSENT = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class _Members:
    """A member set: sorted int64 partition indices, and over all content
    ids the copies of each content in the set (``count``) and its lowest
    member index (``first``, ``_ABSENT`` where the count is 0).  Made
    only by ``_members``."""
    index: np.ndarray
    count: np.ndarray
    first: np.ndarray

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """The lowest member of each content, ascending, and the content
        multiplicities.  Candidates of equal content always score
        identically, so argmin over these representatives in this order
        reproduces the lowest-index tie-break over the full member list."""
        ids = np.flatnonzero(self.count)
        ids = ids[np.argsort(self.first[ids])]
        return self.first[ids], self.count[ids]


def _members(members, cache: PairCache) -> _Members:
    """A ``_Members`` as it is, or the member set of partition indices
    given in any order, with its content vectors."""
    if isinstance(members, _Members):
        return members
    # a stable sort merges already-sorted runs in linear time; every
    # caller but the search sample passes one or two of them
    index = np.sort(np.asarray(members, dtype=np.int64), kind="stable")
    if not index.size:
        raise ValueError("empty cluster")
    cid = cache.cid[index]
    first = np.full(cache.n_cid, _ABSENT)
    np.minimum.at(first, cid, index)
    return _Members(index, np.bincount(cid, minlength=cache.n_cid), first)


def _cache_for(pset: PartitionSet, cache: PairCache | None) -> PairCache:
    """``cache``, checked to be built for ``pset``, or a new one."""
    if cache is not None and cache.pset is not pset:
        raise ValueError("the cache was built for another partition set")
    return PairCache(pset) if cache is None else cache


class PairCache:
    """Memoizes H(p), log2 Omega and H_mod(q | m) for partitions of one
    PartitionSet, whose content ids and margin signatures it reads."""

    def __init__(self, pset: PartitionSet):
        self.pset = pset
        self.cid, self.rep = pset.cid, pset.rep     # the set's content ids
        self.n_cid = len(self.rep)
        # the set's margin signatures, and their log2 Omega rows
        self._margin_id, self._margins = pset.margin_id, pset.margins
        self._omega_rows: dict[int, np.ndarray] = {}
        # content-level kernel tables (see the module docstring)
        x = np.arange(pset.N + 1, dtype=np.float64)
        x[0] = 1.0                          # 0 log 0 = 0
        top = pset.N * math.log2(max(pset.N, 2))
        self._scale = 2.0 ** (62 - math.ceil(math.log2(top)))
        self._xlogx = np.rint(np.arange(pset.N + 1) * np.log2(x)
                              * self._scale).astype(np.int64)
        # size-only values once per signature, gathered to its contents
        self._ncomm = np.array([len(m) for m in self._margins])[self._margin_id]
        size_xlogx = np.array([self._xlogx[list(m)].sum() for m in self._margins])
        self._mode_part = size_xlogx[self._margin_id] / (self._scale * pset.N)  # a(c)
        self._entropy = np.maximum(0.0, np.log2(pset.N) - self._mode_part)
        self._labels = np.stack([pset.partitions[r].labels for r in self.rep]).astype(
            np.min_scalar_type(int(self._ncomm.max())))
        # W(c, x) in a dense row per content c, so batch lookups are
        # contiguous numpy gathers; unset cells are NaN
        self._by_mode: dict[int, np.ndarray] = {}
        # always empty: perfbench/tracing.py::cache_snapshot still reads it
        self._by_sample: dict[int, np.ndarray] = {}

    def omega_block(self, m_idx: int, q_indices) -> np.ndarray:
        """log2 table counts of mode m against samples q, a gather from
        the row of m's margin signature."""
        sig, cid = self._margin_id, self.cid
        return _pair_row(self._omega_rows, len(self._margins),
                         int(sig[cid[m_idx]]),
                         sig[cid[np.asarray(q_indices, dtype=np.int64)]],
                         self._count_omegas)

    # -- entropies ---------------------------------------------------------

    def entropy(self, i: int) -> float:
        return float(self._entropy[self.cid[i]])

    def entropies(self, indices) -> np.ndarray:
        return self._entropy[self.cid[np.asarray(indices, dtype=np.int64)]]

    # -- modified conditional entropies ------------------------------------

    def hmod_given_mode(self, q_indices, m_idx: int) -> np.ndarray:
        """H_mod(q | m) for many q against one fixed mode m, from m's row."""
        m_cid = int(self.cid[m_idx])
        return self._mode_part[m_cid] + self._pair_part(
            m_cid, self.cid[np.asarray(q_indices, dtype=np.int64)])

    def hmod_against_modes(self, q_idx: int, m_indices) -> np.ndarray:
        """H_mod(q | m) for one fixed q against many candidate modes m:
        one row of ``hmod_block``."""
        return self.hmod_block([q_idx], m_indices)[0]

    def hmod_block(self, q_indices, m_indices) -> np.ndarray:
        """H_mod(q | m) for terms q (rows) against candidate modes m
        (columns), each row gathered from its term's row of the store;
        the same floats as ``hmod_given_mode``."""
        m_cids = self.cid[np.asarray(m_indices, dtype=np.int64)]
        q_cids = self.cid[np.asarray(q_indices, dtype=np.int64)].tolist()
        block = np.empty((len(q_cids), m_cids.size))
        for j, c in enumerate(q_cids):
            block[j] = self._pair_part(c, m_cids)
        block += self._mode_part[m_cids]
        return block

    # -- internals ---------------------------------------------------------

    def _pair_part(self, c: int, xs: np.ndarray) -> np.ndarray:
        """W(c, x) for contents ``xs`` from the row of content c."""
        return _pair_row(self._by_mode, self.n_cid, c, xs,
                         lambda a, bs: self._compute_block(
                             np.full(bs.size, self.rep[a]), self.rep[bs]))

    def _count_omegas(self, a: int, bs: np.ndarray) -> list:
        """log2 Omega of signature a against signatures ``bs``, each
        copied from b's row where that row holds it, counted otherwise."""
        def value(b):
            row = self._omega_rows.get(b)
            if row is not None and not np.isnan(row[a]):
                return row[a]
            return log2_omega(self._margins[a], self._margins[b])
        return [value(b) for b in bs.tolist()]

    def _compute_block(self, m_indices, q_indices) -> np.ndarray:
        """Vectorized W(q, m) for pairs of one fixed mode, repeated in
        ``m_indices``, and many samples ``q_indices``."""
        joint = np.empty(len(q_indices), dtype=np.int64)
        for lo, t in self._tables(self.cid[m_indices[0]], self.cid[q_indices]):
            joint[lo:lo + len(t)] = self._xlogx[t].reshape(len(t), -1).sum(axis=1)
        N = self.pset.N
        return (self.omega_block(m_indices[0], q_indices) / N
                - joint / (self._scale * N))

    def _tables(self, m_cid: int, q_cids: np.ndarray):
        """(start, t) chunks of at most ``_KERNEL_CELLS`` counts and label
        codes: t[i, k, l] counts the nodes in community k of content m and
        l of content ``q_cids[start + i]``, zero-padded to the widest."""
        # t_kl sums over joint codes, so the layout of the (mode, sample)
        # label pair is free: code = pair * width + mode * q_width + sample
        q_width = int(self._ncomm[q_cids].max())
        width = int(self._ncomm[m_cid]) * q_width
        mode_codes = self._labels[m_cid].astype(np.int64) * q_width
        step = max(1, _KERNEL_CELLS // max(width, self.pset.N))
        for lo in range(0, q_cids.size, step):
            chunk = q_cids[lo:lo + step]
            codes = (np.arange(chunk.size) * width)[:, None] + mode_codes
            codes += self._labels[chunk]
            t = np.bincount(codes.ravel(), minlength=chunk.size * width)
            yield lo, t.reshape(chunk.size, -1, q_width)
