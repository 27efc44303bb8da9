"""Shared memoization of entropies, table counts and modified
conditional entropies.

Values are keyed by partition content, so duplicated partitions in an
ensemble cost nothing extra.  Each partition index is mapped once to a
small integer content id.  Per-content and per-signature values are
built with the cache; lookups gather pair values from rows, computing
only the unset ones.

Missing H_mod pairs are computed in batches at the content level.  The
cache holds one label row per distinct content, in the narrowest
unsigned dtype that fits the largest community count, a table of
x log2 x for the integers 0..N, and per content the sum a log2 a over
its community sizes a.  The table is in int64 fixed point: x log2 x
times the largest power of two 2^k with 2^k N log2 N <= 2^62, rounded.
Integer sums are exact in any order, so a value does not depend on the
batch that computed it.  With t the contingency table of sample q
against mode m and a_k = sum_l t_kl the sizes of the mode's
communities,

    H(q | m) = -sum_kl t_kl log2(t_kl / a_k) / N
             = (sum_k a_k log2 a_k - sum_kl t_kl log2 t_kl) / N,

so a batch needs one ``bincount`` over joint label codes and a table
lookup per count: no division, logarithm or mask over float tables.
The samples of a batch go through in chunks whose tables hold at most
``_KERNEL_CELLS`` counts (one sample at least), so the kernel's
temporaries stay bounded however many communities the partitions have.
The entropy of every content comes from the same sums when the cache is
built, as H(p) = log2 N - sum_k a_k log2 a_k / N.

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
interned when the cache is built.  Each signature's ``Margin`` (see
``tables``) is built with the cache, so its cost-model and estimator
pieces are computed once per signature, not once per pair.
The counts live in rows of the same kind, one per signature that has
been the mode side of a lookup: the row of a holds log2 Omega(a, b),
NaN where unset.  A count costs far more than a kernel pair, so a count
missing from a's row is copied from b's row when that row holds it, and
each unordered signature pair is counted once.  Memory grows with the
signatures that serve as modes, not with the square of all of them.
"""

from __future__ import annotations

import math

import numpy as np

from .partitions import PartitionSet
from .tables import Margin, log2_omega

# largest contingency table, in cells, that one kernel chunk counts
_KERNEL_CELLS = 1 << 20


def _intern(keys) -> tuple[np.ndarray, list]:
    """Ids 0, 1, ... in order of first appearance for a sequence of
    hashable keys, and the distinct keys in id order."""
    ids: dict = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys],
                    dtype=np.int64), list(ids)


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


class PairCache:
    """Memoizes H(p), log2 Omega and H_mod(q | m) for partitions of one
    PartitionSet."""

    def __init__(self, pset: PartitionSet):
        self.pset = pset
        self.cid, keys = _intern(p.key() for p in pset.partitions)
        self.rep = np.unique(self.cid, return_index=True)[1]  # lowest index per id
        self.n_cid = len(keys)
        self._ncomm = np.array([pset.partitions[r].n for r in self.rep])
        # content-level kernel tables (see the module docstring)
        width = int(self._ncomm.max())
        self._labels = np.stack([pset.partitions[r].labels for r in self.rep]).astype(
            np.min_scalar_type(width))
        x = np.arange(pset.N + 1, dtype=np.float64)
        x[0] = 1.0                          # 0 log 0 = 0
        top = pset.N * math.log2(max(pset.N, 2))
        self._scale = 2.0 ** (62 - math.ceil(math.log2(top)))
        self._xlogx = np.rint(np.arange(pset.N + 1) * np.log2(x)
                              * self._scale).astype(np.int64)
        offsets = (np.arange(self.n_cid) * width)[:, None]
        sizes = np.bincount((self._labels + offsets).ravel(),
                            minlength=self.n_cid * width)
        size_xlogx = self._xlogx[sizes].reshape(self.n_cid, width).sum(axis=1)
        self._mode_part = size_xlogx / (self._scale * pset.N)    # a(c)
        self._entropy = np.maximum(0.0, np.log2(pset.N) - self._mode_part)
        # W(c, x) in a dense row per content c, so batch lookups are
        # contiguous numpy gathers; unset cells are NaN
        self._by_mode: dict[int, np.ndarray] = {}
        # always empty: perfbench/tracing.py::cache_snapshot still reads it
        self._by_sample: dict[int, np.ndarray] = {}
        # margin signatures, one Margin each, and their log2 Omega rows
        self._margin_id, sigs = _intern(
            tuple(sorted(pset.partitions[r].counts.tolist())) for r in self.rep)
        self._margins = [Margin(s) for s in sigs]
        self._omega_rows: dict[int, np.ndarray] = {}

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
        m_cid = self.cid[m_indices[0]]
        q_cids = self.cid[q_indices]
        # t_kl sums over joint codes, so the layout of the (mode, sample)
        # label pair is free: code = pair * width + mode * q_width + sample
        q_width = int(self._ncomm[q_cids].max())
        width = int(self._ncomm[m_cid]) * q_width
        mode_codes = self._labels[m_cid].astype(np.int64) * q_width
        step = max(1, _KERNEL_CELLS // width)
        joint = np.empty(q_cids.size, dtype=np.int64)
        for lo in range(0, q_cids.size, step):
            chunk = q_cids[lo:lo + step]
            codes = (np.arange(chunk.size) * width)[:, None] + mode_codes
            codes += self._labels[chunk]
            t = np.bincount(codes.ravel(), minlength=chunk.size * width)
            joint[lo:lo + step] = self._xlogx[t].reshape(chunk.size, width).sum(axis=1)
        N = self.pset.N
        return (self.omega_block(m_indices[0], q_indices) / N
                - joint / (self._scale * N))
