"""Shared memoization of entropies, table counts and modified
conditional entropies.

Values are keyed by partition content, so duplicated partitions in an
ensemble cost nothing extra.  Each partition index is mapped once to a
small integer content id; lookups are then dictionary hits on id pairs
and numpy gathers.

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
the same float for one pair.  A pair missing from one row is copied
from the other content's row when that row holds it, and computed
otherwise, so the kernel computes each unordered pair once.  When q is
a function of m, J = A_m exactly and the sum cannot round below zero.

Table counts depend only on the community sizes, which many contents
share, so they are kept per margin signature: the sorted size vector,
interned when the cache is built.  A signature's ``Margin`` (see
``tables``) is built the first time the signature is counted, so its
cost-model and estimator pieces are computed once, not once per pair.
The counts live in rows of the same kind, one per signature that has
been the mode side of a lookup: the row of a holds log2 Omega(a, b),
NaN where unset.  Memory grows with the signatures that serve as modes,
not with the square of all of them.
"""

from __future__ import annotations

import math

import numpy as np

from .partitions import PartitionSet
from .tables import Margin, log2_omega


def _intern(keys) -> tuple[np.ndarray, list]:
    """Ids 0, 1, ... in order of first appearance for a sequence of
    hashable keys, and the distinct keys in id order."""
    ids: dict = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys],
                    dtype=np.int64), list(ids)


def _pair_row(rows: dict, has_row: np.ndarray, a: int, bs: np.ndarray,
              compute) -> np.ndarray:
    """Values of the symmetric pairs (a, b) for ``bs``, gathered from the
    row of a, which is allocated on first use.  An unset cell is copied
    from b's row when b has one, and otherwise filled by one
    ``compute(a, missing)`` call over the distinct missing b."""
    row = rows.get(a)
    if row is None:
        row = rows[a] = np.full(has_row.size, np.nan)
        has_row[a] = True
    vals = row[bs]
    unset = np.isnan(vals)
    if unset.any():
        missing = np.flatnonzero(np.bincount(bs[unset], minlength=has_row.size))
        mirrored = missing[has_row[missing]]
        row[mirrored] = [rows[b][a] for b in mirrored.tolist()]
        missing = missing[np.isnan(row[missing])]
        if missing.size:
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
        self._has_row = np.zeros(self.n_cid, dtype=bool)
        # always empty: perfbench/tracing.py::cache_snapshot still reads it
        self._by_sample: dict[int, np.ndarray] = {}
        # margin signatures and their log2 Omega rows (see the module
        # docstring); ``_margins[a]`` becomes a ``Margin`` when first counted
        self._margin_id, self._margins = _intern(
            tuple(sorted(pset.partitions[r].counts.tolist())) for r in self.rep)
        self._omega_rows: dict[int, np.ndarray] = {}
        self._omega_has_row = np.zeros(len(self._margins), dtype=bool)

    def omega_block(self, m_idx: int, q_indices) -> np.ndarray:
        """log2 table counts of mode m against samples q, a gather from
        the row of m's margin signature."""
        sig, cid = self._margin_id, self.cid
        return _pair_row(
            self._omega_rows, self._omega_has_row, int(sig[cid[m_idx]]),
            sig[cid[np.asarray(q_indices, dtype=np.int64)]],
            lambda a, bs: [log2_omega(self._margin(a), self._margin(b))
                           for b in bs.tolist()])

    # -- entropies ---------------------------------------------------------

    def entropy(self, i: int) -> float:
        return float(self._entropy[self.cid[i]])

    def entropies(self, indices) -> np.ndarray:
        return self._entropy[self.cid[np.asarray(indices, dtype=np.int64)]]

    # -- modified conditional entropies ------------------------------------

    def hmod(self, q_idx: int, m_idx: int) -> float:
        """H_mod(q | m): cost of transmitting partition q given mode m."""
        return float(self.hmod_given_mode([q_idx], m_idx)[0])

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
            row = self._by_mode.get(c)
            if row is None:
                block[j] = np.nan
            else:
                np.take(row, m_cids, out=block[j])
        # rows with an unset cell are filled through the row memo
        for j in np.flatnonzero(np.isnan(block).any(axis=1)).tolist():
            block[j] = self._pair_part(q_cids[j], m_cids)
        block += self._mode_part[m_cids]
        return block

    # -- internals ---------------------------------------------------------

    def _pair_part(self, c: int, xs: np.ndarray) -> np.ndarray:
        """W(c, x) for contents ``xs`` from the row of content c."""
        return _pair_row(self._by_mode, self._has_row, c, xs,
                         lambda a, bs: self._compute_block(
                             np.full(bs.size, self.rep[a]), self.rep[bs]))

    def _margin(self, a: int) -> Margin:
        m = self._margins[a]
        if not isinstance(m, Margin):
            m = self._margins[a] = Margin(m)
        return m

    def _compute_block(self, m_indices, q_indices) -> np.ndarray:
        """Vectorized W(q, m) for pairs of one fixed mode, repeated in
        ``m_indices``, and many samples ``q_indices``."""
        m_cid = self.cid[m_indices[0]]
        q_cids = self.cid[q_indices]
        # t_kl sums over joint codes, so the layout of the (mode, sample)
        # label pair is free: code = pair * width + mode * q_width + sample
        q_width = int(self._ncomm[q_cids].max())
        width = int(self._ncomm[m_cid]) * q_width
        codes = (np.arange(q_cids.size) * width)[:, None] \
            + self._labels[m_cid].astype(np.int64) * q_width
        codes += self._labels[q_cids]
        t = np.bincount(codes.ravel(), minlength=q_cids.size * width)
        joint = self._xlogx[t].reshape(q_cids.size, width).sum(axis=1)
        N = self.pset.N
        return (self.omega_block(m_indices[0], q_indices) / N
                - joint / (self._scale * N))
