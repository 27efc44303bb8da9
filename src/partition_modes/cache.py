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
its community sizes a.  With t the contingency table of sample q
against mode m and a_k = sum_l t_kl the sizes of the mode's
communities,

    H(q | m) = -sum_kl t_kl log2(t_kl / a_k) / N
             = (sum_k a_k log2 a_k - sum_kl t_kl log2 t_kl) / N,

so a batch needs one ``bincount`` over joint label codes and a table
lookup per count: no division, logarithm or mask over float tables.
The entropy of every content comes from the same sums when the cache is
built, as H(p) = log2 N - sum_k a_k log2 a_k / N.

H_mod values live in one store, where the row of content c holds
H_mod(x | c).  Omega is symmetric under transposition and both
conditional entropies share H(q, m), so H_mod(q | m) - H_mod(m | q) =
H(q) - H(m): samples scored against a fixed mode m read m's row, and a
fixed sample q scored against candidate modes reads its own row, so no
pair is computed twice.  The two lookups of one pair read different
rows and can differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .partitions import PartitionSet
from .tables import DEFAULT_MAX_COST, log2_omega


def _intern(keys) -> tuple[np.ndarray, list]:
    """Ids 0, 1, ... in order of first appearance for a sequence of
    hashable keys, and the distinct keys in id order."""
    ids: dict = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys],
                    dtype=np.int64), list(ids)


class PairCache:
    """Memoizes H(p), log2 Omega and H_mod(q | m) for partitions of one
    PartitionSet, with ``max_cost`` the budget of exact table counts."""

    def __init__(self, pset: PartitionSet, max_cost: float = DEFAULT_MAX_COST):
        self.pset = pset
        self.max_cost = max_cost
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
        self._xlogx = np.arange(pset.N + 1) * np.log2(x)
        offsets = (np.arange(self.n_cid) * width)[:, None]
        sizes = np.bincount((self._labels + offsets).ravel(),
                            minlength=self.n_cid * width)
        self._size_xlogx = self._xlogx[sizes].reshape(self.n_cid, width).sum(axis=1)
        self._entropy = np.maximum(0.0, np.log2(pset.N) - self._size_xlogx / pset.N)
        # H_mod(x | c) in a dense row per fixed content c, so batch
        # lookups are contiguous numpy gathers; unset cells are NaN
        self._by_mode: dict[int, np.ndarray] = {}
        # always empty: perfbench/tracing.py::cache_snapshot still reads it
        self._by_sample: dict[int, np.ndarray] = {}
        # the table count depends only on the community sizes, which many
        # contents share: omega is counted once per unordered margin pair
        self._margin_id, self._margins = _intern(
            tuple(sorted(pset.partitions[r].counts.tolist())) for r in self.rep)
        self._omega = np.full((len(self._margins),) * 2, np.nan)

    def omega_block(self, m_indices, q_indices) -> np.ndarray:
        """log2 table counts for index pairs, deduplicated by margin
        signature.  The count is symmetric under transposition, so each
        missing unordered signature pair is counted once and fills both
        ``_omega[a, b]`` and ``_omega[b, a]``."""
        ms = self._margin_id[self.cid[np.asarray(m_indices, dtype=np.int64)]]
        qs = self._margin_id[self.cid[np.asarray(q_indices, dtype=np.int64)]]
        vals = self._omega[ms, qs]
        missing = np.flatnonzero(np.isnan(vals))
        if missing.size:
            lo = np.minimum(ms[missing], qs[missing])
            hi = np.maximum(ms[missing], qs[missing])
            for a, b in set(zip(lo.tolist(), hi.tolist())):
                self._omega[a, b] = self._omega[b, a] = log2_omega(
                    self._margins[a], self._margins[b], max_cost=self.max_cost)
            vals = self._omega[ms, qs]
        return vals

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
        return self._row_lookup(int(self.cid[m_idx]),
                                self.cid[np.asarray(q_indices, dtype=np.int64)])

    def hmod_against_modes(self, q_idx: int, m_indices) -> np.ndarray:
        """H_mod(q | m) for one fixed q against many candidate modes m,
        from q's own row as H_mod(m | q) + H(q) - H(m)."""
        q_cid = int(self.cid[q_idx])
        m_cids = self.cid[np.asarray(m_indices, dtype=np.int64)]
        return (self._row_lookup(q_cid, m_cids) + self._entropy[q_cid]
                - self._entropy[m_cids])

    # -- internals ---------------------------------------------------------

    def _row_lookup(self, mode_cid: int, q_cids: np.ndarray) -> np.ndarray:
        """H_mod(q | m) from the row of the fixed mode content at the
        sample contents; the unset cells are computed in one batch, each
        distinct content once."""
        row = self._by_mode.get(mode_cid)
        if row is None:
            row = self._by_mode[mode_cid] = np.full(self.n_cid, np.nan)
        vals = row[q_cids]
        unset = np.isnan(vals)
        if unset.any():
            missing = np.flatnonzero(np.bincount(q_cids[unset], minlength=self.n_cid))
            row[missing] = self._compute_block(
                np.full(missing.size, self.rep[mode_cid]), self.rep[missing])
            vals = row[q_cids]
        return vals

    def _compute_block(self, m_indices, q_indices) -> np.ndarray:
        """Vectorized H_mod(q | m) for pairs of one fixed mode, repeated
        in ``m_indices``, and many samples ``q_indices``."""
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
        hcond = np.maximum(0.0, (self._size_xlogx[m_cid] - joint) / N)
        return hcond + self.omega_block(m_indices, q_indices) / N
