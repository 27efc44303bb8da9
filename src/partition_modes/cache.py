"""Shared memoization of entropies and modified conditional entropies.

Values are keyed by partition content, so duplicated partitions in an
ensemble cost nothing extra.  Each partition index is mapped once to a
small integer content id; lookups are then dictionary hits on id pairs
and numpy gathers.  Entries are deterministic, so concurrent
(duplicated) computation can never produce inconsistent values.

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
"""

from __future__ import annotations

import numpy as np

from .partitions import PartitionSet, entropy
from .tables import DEFAULT_MAX_COST, log2_omega


class PairCache:
    """Memoizes H(p) and H_mod(q | m) for partitions of one PartitionSet."""

    def __init__(self, pset: PartitionSet, max_cost: float = DEFAULT_MAX_COST):
        self.pset = pset
        self.max_cost = max_cost
        key_to_cid: dict[bytes, int] = {}
        cid = np.empty(pset.S, dtype=np.int64)
        reps: list[int] = []
        for i in range(pset.S):
            key = pset.key(i)
            c = key_to_cid.get(key)
            if c is None:
                c = len(reps)
                key_to_cid[key] = c
                reps.append(i)
            cid[i] = c
        self.cid = cid                      # content id per partition index
        self.rep = np.array(reps)           # lowest partition index per id
        self.n_cid = len(reps)
        self._ncomm = np.array([pset.partitions[r].n for r in reps])
        self._entropy = np.full(len(reps), np.nan)
        # content-level kernel tables (see the module docstring)
        width = int(self._ncomm.max())
        self._labels = np.stack([pset.partitions[r].labels for r in reps]).astype(
            np.min_scalar_type(width))
        x = np.arange(pset.N + 1, dtype=np.float64)
        x[0] = 1.0                          # 0 log 0 = 0
        self._xlogx = np.arange(pset.N + 1) * np.log2(x)
        offsets = (np.arange(len(reps)) * width)[:, None]
        sizes = np.bincount((self._labels + offsets).ravel(),
                            minlength=len(reps) * width)
        self._size_xlogx = self._xlogx[sizes].reshape(len(reps), width).sum(axis=1)
        # H_mod values live in dense per-content rows so batch lookups
        # are contiguous numpy gathers: one dict keyed by the fixed mode
        # content (row over sample contents) and one keyed by the fixed
        # sample content (row over mode contents).  Rows are filled
        # lazily; unset cells are NaN.
        self._by_mode: dict[int, np.ndarray] = {}
        self._by_sample: dict[int, np.ndarray] = {}
        # many contents share one community-size vector, and the table
        # count depends only on the margins: give each content a margin
        # signature so omega is computed once per unordered pair of
        # distinct margins
        sig_to_id: dict[tuple, int] = {}
        margin = np.empty(len(reps), dtype=np.int64)
        self._margins: list[tuple] = []
        for c, r in enumerate(reps):
            sig = tuple(sorted(int(v) for v in pset.partitions[r].counts))
            s = sig_to_id.get(sig)
            if s is None:
                s = len(self._margins)
                sig_to_id[sig] = s
                self._margins.append(sig)
            margin[c] = s
        self._margin_id = margin
        n_sig = len(self._margins)
        self._omega = np.full((n_sig, n_sig), np.nan)

    def _omega_block(self, m_indices, q_indices) -> np.ndarray:
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
        c = int(self.cid[i])
        val = self._entropy[c]
        if np.isnan(val):
            val = entropy(self.pset.partitions[i])
            self._entropy[c] = val
        return float(val)

    def entropies(self, indices) -> np.ndarray:
        cs = self.cid[np.asarray(indices, dtype=np.int64)]
        for c in np.unique(cs[np.isnan(self._entropy[cs])]):
            self._entropy[c] = entropy(self.pset.partitions[self.rep[c]])
        return self._entropy[cs].copy()

    # -- modified conditional entropies ------------------------------------

    def hmod(self, q_idx: int, m_idx: int) -> float:
        """H_mod(q | m): cost of transmitting partition q given mode m."""
        return float(self.hmod_given_mode([q_idx], m_idx)[0])

    def hmod_given_mode(self, q_indices, m_idx: int) -> np.ndarray:
        """H_mod(q | m) for many q against one fixed mode m."""
        return self._row_lookup(self._by_mode, m_idx, q_indices, "mode")

    def hmod_against_modes(self, q_idx: int, m_indices) -> np.ndarray:
        """H_mod(q | m) for one fixed q against many candidate modes m."""
        return self._row_lookup(self._by_sample, q_idx, m_indices, "q")

    # -- internals ---------------------------------------------------------

    def _row_lookup(self, rows: dict, fixed_idx: int, var_indices,
                    fixed: str) -> np.ndarray:
        """Cells of the fixed partition's row in ``rows`` at the varying
        partitions; the unset cells are computed in one batch, each
        distinct content once."""
        fixed_cid = int(self.cid[fixed_idx])
        var_cids = self.cid[np.asarray(var_indices, dtype=np.int64)]
        row = rows.get(fixed_cid)
        if row is None:
            row = rows[fixed_cid] = np.full(self.n_cid, np.nan)
        vals = row[var_cids]
        unset = np.isnan(vals)
        if unset.any():
            missing = np.flatnonzero(np.bincount(var_cids[unset], minlength=self.n_cid))
            pinned = np.full(missing.size, fixed_idx)
            varying = self.rep[missing]
            row[missing] = (self._compute_block(pinned, varying, fixed) if fixed == "mode"
                            else self._compute_block(varying, pinned, fixed))
            vals = row[var_cids]
        return vals

    def _compute_block(self, m_indices, q_indices, fixed: str) -> np.ndarray:
        """Vectorized H_mod for pairs where one side is a single fixed
        partition (``fixed`` names which side varies' counterpart)."""
        m_cids = self.cid[m_indices]
        q_cids = self.cid[q_indices]
        fixed_cid, var_cids = ((m_cids[0], q_cids) if fixed == "mode"
                               else (q_cids[0], m_cids))
        # t_kl sums over joint codes, so the layout of the (fixed, varying)
        # label pair is free: code = pair * width + fixed * var_width + var
        var_width = int(self._ncomm[var_cids].max())
        width = int(self._ncomm[fixed_cid]) * var_width
        codes = (np.arange(var_cids.size) * width)[:, None] \
            + self._labels[fixed_cid].astype(np.int64) * var_width
        codes += self._labels[var_cids]
        t = np.bincount(codes.ravel(), minlength=var_cids.size * width)
        joint = self._xlogx[t].reshape(var_cids.size, width).sum(axis=1)
        N = self.pset.N
        hcond = np.maximum(0.0, (self._size_xlogx[m_cids] - joint) / N)
        return hcond + self._omega_block(m_indices, q_indices) / N
