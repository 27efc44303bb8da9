"""Workload definitions, seeded input generators and correctness checks.

The generators use numpy only, never the package under test, so the
inputs a run clusters do not depend on the code being measured.  Each
check returns ``None`` when the output is right and a one-line reason
when it is wrong; every failed check counts as one failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("distinct_bimodal", "repeated_unimodal", "repeated_cliques",
             "ring_pipeline")

# Ring-of-cliques geometry of the README walkthrough.
RING_CLIQUES = 8
RING_CLIQUE_SIZE = 6

DL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Size:
    """Ensemble sizes of one workload scale."""

    bimodal_S: int          # distinct_bimodal samples
    cliques_S: int          # repeated_* samples before repetition
    cliques_repeat: int     # repeated_* copies of the ensemble
    ring_S: int             # ring_pipeline sampler output


SIZES = {
    "full": Size(bimodal_S=2000, cliques_S=500, cliques_repeat=4, ring_S=2000),
    # for the benchmark's own tests: every code path, a few seconds each
    "tiny": Size(bimodal_S=600, cliques_S=100, cliques_repeat=4, ring_S=150),
}

# Penalty weights of the run() calls each library workload makes, in order.
LAMBDAS = {"distinct_bimodal": (1.0,), "repeated_unimodal": (1.0,),
           "repeated_cliques": (1.0, 0.0)}

# The fixed-work sampler step of a library repetition: Metropolis on the
# ring of cliques at a low inverse temperature, so every sweep costs the
# same whatever the seed.
MCMC = {"S": 400, "sweeps_between": 2, "beta": 1.0, "q_max": 10}


def canonical(labels) -> np.ndarray:
    """Relabel to 0..n-1 in order of first appearance."""
    arr = np.asarray(labels, dtype=np.int64)
    _, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def perturbed(bases, weights, flip_rate, S, seed) -> np.ndarray:
    """(S, N) mixture-of-bases ensemble: each sample copies a base drawn
    by weight and moves each node, with probability ``flip_rate``, to a
    uniformly random community of that base."""
    rng = np.random.default_rng(seed)
    base_idx = rng.choice(len(bases), size=S, p=np.asarray(weights))
    out = np.empty((S, len(bases[0])), dtype=np.int64)
    for s, b in enumerate(base_idx):
        base = bases[int(b)]
        labels = base.copy()
        flip = rng.random(base.size) < flip_rate
        labels[flip] = rng.integers(0, int(base.max()) + 1, size=int(flip.sum()))
        out[s] = canonical(labels)
    return out


# The two ways of grouping the 8 ring cliques into adjacent pairs.
CLIQUE_PAIRINGS = ([0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 1, 2, 2, 3, 3, 0])


def bimodal_bases() -> list[np.ndarray]:
    """Four groups of 25 and five groups of 10 on N=100 nodes."""
    return [canonical(np.repeat(np.arange(4), 25)),
            canonical((np.arange(100) // 10) % 5)]


def clique_pairing_bases() -> list[np.ndarray]:
    """The two clique pairings, on the 48 ring nodes."""
    return [canonical(np.repeat(m, RING_CLIQUE_SIZE)) for m in CLIQUE_PAIRINGS]


def distinct_bimodal_ensemble(seed: int, size: Size) -> np.ndarray:
    return perturbed(bimodal_bases(), [0.5, 0.5], 0.05, size.bimodal_S, seed)


def _clique_ensemble(pairings, seed: int, size: Size) -> np.ndarray:
    """Flips act on whole cliques: an 8-node meta ensemble is perturbed
    and expanded, then the ensemble is repeated, so contents recur."""
    meta = [canonical(m) for m in pairings]
    small = perturbed(meta, [1 / len(meta)] * len(meta), 0.1, size.cliques_S, seed)
    expanded = np.stack([canonical(np.repeat(p, RING_CLIQUE_SIZE)) for p in small])
    return np.concatenate([expanded] * size.cliques_repeat)


def repeated_unimodal_ensemble(seed: int, size: Size) -> np.ndarray:
    return _clique_ensemble(CLIQUE_PAIRINGS[:1], seed, size)


def repeated_cliques_ensemble(seed: int, size: Size) -> np.ndarray:
    return _clique_ensemble(CLIQUE_PAIRINGS, seed, size)


ENSEMBLES = {"distinct_bimodal": distinct_bimodal_ensemble,
             "repeated_unimodal": repeated_unimodal_ensemble,
             "repeated_cliques": repeated_cliques_ensemble}
PLANTED = {"distinct_bimodal": bimodal_bases,
           "repeated_unimodal": lambda: clique_pairing_bases()[:1],
           "repeated_cliques": clique_pairing_bases}


def write_labels(rows, path) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def read_labels(path) -> np.ndarray:
    with open(path) as fh:
        rows = [[int(t) for t in line.split()] for line in fh
                if line.strip() and not line.startswith("#")]
    return np.array(rows, dtype=np.int64)


# -- correctness checks ------------------------------------------------------

def check_planted_modes(modes, planted) -> str | None:
    """K must be the number of planted bases and the modes must be them."""
    if len(modes) != len(planted):
        return "K = %d, expected %d" % (len(modes), len(planted))
    got = {canonical(m).tobytes() for m in modes}
    want = {canonical(p).tobytes() for p in planted}
    if got != want:
        return "modes differ from the planted bases"
    return None


def check_k_grows(k_free: int, k_penalized: int) -> str | None:
    """Without the penalty the repeated contents must earn extra modes."""
    if k_free <= k_penalized:
        return "K = %d at lambda=0, not above K = %d at lambda=1" % (
            k_free, k_penalized)
    return None


def check_cliques_whole(modes, n_cliques=RING_CLIQUES,
                        size=RING_CLIQUE_SIZE) -> str | None:
    """Every mode must keep every clique in one community."""
    for k, mode in enumerate(modes):
        mode = np.asarray(mode)
        if mode.shape != (n_cliques * size,):
            return "mode %d has %d nodes" % (k, mode.size)
        for c in range(n_cliques):
            if np.unique(mode[c * size:(c + 1) * size]).size != 1:
                return "mode %d splits clique %d" % (k, c)
    return None


def check_dl(tracked: float, recomputed: float) -> str | None:
    """The engine's tracked total must match a from-scratch recomputation."""
    if not abs(tracked - recomputed) <= DL_TOLERANCE:
        return "tracked dl %.12f != recomputed %.12f" % (tracked, recomputed)
    return None


def check_sampled(rows, S=MCMC["S"], N=RING_CLIQUES * RING_CLIQUE_SIZE,
                  q_max=MCMC["q_max"]) -> str | None:
    """The sampler must write S canonical partitions of the N ring nodes
    into at most q_max communities."""
    rows = np.asarray(rows)
    if rows.shape != (S, N):
        return "sampled ensemble has shape %s, expected %s" % (rows.shape, (S, N))
    for s, row in enumerate(rows):
        if not np.array_equal(row, canonical(row)) or row.max() >= q_max:
            return "sample %d is not a canonical partition into %d groups" % (
                s, q_max)
    return None


def check_exit(step: str, code: int) -> str | None:
    if code != 0:
        return "%s exited with %d" % (step, code)
    return None
