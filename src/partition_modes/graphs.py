"""Synthetic network construction and edge-list I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import atomic_text_file
from .partitions import Partition, canonicalize


@dataclass
class Graph:
    """Simple undirected graph: nodes 0..N-1, edges as (u, v) with u < v."""

    N: int
    edges: set

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop (%d, %d)" % (u, v))
            if not (0 <= u < self.N and 0 <= v < self.N):
                raise ValueError("edge endpoint out of range: (%d, %d)" % (u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {"N": self.N, "edges": [[int(u), int(v)] for u, v in sorted(self.edges)]}


def _bernoulli_edges(labels: np.ndarray, pair_prob, rng) -> set:
    N = labels.size
    iu, ju = np.triu_indices(N, k=1)
    probs = pair_prob(labels[iu], labels[ju])
    mask = rng.random(iu.size) < probs
    return {(int(u), int(v)) for u, v in zip(iu[mask], ju[mask])}


def planted_partition(N: int, q: int, p_in: float, p_out: float,
                      seed: int = 0) -> tuple[Graph, Partition]:
    """Symmetric stochastic block model: N nodes split equally into q
    groups, edge probability p_in within groups and p_out between."""
    if q < 1 or N % q != 0:
        raise ValueError("group count must divide node count")
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError("probabilities must be in [0, 1]")
    labels = np.repeat(np.arange(q), N // q)
    rng = np.random.default_rng(seed)
    edges = _bernoulli_edges(labels, lambda a, b: np.where(a == b, p_in, p_out), rng)
    return Graph(N=N, edges=edges), canonicalize(labels)


def sbm(group_sizes, omega: np.ndarray, seed: int = 0) -> tuple[Graph, Partition]:
    """General stochastic block model with mixing matrix ``omega``:
    each pair i < j gets an edge with probability omega[g_i][g_j]."""
    sizes = [int(s) for s in group_sizes]
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (len(sizes), len(sizes)):
        raise ValueError("mixing matrix dimension does not match group count")
    if not np.allclose(omega, omega.T):
        raise ValueError("mixing matrix must be symmetric")
    if omega.min() < 0 or omega.max() > 1:
        raise ValueError("mixing probabilities must be in [0, 1]")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    N = int(labels.size)
    rng = np.random.default_rng(seed)
    edges = _bernoulli_edges(labels, lambda a, b: omega[a, b], rng)
    return Graph(N=N, edges=edges), canonicalize(labels)


def ring_of_cliques(num_cliques: int, clique_size: int) -> tuple[Graph, Partition]:
    """``num_cliques`` complete subgraphs of ``clique_size`` nodes each,
    with node 0 of clique i joined to node 1 of clique i+1 (mod ring).

    The ring leaves each clique at node 0 and enters at node 1, so no
    node carries more than one ring edge."""
    if num_cliques < 3 or clique_size < 2:
        raise ValueError("need at least 3 cliques of at least 2 nodes")
    N = num_cliques * clique_size
    edges = set()
    for c in range(num_cliques):
        base = c * clique_size
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                edges.add((base + a, base + b))
    for c in range(num_cliques):
        u = c * clique_size
        v = ((c + 1) % num_cliques) * clique_size + 1
        edges.add((min(u, v), max(u, v)))
    labels = np.repeat(np.arange(num_cliques), clique_size)
    return Graph(N=N, edges=edges), canonicalize(labels)


def write_edge_list(graph: Graph, path) -> None:
    """Canonical text output: one 'u v' pair per line, sorted, u < v.
    Written atomically: a failure leaves no partial file."""
    with atomic_text_file(path) as fh:
        fh.write("# %d nodes, %d edges\n" % (graph.N, graph.num_edges))
        for u, v in sorted(graph.edges):
            fh.write("%d %d\n" % (u, v))


def read_edge_list(path) -> Graph:
    """Parse a whitespace-separated edge list; '#' lines are comments.
    Duplicate edges, self-loops, and malformed lines are errors."""
    edges = set()
    max_node = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("line %d: expected two node ids" % lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError("line %d: non-integer node id" % lineno) from None
            if u < 0 or v < 0:
                raise ValueError("line %d: negative node id" % lineno)
            if u == v:
                raise ValueError("line %d: self-loop" % lineno)
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise ValueError("line %d: duplicate edge %s" % (lineno, edge))
            edges.add(edge)
            max_node = max(max_node, u, v)
    if max_node < 0:
        raise ValueError("edge list is empty")
    return Graph(N=max_node + 1, edges=edges)
