"""Synthetic network construction and edge-list I/O."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_text_file, int_lines
from .partitions import Partition, _int64_values, _ints, canonicalize


@dataclass
class Graph:
    """Simple undirected graph: nodes 0..N-1 for an integer N >= 0, edges
    as integer pairs (u, v) with u < v, so no pair is stored twice; any
    other N or edge raises ValueError."""

    N: int
    edges: set

    def __post_init__(self):
        # chained lazily, so edges that are not iterable fail inside _ints too
        _ints(itertools.chain.from_iterable(itertools.chain([[self.N]], self.edges)),
              "node count and endpoints must be integers")
        if self.N < 0:
            raise ValueError("negative node count")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop (%d, %d)" % (u, v))
            if u > v:
                raise ValueError("edge (%d, %d) is not written u < v" % (u, v))
            if not (0 <= u < self.N and 0 <= v < self.N):
                raise ValueError("edge endpoint out of range: (%d, %d)" % (u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {"N": self.N, "edges": [[int(u), int(v)] for u, v in sorted(self.edges)]}


def planted_partition(N: int, q: int, p_in: float, p_out: float,
                      seed: int = 0) -> tuple[Graph, Partition]:
    """Symmetric stochastic block model: N nodes split equally into q
    groups, edge probability p_in within groups and p_out between."""
    q, = _ints([q], "group count must be an integer")
    if q < 1 or N % q != 0:
        raise ValueError("group count must divide node count")
    return sbm([N // q] * q, np.where(np.eye(q, dtype=bool), p_in, p_out), seed)


def sbm(group_sizes, omega: np.ndarray, seed: int = 0) -> tuple[Graph, Partition]:
    """General stochastic block model with mixing matrix ``omega``:
    each pair i < j gets an edge with probability omega[g_i][g_j]."""
    sizes = _int64_values(group_sizes, "group sizes")
    seed, = _ints([seed], "seed must be an integer")
    if np.any(sizes < 0):
        raise ValueError("group sizes must be non-negative")
    try:
        omega = np.asarray(omega, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("mixing matrix must be an array of numbers") from None
    if omega.shape != (len(sizes), len(sizes)):
        raise ValueError("mixing matrix dimension does not match group count")
    if not np.all((omega >= 0) & (omega <= 1)):   # also rejects NaN
        raise ValueError("mixing probabilities must be in [0, 1]")
    if not np.allclose(omega, omega.T):
        raise ValueError("mixing matrix must be symmetric")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    N = int(labels.size)
    iu, ju = np.triu_indices(N, k=1)
    mask = np.random.default_rng(seed).random(iu.size) < omega[labels[iu], labels[ju]]
    edges = {(int(u), int(v)) for u, v in zip(iu[mask], ju[mask])}
    return Graph(N=N, edges=edges), canonicalize(labels)


def ring_of_cliques(num_cliques: int, clique_size: int) -> tuple[Graph, Partition]:
    """``num_cliques`` complete subgraphs of ``clique_size`` nodes each,
    with node 0 of clique i joined to node 1 of clique i+1 (mod ring).

    The ring leaves each clique at node 0 and enters at node 1, so no
    node carries more than one ring edge."""
    num_cliques, clique_size = _ints((num_cliques, clique_size),
                                     "clique count and size must be integers")
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
    """Canonical text output: a '# N nodes, E edges' header, then one
    'u v' pair per line, sorted, u < v.  Written atomically: a failure
    leaves no partial file."""
    with atomic_text_file(path) as fh:
        fh.write("# %d nodes, %d edges\n" % (graph.N, graph.num_edges))
        for u, v in sorted(graph.edges):
            fh.write("%d %d\n" % (u, v))


_HEADER = re.compile(r"#\s*(\d+) nodes, \d+ edges")


def read_edge_list(path) -> Graph:
    """Parse an edge list, one 'u v' pair per line in the line format of
    ``fileio.int_lines``.  A first line '# N nodes, E edges', as
    ``write_edge_list`` writes, gives the node count, so isolated nodes
    survive a round trip; without it the count is the largest id + 1.
    Duplicate edges, self-loops, negative ids, ids past the header's count
    and lines of other than two ids are errors."""
    with open(path) as fh:
        header = _HEADER.fullmatch(fh.readline().strip())
    N = int(header.group(1)) if header else None
    edges = set()
    for lineno, ids in int_lines(path, "node id"):
        if len(ids) != 2:
            raise ValueError("line %d: expected two node ids" % lineno)
        u, v = edge = tuple(sorted(ids.tolist()))
        if u < 0:
            raise ValueError("line %d: negative node id" % lineno)
        if N is not None and v >= N:
            raise ValueError("line %d: node id past the %d nodes of the header"
                             % (lineno, N))
        if u == v:
            raise ValueError("line %d: self-loop" % lineno)
        if edge in edges:
            raise ValueError("line %d: duplicate edge %s" % (lineno, edge))
        edges.add(edge)
    if N is None:
        if not edges:
            raise ValueError("edge list is empty")
        N = max(v for _, v in edges) + 1
    return Graph(N=N, edges=edges)
