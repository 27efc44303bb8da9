import os
import threading

import numpy as np
import pytest

from partition_modes import (Graph, planted_partition, read_edge_list,
                             ring_of_cliques, sbm, write_edge_list)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(N=3, edges={(1, 1)})
    with pytest.raises(ValueError, match="out of range"):
        Graph(N=3, edges={(0, 5)})
    # one pair written both ways would be two edges of a multigraph
    for edges in ({(1, 0)}, {(0, 1), (1, 0)}):
        with pytest.raises(ValueError, match=r"edge \(1, 0\) is not written u < v"):
            Graph(N=3, edges=edges)
    # write_edge_list would write (0.5, 1) as "0 1", a different graph
    for N, edges in ((3, {(0.5, 1), (1, 2)}), (2.5, {(0, 1)})):
        with pytest.raises(ValueError, match="must be integers"):
            Graph(N=N, edges=edges)
    with pytest.raises(ValueError, match="negative node count"):
        Graph(N=-1, edges=set())


def test_ring_of_cliques_paper_instance():
    graph, truth = ring_of_cliques(8, 6)
    assert graph.N == 48
    assert graph.num_edges == 128
    assert truth.n == 8
    assert list(truth.counts) == [6] * 8


def test_ring_of_cliques_small_instances():
    graph, _ = ring_of_cliques(3, 2)
    assert graph.N == 6 and graph.num_edges == 6
    graph, _ = ring_of_cliques(4, 2)
    degrees = np.zeros(graph.N, dtype=int)
    for u, v in graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert set(degrees) == {2}


def test_ring_of_cliques_connected():
    graph, _ = ring_of_cliques(5, 4)
    adj = {i: set() for i in range(graph.N)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert len(seen) == graph.N


def test_ring_of_cliques_parameter_bounds():
    with pytest.raises(ValueError):
        ring_of_cliques(2, 6)
    with pytest.raises(ValueError):
        ring_of_cliques(4, 1)


def test_planted_partition_basics():
    graph, truth = planted_partition(100, 4, 0.25, 0.02, seed=0)
    assert graph.N == 100
    assert truth.n == 4 and list(truth.counts) == [25] * 4
    empty, _ = planted_partition(20, 2, 0.0, 0.0)
    assert empty.num_edges == 0
    forced, _ = planted_partition(4, 2, 1.0, 0.0)
    assert forced.edges == {(0, 1), (2, 3)}
    with pytest.raises(ValueError, match="divide"):
        planted_partition(10, 3, 0.1, 0.1)


def test_planted_partition_edge_count_concentration():
    # expected 4*C(25,2)*0.25 + (C(100,2)-4*C(25,2))*0.02 = 375
    expect = 4 * 300 * 0.25 + (4950 - 1200) * 0.02
    var = 4 * 300 * 0.25 * 0.75 + (4950 - 1200) * 0.02 * 0.98
    sigma = np.sqrt(var)
    for seed in range(5):
        graph, _ = planted_partition(100, 4, 0.25, 0.02, seed=seed)
        assert abs(graph.num_edges - expect) <= 4 * sigma


def test_planted_partition_deterministic():
    a, _ = planted_partition(50, 2, 0.3, 0.05, seed=11)
    b, _ = planted_partition(50, 2, 0.3, 0.05, seed=11)
    assert a.edges == b.edges


def test_sbm_validation_and_edges():
    with pytest.raises(ValueError, match="dimension"):
        sbm([10, 10], np.ones((3, 3)) * 0.1)
    with pytest.raises(ValueError, match="symmetric"):
        sbm([5, 5], np.array([[0.1, 0.2], [0.3, 0.1]]))
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        sbm([5, 5], np.array([[1.5, 0.1], [0.1, 0.2]]))
    for omega in ({"a": 1}, [[0.5, 0.1], [0.1]], [[0.5, "x"], ["x", 0.5]]):
        with pytest.raises(ValueError, match="mixing matrix must be an array of numbers"):
            sbm([3, 3], omega)
    empty, _ = sbm([5, 5], np.zeros((2, 2)))
    assert empty.num_edges == 0
    lonely, _ = sbm([1, 1, 1], np.eye(3))
    assert lonely.num_edges == 0
    # a size is not truncated: [2.7, 2] would build a 2-node first group
    for sizes in ([2.7, 2], [2, float("nan")], [float("inf")], [1e300], ["2", 2],
                  [None], np.array([1.5, 2.0])):
        with pytest.raises(ValueError, match="group sizes must be integers"):
            sbm(sizes, np.eye(len(sizes)))
    for sizes in ([-1, 3], [2.0, -2.0]):
        with pytest.raises(ValueError, match="group sizes must be non-negative"):
            sbm(sizes, np.eye(2))
    # integral floats and NumPy integers are sizes
    _, truth = sbm([2.0, np.int64(3), np.uint8(0), 1], np.eye(4))
    assert truth.counts.tolist() == [2, 3, 1]
    _, truth = planted_partition(4.0, 2, 1.0, 0.0)
    assert truth.counts.tolist() == [2, 2]


def test_sbm_nested_instance_edge_count():
    # three groups of 33 with strong/medium/background mixing
    p_s, p_m, p_b = 0.27, 0.08, 0.01
    omega = np.array([[p_s, p_m, p_b], [p_m, p_s, p_b], [p_b, p_b, p_s]])
    within = 3 * (33 * 32 // 2)
    expect = within * p_s + 33 * 33 * p_m + 2 * 33 * 33 * p_b
    counts = [sbm([33, 33, 33], omega, seed=s)[0].num_edges for s in range(5)]
    sigma = np.sqrt(within * p_s * (1 - p_s) + 33 * 33 * p_m * (1 - p_m)
                    + 2 * 33 * 33 * p_b * (1 - p_b))
    for c in counts:
        assert abs(c - expect) <= 4 * sigma


def test_edge_list_round_trip(tmp_path):
    graph, _ = planted_partition(60, 3, 0.2, 0.05, seed=4)
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert back.edges == graph.edges
    assert back.N == graph.N


@pytest.mark.parametrize("graph", [Graph(N=5, edges={(0, 1), (1, 2)}),
                                   Graph(N=4, edges=set())])
def test_edge_list_round_trip_keeps_isolated_nodes(tmp_path, graph):
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert back.N == graph.N and back.edges == graph.edges


def test_edge_list_reads_a_pipe_once(tmp_path):
    # a pipe yields its data once: a header read that opened the path on
    # its own took the edges with it, and a second open read none
    graph, _ = ring_of_cliques(8, 6)
    source, fifo = tmp_path / "g.edges", tmp_path / "fifo"
    write_edge_list(graph, source)
    os.mkfifo(fifo)
    done = threading.Event()

    def feed():
        with open(fifo, "w") as fh:
            fh.write(source.read_text())
        # a reader that opens the pipe again gets end of file, not a hang
        while not done.wait(0.01):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:     # no reader waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        back = read_edge_list(fifo)
    finally:
        done.set()
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert graph.num_edges == 128
    assert back.N == graph.N and back.edges == graph.edges


def test_edge_list_parse_basic(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\n0 1\n1 2\n")
    graph = read_edge_list(path)
    assert graph.N == 3 and graph.num_edges == 2


@pytest.mark.parametrize("text,msg", [
    ("0 1\n0 1\n", "line 2: duplicate"),
    ("0 1\n2\n", "line 2: expected two"),
    ("0 x\n", "line 1: non-integer"),
    ("3 3\n", "line 1: self-loop"),
    ("-1 2\n", "line 1: negative"),
    ("# 3 nodes, 1 edges\n0 1\n1 3\n", "line 3: node id past the 3 nodes"),
    ("", "empty"),
    ("0 99999999999999999999\n", "line 1: node id out of range"),
    # a line of three tokens fails on its values first
    ("0 x y\n", "line 1: non-integer node id"),
])
def test_edge_list_parse_errors(tmp_path, text, msg):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        read_edge_list(path)


def test_graph_json():
    graph, _ = ring_of_cliques(3, 2)
    data = graph.to_json_dict()
    assert data["N"] == 6
    assert len(data["edges"]) == 6
    assert data["edges"] == sorted(data["edges"])
