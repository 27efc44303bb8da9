"""Two small real networks, read from the static files in ``tests/data``:
Zachary's karate club and the Les Miserables coappearance network, both
written from networkx's bundled copies with their edge weights dropped
(see each file's comment lines).  Sampled at a β of the order of the
edge count m, their ensembles have a few dozen margin signatures, the
many-signature regime that synthetic ensembles of one or two bases do
not reach."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from partition_modes import (EngineParams, PairCache, description_length,
                             load_partitions, mcmc_sample, read_edge_list, run)

DATA = Path(__file__).parent / "data"

# (file, nodes, edges, β / m): β multiplies modularity, and one node move
# changes modularity by about its degree over m
NETWORKS = [("karate.edges", 34, 78, 8), ("lesmis.edges", 77, 254, 16)]

# run(seed=0) on each sample, frozen: K, the weights to 4 places, each
# mode's community sizes and the tracked total by float.hex()
FROZEN = {
    "karate.edges": (1, [1.0], [[11, 5, 11, 1, 6]], "0x1.790b1bcdcddf6p+4"),
    "lesmis.edges": (2, [0.4755, 0.5245], [[12, 17, 14, 12, 6, 16], [12, 15, 16, 12, 6, 16]],
                     "0x1.162851d174ff7p+6"),
}


@functools.cache
def _sampled(name, beta_per_edge):
    graph = read_edge_list(DATA / name)
    pset = mcmc_sample(graph, S=2000, sweeps_between=5,
                       beta=beta_per_edge * graph.num_edges, q_max=10, seed=0)
    return graph, pset, run(pset, EngineParams(seed=0))


@pytest.mark.parametrize("name, N, m, beta_per_edge", NETWORKS)
def test_real_network_runs_the_same_twice(name, N, m, beta_per_edge):
    graph, pset, result = _sampled(name, beta_per_edge)
    assert (graph.N, graph.num_edges) == (N, m)
    # the search's tracked total is the description length from scratch
    cache = PairCache(pset)
    fresh = description_length(pset, result.clustering, cache=cache)
    assert fresh.total == pytest.approx(result.trace[-1][3], abs=1e-9)
    # and a second run, on a cache that already holds values, is the same
    again = run(pset, EngineParams(seed=0), cache=cache)
    assert json.dumps(again.to_json_dict()) == json.dumps(result.to_json_dict())
    assert (result.clustering.K, [round(float(w), 4) for w in result.weights],
            [p.counts.tolist() for p in result.modes],
            float(result.trace[-1][3]).hex()) == FROZEN[name]


def test_karate_mode_agrees_with_the_factions():
    # each community of the mode lies within one faction, but for one node
    _, _, result = _sampled(*NETWORKS[0][::3])
    factions = load_partitions(DATA / "karate.truth").partitions[0].labels
    mode, = result.modes
    table = np.zeros((mode.n, 2), dtype=np.int64)
    np.add.at(table, (mode.labels, factions), 1)
    assert int(table.max(axis=1).sum()) == 33


def test_karate_truth_is_the_two_factions():
    truth = load_partitions(DATA / "karate.truth")
    assert (truth.S, truth.N) == (1, 34)
    assert truth.partitions[0].counts.tolist() == [17, 17]
