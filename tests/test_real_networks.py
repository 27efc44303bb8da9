"""Two small real networks, read from the static files in ``tests/data``:
Zachary's karate club and the Les Miserables coappearance network, both
written from networkx's bundled copies with their edge weights dropped
(see each file's comment lines).  Sampled at a β of the order of the
edge count m, their ensembles have a few dozen margin signatures, the
many-signature regime that synthetic ensembles of one or two bases do
not reach."""

import json
from pathlib import Path

import pytest

from partition_modes import (EngineParams, PairCache, description_length,
                             load_partitions, mcmc_sample, read_edge_list, run)

DATA = Path(__file__).parent / "data"

# (file, nodes, edges, β / m): β multiplies modularity, and one node move
# changes modularity by about its degree over m
NETWORKS = [("karate.edges", 34, 78, 8), ("lesmis.edges", 77, 254, 16)]


@pytest.mark.parametrize("name, N, m, beta_per_edge", NETWORKS)
def test_real_network_runs_the_same_twice(name, N, m, beta_per_edge):
    graph = read_edge_list(DATA / name)
    assert (graph.N, graph.num_edges) == (N, m)
    pset = mcmc_sample(graph, S=2000, sweeps_between=5,
                       beta=beta_per_edge * m, q_max=10, seed=0)
    result = run(pset, EngineParams(seed=0))
    # the search's tracked total is the description length from scratch
    cache = PairCache(pset)
    fresh = description_length(pset, result.clustering, cache=cache)
    assert fresh.total == pytest.approx(result.trace[-1][3], abs=1e-9)
    # and a second run, on a cache that already holds values, is the same
    again = run(pset, EngineParams(seed=0), cache=cache)
    assert json.dumps(again.to_json_dict()) == json.dumps(result.to_json_dict())


def test_karate_truth_is_the_two_factions():
    truth = load_partitions(DATA / "karate.truth")
    assert (truth.S, truth.N) == (1, 34)
    assert truth.partitions[0].counts.tolist() == [17, 17]
