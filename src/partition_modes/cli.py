"""Command-line interface: generate graphs, sample or ingest partition
ensembles, cluster them into representative modes, and report objective
breakdowns."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graphs, sampler
from .cache import PairCache, _members
from .engine import EngineParams, run
from .fileio import atomic_text_file
from .objective import (Clustering, _penalty, description_length,
                        full_description_length)
from .partitions import PartitionSet, canonicalize


def cmd_generate(args) -> int:
    if args.kind == "planted":
        graph, truth = graphs.planted_partition(args.n, args.q, args.pin,
                                                args.pout, seed=args.seed)
    elif args.kind == "sbm":
        sizes = [int(s) for s in args.sizes.split(",")]
        graph, truth = graphs.sbm(sizes, json.loads(args.omega), seed=args.seed)
    else:
        graph, truth = graphs.ring_of_cliques(args.cliques, args.size)
    graphs.write_edge_list(graph, args.out + ".edges")
    sampler.write_partitions(PartitionSet.from_partitions([truth]), args.out + ".truth")
    print("nodes %d edges %d" % (graph.N, graph.num_edges))
    return 0


def cmd_sample(args) -> int:
    graph = graphs.read_edge_list(args.graph)
    pset = sampler.mcmc_sample(graph, S=args.s, sweeps_between=args.sweeps_between,
                               beta=args.beta, q_max=args.qmax, seed=args.seed)
    sampler.write_partitions(pset, args.out)
    print("wrote %d partitions of %d nodes to %s" % (pset.S, pset.N, args.out))
    return 0


def _agreement_table(clustering: Clustering, cache: PairCache) -> np.ndarray:
    """Per node and cluster: fraction of the cluster's partitions whose
    community (mapped onto the mode by maximum overlap) matches the
    mode's label at that node."""
    agree = np.zeros((cache.pset.N, clustering.K))
    for k, m in enumerate(clustering.mode_index):
        reps, copies = _members(clustering.members(k), cache).candidates()
        labels = cache._labels[cache.cid[reps]]
        for lo, t in cache._tables(cache.cid[m], cache.cid[reps]):
            # sample community -> mode community, read at each node
            mapped = np.take_along_axis(t.argmax(axis=1), labels[lo:lo + len(t)], 1)
            hits = mapped == cache.pset.partitions[m].labels
            agree[:, k] += copies[lo:lo + len(t)] @ hits
        agree[:, k] /= copies.sum()
    return agree


def cmd_cluster(args) -> int:
    pset = sampler.load_partitions(args.partitions)
    params = EngineParams(lam=args.lam, k0=args.k0,
                          mode_sample_size=args.sample_size,
                          patience=args.patience, seed=args.seed,
                          restarts=args.restarts)
    cache = PairCache(pset)
    result = run(pset, params, cache=cache)
    data = result.to_json_dict()
    if args.out:
        with atomic_text_file(args.out) as fh:
            fh.write(json.dumps(data, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print("K = %d" % result.clustering.K)
        print("weights = %s" % " ".join("%.4f" % w for w in result.weights))
        print("description length = %.4f bits" % result.breakdown.total)
    if args.modes_out:
        for k, mode in enumerate(result.modes):
            sampler.write_partitions(PartitionSet.from_partitions([mode]),
                                     "%s.mode%d.txt" % (args.modes_out, k))
    if args.agreement_out:
        agree = _agreement_table(result.clustering, cache)
        header = "node\t" + "\t".join("mode%d" % k for k in range(result.clustering.K))
        lines = [header] + ["%d\t%s" % (i, "\t".join("%.4f" % a for a in row))
                            for i, row in enumerate(agree)]
        with atomic_text_file(args.agreement_out) as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _int_list(values, what: str) -> list[int]:
    """``values`` if it is a list of JSON integers within int64: no float,
    string or bool."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError("%s must be a list of integers" % what)
    if not all(-2 ** 63 <= v < 2 ** 63 for v in values):
        raise ValueError("%s holds an integer past int64" % what)
    return values


def cmd_describe(args) -> int:
    pset = sampler.load_partitions(args.partitions)
    with open(args.clustering) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the result JSON is not an object")
    if type(data["K"]) is not int:
        raise ValueError("K must be an integer")
    assignment = _int_list(data["assignment"], "assignment")
    clustering = Clustering(assignment=np.array(assignment, dtype=np.int64),
                            mode_index=_int_list(data["mode_index"], "mode_index"),
                            K=data["K"])
    clustering.validate(pset)
    if not isinstance(data["modes"], list):
        raise ValueError("modes must be a list")
    if len(data["modes"]) != clustering.K:
        raise ValueError("the result lists %d modes for K = %d"
                         % (len(data["modes"]), clustering.K))
    for k, m in enumerate(clustering.mode_index):
        stored = canonicalize(_int_list(data["modes"][k], "mode %d" % k))
        if stored != pset.partitions[m]:
            raise ValueError("mode %d does not match the ensemble" % k)
    lam = _penalty(args.lam if args.lam is not None else data.get("lambda", 1.0),
                   "lambda must be a finite non-negative number")
    cache = PairCache(pset)
    breakdown = description_length(pset, clustering, lam=lam, cache=cache)
    exact = full_description_length(pset, clustering, cache=cache)
    print(json.dumps({"objective": breakdown.to_json_dict(),
                      "exact_encoding": exact}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-modes",
        description="Cluster an ensemble of network partitions into "
                    "representative modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic benchmark graph")
    gensub = gen.add_subparsers(dest="kind", required=True)
    planted = gensub.add_parser("planted")
    planted.add_argument("--n", type=int, required=True)
    planted.add_argument("--q", type=int, required=True)
    planted.add_argument("--pin", type=float, required=True)
    planted.add_argument("--pout", type=float, required=True)
    planted.add_argument("--seed", type=int, default=0)
    sbm_p = gensub.add_parser("sbm")
    sbm_p.add_argument("--sizes", required=True, help="comma-separated group sizes")
    sbm_p.add_argument("--omega", required=True,
                       help="mixing matrix as a JSON array of rows")
    sbm_p.add_argument("--seed", type=int, default=0)
    cliques = gensub.add_parser("cliques")
    cliques.add_argument("--cliques", type=int, required=True)
    cliques.add_argument("--size", type=int, required=True)
    for p in (planted, sbm_p, cliques):
        p.add_argument("--out", required=True,
                       help="output prefix for .edges and .truth files")
        p.set_defaults(func=cmd_generate)

    smp = sub.add_parser("sample", help="sample partitions of a graph by "
                                        "modularity-weighted Metropolis")
    smp.add_argument("--graph", required=True)
    smp.add_argument("--s", type=int, required=True, help="number of samples")
    smp.add_argument("--sweeps-between", type=int, default=1)
    smp.add_argument("--beta", type=float, default=1.0,
                     help="multiplies modularity in the weight exp(beta Q); "
                          "a useful beta is of the order of the edge count "
                          "m (default: 1.0)")
    smp.add_argument("--qmax", type=int, default=10)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", required=True)
    smp.set_defaults(func=cmd_sample)

    clu = sub.add_parser("cluster", help="find representative modes of an ensemble")
    clu.add_argument("--partitions", required=True,
                     help="one partition per line, one integer label per node")
    clu.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="penalty per cluster (default: 1.0)")
    clu.add_argument("--k0", type=int, default=1,
                     help="clusters of the random starting division "
                          "(default: 1)")
    clu.add_argument("--sample-size", type=int, default=30,
                     help="members each mode search scores against; at or "
                          "above a cluster's size the search is exact "
                          "(default: 30)")
    clu.add_argument("--patience", type=int, default=100,
                     help="stop after this many rejected moves in a row "
                          "(default: 100)")
    clu.add_argument("--seed", type=int, default=0,
                     help="random seed; one seed gives one result "
                          "(default: 0)")
    clu.add_argument("--restarts", type=int, default=1,
                     help="independent runs, seeds seed, seed+1, ...; the "
                          "lowest description length wins (default: 1)")
    clu.add_argument("--out", help="write the full result JSON here")
    clu.add_argument("--format", choices=("json", "text"), default="text",
                     help="text: K, weights and description length; json: "
                          "the full result (default: text)")
    clu.add_argument("--modes-out", help="prefix for per-mode partition files")
    clu.add_argument("--agreement-out", help="per-node agreement table (TSV)")
    clu.set_defaults(func=cmd_cluster)

    desc = sub.add_parser("describe", help="objective breakdown for a stored "
                                           "clustering")
    desc.add_argument("--partitions", required=True)
    desc.add_argument("--clustering", required=True, help="result JSON from "
                                                          "'cluster'")
    desc.add_argument("--lambda", dest="lam", type=float, default=None,
                      help="penalty per cluster (default: the value stored "
                           "in the clustering JSON)")
    desc.set_defaults(func=cmd_describe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
