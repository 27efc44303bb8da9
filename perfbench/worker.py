"""One repetition of a library workload, run in a fresh interpreter.

    python3 perfbench/worker.py setup --input F --summary J
    python3 perfbench/worker.py rep   --workload W --seed N --input F
                                      --out R --summary J [--trace SPANS]

``setup`` only loads the ensemble and builds the cache.  ``rep`` does
the same, then makes the workload's ``run()`` calls on that cache and
writes each result as the ``cluster`` command would; then, for each
result, computes what ``describe`` computes (the objective on a fresh
``PairCache`` and the exact encoding); then runs the fixed-work
Metropolis sampler on the ring of cliques and writes its samples to
``R.sampled.txt``.
The summary J holds each step's timing.  ``--trace`` installs the span
wrappers first and writes the spans to SPANS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _modules(trace_path):
    import partition_modes.cache
    import partition_modes.engine
    import partition_modes.graphs
    import partition_modes.objective
    import partition_modes.partitions
    import partition_modes.sampler
    if trace_path:
        import tracing
        tracing.install()
    import partition_modes as pm
    return pm


def _sample(args, pm, path):
    import workloads
    graph, _ = pm.graphs.ring_of_cliques(workloads.RING_CLIQUES,
                                         workloads.RING_CLIQUE_SIZE)
    pset = pm.sampler.mcmc_sample(graph, seed=args.seed, **workloads.MCMC)
    pm.sampler.write_partitions(pset, path)


def cmd_setup(args, pm):
    pset = pm.sampler.load_partitions(args.input)
    pm.cache.PairCache(pset)
    return {"t_ready": time.monotonic()}


def cmd_rep(args, pm):
    import workloads
    pset = pm.sampler.load_partitions(args.input)
    cache = pm.cache.PairCache(pset)
    summary = {"t_ready": time.monotonic(), "runs": []}
    results = []
    for k, lam in enumerate(workloads.LAMBDAS[args.workload]):
        params = pm.engine.EngineParams(lam=lam, seed=args.seed)
        t0 = time.perf_counter()
        result = pm.engine.run(pset, params, cache=cache)
        cluster_s = time.perf_counter() - t0
        path = "%s.lam%d.json" % (args.out, k)
        with open(path, "w") as fh:
            json.dump(result.to_json_dict(), fh)
        results.append(result)
        summary["runs"].append({"lam": lam, "cluster_s": cluster_s,
                                "result": os.path.basename(path)})
    t0 = time.perf_counter()
    for run, result in zip(summary["runs"], results):
        fresh = pm.objective.description_length(
            pset, result.clustering, lam=run["lam"], cache=pm.cache.PairCache(pset))
        pm.objective.full_description_length(pset, result.clustering)
        run["recomputed_dl"] = fresh.total
    summary["describe_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    _sample(args, pm, args.out + ".sampled.txt")
    summary["sample_s"] = time.perf_counter() - t0
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "rep"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input")
    parser.add_argument("--out")
    parser.add_argument("--summary", help="write the step's timings here")
    parser.add_argument("--trace", help="record spans and write them here")
    args = parser.parse_args(argv)
    pm = _modules(args.trace)
    summary = {"setup": cmd_setup, "rep": cmd_rep}[args.step](args, pm)
    if args.trace:
        import tracing
        tracing.dump(args.trace)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary or {}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
