"""Fingerprint the partition sets, runs and exact encodings of fixed inputs.

    PYTHONPATH=path/to/checkout/src python scripts/fingerprint.py [--quick]

Prints one line per input: its name and three sha256 digests, of

  * the set: ``cid``, ``rep``, each content's labels and counts, and
    its own margin ids and signatures (``margin_id``, ``margins``);
  * ``json.dumps(run(pset, EngineParams(seed=s)).to_json_dict())``;
  * ``full_description_length`` of that run's clustering.

Run it against two checkouts' ``src`` and ``diff`` the outputs: equal
lines mean the same sets and runs to the bit.  The package comes from
``PYTHONPATH``; only the input generators are read from this
repository's ``perfbench/workloads.py``, so both checkouts cluster the
same inputs.

The package adds every float total left to right (``tables._fold``),
not by builtin ``sum`` or a BLAS dot, so the lines also compare across
Python versions and across OpenBLAS kernels (``OPENBLAS_CORETYPE``,
e.g. ``Haswell`` or ``Prescott``).  The exact-encoding digest moved once,
when L1 and L4 stopped being BLAS dot products; the set and run
digests did not.

The inputs: ``distinct_bimodal`` and ``repeated_unimodal`` at sub-seeds
1001-1010, written as the benchmark writes them and read back with
``load_partitions``, each run at its sub-seed; the README's ring
pipeline sample (``mcmc_sample`` of ``ring_of_cliques(8, 6)``, S=2000,
``sweeps_between=5``, beta=200, seed 0); a ``perturb_ensemble`` of two
N=100 bases, 4 groups of 25 and 5 interleaved groups of 20 (weights
0.5, flip rate 0.05, S=300, seed 0); and a perturbed N=2000, S=500
ensemble of 20 groups of 100 (flip rate 0.05, seed 0), where every
Omega is estimated; and two real networks from ``tests/data``, as
``tests/test_real_networks.py`` samples them (``mcmc_sample``, S=2000,
``sweeps_between=5``, ``q_max=10``, seed 0): Zachary's karate club at
beta = 8m and Les Miserables at beta = 16m, m being the edge count,
where a few dozen margin signatures meet.  ``--quick`` keeps sub-seeds
1001-1002 and the real networks, and drops the N=2000 input.

The set digest reads the set's own margin ids and signatures; until
they moved to the set, it read the same arrays from a ``PairCache``,
so the lines of the older inputs kept their digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from partition_modes.engine import EngineParams, run  # noqa: E402
from partition_modes.graphs import read_edge_list, ring_of_cliques  # noqa: E402
from partition_modes.objective import full_description_length  # noqa: E402
from partition_modes.partitions import canonicalize  # noqa: E402
from partition_modes.sampler import (PerturbationSpec, load_partitions,  # noqa: E402
                                     mcmc_sample, perturb_ensemble)

SUB_SEEDS = range(1001, 1011)
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def set_digest(pset) -> str:
    contents = [pset.partitions[r] for r in pset.rep.tolist()]
    return _digest(
        np.asarray(pset.cid, np.int64).tobytes(), np.asarray(pset.rep, np.int64).tobytes(),
        *(np.asarray(p.labels, np.int64).tobytes() + np.asarray(p.counts, np.int64).tobytes()
          for p in contents),
        np.asarray(pset.margin_id, np.int64).tobytes(),
        [tuple(m) for m in pset.margins])


def line(name: str, pset, seed: int) -> str:
    result = run(pset, EngineParams(seed=seed))
    exact = full_description_length(pset, result.clustering)
    return " ".join([name, set_digest(pset),
                     _digest(json.dumps(result.to_json_dict())),
                     _digest(json.dumps(exact, sort_keys=True))])


def inputs(quick: bool, work: Path):
    """(name, set, run seed) per input, built as it is reached."""
    for name in ("distinct_bimodal", "repeated_unimodal"):
        for s in SUB_SEEDS[:2] if quick else SUB_SEEDS:
            path = work / ("%s-%d.txt" % (name, s))
            workloads.write_labels(
                workloads.ENSEMBLES[name](s, workloads.SIZES["full"]), path)
            yield "%s-%d" % (name, s), load_partitions(path), s
    graph, _ = ring_of_cliques(8, 6)
    yield "ring", mcmc_sample(graph, S=2000, sweeps_between=5, beta=200, seed=0), 0
    bases = [(canonicalize(np.repeat(np.arange(4), 25)), 0.5),
             (canonicalize(np.arange(100) % 5), 0.5)]
    spec = PerturbationSpec(bases=bases, node_flip_rate=0.05, S=300, seed=0)
    yield "perturbed", perturb_ensemble(spec)[0], 0
    for name, beta_per_edge in (("karate", 8), ("lesmis", 16)):
        graph = read_edge_list(DATA / (name + ".edges"))
        yield name, mcmc_sample(graph, S=2000, sweeps_between=5, q_max=10, seed=0,
                                beta=beta_per_edge * graph.num_edges), 0
    if not quick:
        base = canonicalize(np.repeat(np.arange(20), 100))
        spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.05, S=500, seed=0)
        yield "n2000", perturb_ensemble(spec)[0], 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="two sub-seeds per workload, no N=2000 input")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for name, pset, seed in inputs(args.quick, Path(work)):
            print(line(name, pset, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
