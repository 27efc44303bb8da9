"""Fingerprint the partition sets, runs and exact encodings of fixed inputs.

    PYTHONPATH=path/to/checkout/src python scripts/fingerprint.py [--quick]
    PYTHONPATH=src python scripts/fingerprint.py [--quick] --against DIR

Prints one line per input: its name and three sha256 digests, of

  * the set: ``cid``, ``rep``, each content's labels and counts, and
    its own margin ids and signatures (``margin_id``, ``margins``);
  * ``json.dumps(run(pset, EngineParams(seed=s)).to_json_dict())``;
  * ``full_description_length`` of that run's clustering.

Run it against two checkouts' ``src`` and ``diff`` the outputs: equal
lines mean the same sets and runs to the bit.  The package comes from
``PYTHONPATH``; only the input generators are read from this
repository's ``perfbench/workloads.py``, so both checkouts cluster the
same inputs.  ``--against DIR`` does both in one command, and is how a
change shows the same sets and runs to the bit as the checkout ``DIR``
(say, a ``git archive`` of its parent commit): it runs this script
again in a child process with ``PYTHONPATH=DIR/src``, alongside its own
run, prints both lines of each input whose digests differ (``<`` this
package's, ``>`` DIR's) and a count, and exits 1 if any differ.

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

A last line, ``omega``, digests ``log2_omega(a, b).hex()`` for a fixed
list of margin pairs, each in both orientations: small pairs within the
exact-count budget, larger ones past it, and 60 pairs of margin
signatures drawn at random (``default_rng(0)``) from the karate club
sampled at beta = m, where most are estimated.  It moves only when a
table count does, whatever the search does.

The set digest reads the set's own margin ids and signatures; until
they moved to the set, it read the same arrays from a ``PairCache``,
so the lines of the older inputs kept their digests.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
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
from partition_modes.tables import log2_omega  # noqa: E402

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


# (rows, cols) within the exact-count budget, then past it
OMEGA_PAIRS = [
    ([2, 3, 5], [4, 6]), ([1] * 7, [3, 2, 2]), ([10], [3, 3, 4]), ([5, 5], [5, 5]),
    ([14, 10, 9, 3, 20, 12, 13], [37, 13, 31]), ([2] * 20, [2] * 20),
    ([60] * 8, [60] * 8), ([19, 23, 26, 32], [25, 25, 25, 25]),
    ([25, 25, 25, 25], [10] * 10), ([3] * 600 + [600] * 3, [3] * 600 + [600] * 3),
]


def omega_line() -> str:
    graph = read_edge_list(DATA / "karate.edges")
    pset = mcmc_sample(graph, S=2000, sweeps_between=5, q_max=10, seed=0,
                       beta=graph.num_edges)
    margins = [list(m) for m in pset.margins]
    drawn = np.random.default_rng(0).integers(len(margins), size=(60, 2)).tolist()
    pairs = OMEGA_PAIRS + [(margins[i], margins[j]) for i, j in drawn]
    return " ".join(["omega", _digest(*(log2_omega(a, b).hex() + log2_omega(b, a).hex()
                                        for a, b in pairs))])


def lines(quick: bool):
    """Every line, computed as it is reached."""
    with tempfile.TemporaryDirectory() as work:
        for name, pset, seed in inputs(quick, Path(work)):
            yield line(name, pset, seed)
    yield omega_line()


def against(quick: bool, other: Path) -> int:
    """Compare this package's lines with those of ``other``'s package,
    computed by a child process of this script; 1 if any differ."""
    child = subprocess.Popen([sys.executable, __file__] + ["--quick"] * quick,
                             env=dict(os.environ, PYTHONPATH=str(other / "src")),
                             stdout=subprocess.PIPE, text=True)
    ours = list(lines(quick))
    theirs = child.communicate()[0].splitlines()
    if child.returncode:
        raise SystemExit("fingerprint.py failed on %s" % other)
    differ = [(a, b) for a, b in itertools.zip_longest(ours, theirs, fillvalue="")
              if a != b]
    for a, b in differ:
        print("<", a)
        print(">", b)
    print("%d of %d lines differ" % (len(differ), max(len(ours), len(theirs))))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="two sub-seeds per workload, no N=2000 input")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="compare with the package in DIR/src, printing "
                             "the lines that differ")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.quick, args.against)
    for text in lines(args.quick):
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
