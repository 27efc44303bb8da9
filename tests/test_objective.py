import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partition_modes
from partition_modes import (Clustering, EngineParams, PairCache,
                             PartitionSet, canonicalize,
                             cluster_label_entropy, contingency_table,
                             description_length, full_description_length,
                             log2_omega, run, tables)
from partition_modes import cache as cache_module
from partition_modes.cli import cmd_describe
from partition_modes.tables import (DEFAULT_MAX_COST, _clean_margins,
                                    _exact_orientation, _log2_binom)
from partition_modes.sampler import PerturbationSpec, perturb_ensemble

from conftest import random_partition


def test_cluster_label_entropy_examples():
    assert cluster_label_entropy([5000, 5000], 10000) == pytest.approx(1.0)
    assert cluster_label_entropy([10000], 10000) == 0.0
    assert cluster_label_entropy([7500, 2500], 10000) == pytest.approx(0.8113, abs=1e-4)


def test_cluster_label_entropy_validation():
    with pytest.raises(ValueError):
        cluster_label_entropy([5, 4], 10)
    with pytest.raises(ValueError):
        cluster_label_entropy([10, 0], 10)


def _uniform_clustering(S):
    return Clustering(assignment=np.zeros(S, dtype=np.int64), mode_index=[0], K=1)


def test_description_length_worked_example():
    half = canonicalize(np.repeat([0, 1], 50))
    pset = PartitionSet.from_partitions([half] * 100)
    bd = description_length(pset, _uniform_clustering(100), lam=1.0)
    assert bd.mode_entropy_term == pytest.approx(1.0)
    assert bd.cluster_label_term == 0.0
    assert bd.conditional_term == pytest.approx(math.log2(51))
    assert bd.penalty_term == 1.0
    assert bd.total == pytest.approx(7.672, abs=1e-3)
    assert list(bd.weights) == [1.0]


def test_total_affine_in_lambda():
    rng = np.random.default_rng(0)
    parts = [random_partition(30, 4, rng) for _ in range(20)]
    pset = PartitionSet.from_partitions(parts)
    assignment = np.array([0] * 10 + [1] * 10)
    clustering = Clustering(assignment=assignment, mode_index=[0, 10], K=2)
    t0 = description_length(pset, clustering, lam=0.0).total
    t1 = description_length(pset, clustering, lam=1.0).total
    t3 = description_length(pset, clustering, lam=3.0).total
    assert t1 - t0 == pytest.approx(clustering.K)
    assert t3 - t0 == pytest.approx(3 * clustering.K)


def test_total_invariant_under_cluster_relabeling():
    rng = np.random.default_rng(1)
    parts = [random_partition(25, 3, rng) for _ in range(16)]
    pset = PartitionSet.from_partitions(parts)
    assignment = np.array([0] * 8 + [1] * 8)
    a = description_length(pset, Clustering(assignment, [0, 8], 2), lam=1.0)
    swapped = 1 - assignment
    b = description_length(pset, Clustering(swapped, [8, 0], 2), lam=1.0)
    assert a.total == pytest.approx(b.total)


def test_clustering_validation():
    rng = np.random.default_rng(2)
    pset = PartitionSet.from_partitions([random_partition(10, 3, rng)
                                         for _ in range(6)])
    with pytest.raises(ValueError, match="non-empty"):
        description_length(pset, Clustering(np.zeros(6, dtype=np.int64), [0, 1], 2))
    for ids in ([0, 0, 0, 1, 1, 2], [0, 0, 0, 1, 1, -1]):
        with pytest.raises(ValueError, match="cluster id out of range"):
            description_length(pset, Clustering(np.array(ids), [0, 3], 2))
    # non-integer types reach numpy's bincount or indexing otherwise
    with pytest.raises(ValueError, match="cluster ids must be integers"):
        description_length(pset, Clustering(np.array([0., 0, 0, 1, 1, 1]), [0, 3], 2))
    for modes, K in (([0, 3.0], 2), ([0, np.float64(3)], 2), ([0, 3], 2.0)):
        with pytest.raises(ValueError, match="must be integers"):
            full_description_length(
                pset, Clustering(np.array([0, 0, 0, 1, 1, 1]), modes, K))
    description_length(pset, Clustering(np.array([0, 0, 0, 1, 1, 1], np.uint8),
                                        [np.int64(0), 3], 2))
    bad_mode = Clustering(np.array([0, 0, 0, 1, 1, 1]), [0, 0], 2)
    with pytest.raises(ValueError, match="not a member"):
        description_length(pset, bad_mode)
    # math.isfinite raised TypeError on a string or None; a bool is a flag
    for lam in (-0.5, "1", None, True, np.True_):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            description_length(pset, _uniform_clustering(6), lam=lam)


def test_clustering_validation_refuses_an_assignment_that_is_no_array():
    # a list reached ``.shape`` and raised AttributeError
    pset = PartitionSet.from_partitions([canonicalize(np.arange(4) % 2)] * 3)
    for assignment in ([0, 0, 0], (0, 0, 0), None):
        with pytest.raises(ValueError, match="cluster ids must be integers"):
            description_length(pset, Clustering(assignment=assignment, mode_index=[0], K=1))
    description_length(pset, Clustering(np.zeros(3, dtype=np.int64), [0], 1))


def _engine_lambda(lam, tmp_path, capsys):
    return EngineParams(lam=lam).lam


def _objective_lambda(lam, tmp_path, capsys):
    pset = PartitionSet.from_partitions([canonicalize([0, 0, 1, 1])] * 3)
    return description_length(pset, _uniform_clustering(3), lam=lam).penalty_term


def _describe_lambda(lam, tmp_path, capsys):
    # the --lambda value; None, which means "no flag", as a stored null
    parts, result = tmp_path / "p.txt", tmp_path / "r.json"
    parts.write_text("0 0 1 1\n" * 3)
    result.write_text(json.dumps({"K": 1, "assignment": [0, 0, 0], "mode_index": [0],
                                  "modes": [[0, 0, 1, 1]],
                                  "lambda": None if lam is None else 1.0}))
    cmd_describe(argparse.Namespace(partitions=str(parts), clustering=str(result),
                                    lam=lam))
    return json.loads(capsys.readouterr().out)["objective"]["penalty"]


@pytest.mark.parametrize("site, message", [
    (_engine_lambda, "invalid engine parameters"),
    (_objective_lambda, "penalty weight must be finite and non-negative"),
    (_describe_lambda, "lambda must be a finite non-negative number")],
    ids=["engine", "objective", "describe"])
def test_one_lambda_rule(site, message, tmp_path, capsys):
    # an int past the float range raised OverflowError out of math.isfinite
    for lam in (10 ** 400, True, np.True_, "1", None, math.inf, math.nan, -1):
        with pytest.raises(ValueError, match=message):
            site(lam, tmp_path, capsys)
    # a float32 λ comes back as a float64, so no total is rounded to float32
    got = site(np.float32(0.5), tmp_path, capsys)
    assert type(got) is float and got == 0.5


def test_breakdown_json_fields():
    pset = PartitionSet.from_partitions([canonicalize([0, 0, 1, 1])] * 3)
    bd = description_length(pset, _uniform_clustering(3), lam=2.0)
    data = bd.to_json_dict()
    assert set(data) == {"mode_entropy", "cluster_labels", "conditional",
                         "penalty", "total", "weights"}
    assert data["total"] == pytest.approx(
        data["mode_entropy"] + data["cluster_labels"]
        + data["conditional"] + data["penalty"])
    assert sum(data["weights"]) == pytest.approx(1.0)


def test_exact_encoding_single_partition_example():
    p = canonicalize([0, 0, 1, 1])
    pset = PartitionSet.from_partitions([p])
    enc = full_description_length(pset, _uniform_clustering(1))
    assert enc["L1"] == pytest.approx(math.log2(3))
    assert enc["L2"] == pytest.approx(math.log2(6))
    assert enc["L3"] == pytest.approx(0.0)
    assert enc["L4"] == pytest.approx(math.log2(3))
    assert enc["total"] == pytest.approx(sum(enc[k] for k in
                                             ("L1", "L2", "L3", "L4")))


def test_exact_encoding_duplicates():
    # identical members: conditional tables are diagonal and forced, so
    # L4 per sample reduces to the bare table-count cost
    p = canonicalize([0, 0, 0, 1, 1, 1])
    pset = PartitionSet.from_partitions([p] * 20)
    enc = full_description_length(pset, _uniform_clustering(20))
    from partition_modes import log2_omega
    assert enc["L4"] == pytest.approx(20 * log2_omega(p.counts, p.counts))
    assert enc["L3"] == pytest.approx(0.0)


def test_exact_encoding_l1_scores_each_content_once():
    # L1 weights each distinct content by its copies: within 1e-12 of the
    # per-sample sum, on an ensemble of few contents with many copies
    base = canonicalize(np.repeat(np.arange(5), 8))
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.01,
                            S=3000, seed=4)
    pset, _ = perturb_ensemble(spec)
    assert len(pset.rep) < pset.S / 5
    L1 = full_description_length(pset, _uniform_clustering(pset.S))["L1"]
    per_sample = sum(_log2_binom(pset.N - 1, p.n - 1) for p in pset.partitions)
    assert L1 == pytest.approx(per_sample, rel=1e-12, abs=0)


@pytest.mark.parametrize("budget", [0, DEFAULT_MAX_COST])
def test_exact_encoding_l4_takes_table_counts_at_the_cache_budget(budget,
                                                                  monkeypatch):
    monkeypatch.setattr(tables, "DEFAULT_MAX_COST", budget)
    rng = np.random.default_rng(8)
    distinct = [random_partition(12, 4, rng) for _ in range(15)]
    # repeated contents are scored once and weighted by their copies
    repeated = [distinct[i] for i in rng.integers(5, size=40)]
    for parts, cells in ((distinct, cache_module._KERNEL_CELLS),
                         (repeated, cache_module._KERNEL_CELLS),
                         # tables of at most 16 cells, a few per chunk
                         (distinct, 40), (repeated, 40)):
        monkeypatch.setattr(cache_module, "_KERNEL_CELLS", cells)
        pset = PartitionSet.from_partitions(parts)
        assignment = np.arange(pset.S) % 3
        clustering = Clustering(assignment, [0, 1, 2], 3)
        enc = full_description_length(pset, clustering)
        expect = 0.0
        for i in range(pset.S):
            mode = pset.partitions[clustering.mode_index[assignment[i]]]
            p = pset.partitions[i]
            t = contingency_table(mode, p).t
            expect += (sum(math.log2(math.factorial(a)) for a in mode.counts)
                       - sum(math.log2(math.factorial(x)) for x in t.ravel())
                       + log2_omega(mode.counts, p.counts))
        assert enc["L4"] == pytest.approx(expect, rel=1e-12)


# the stages of one exact encoding as float.hex, in a fresh interpreter:
# two clusters of a perturbed ensemble of 159 distinct contents
_STAGES = """
import json
import numpy as np
from partition_modes import Clustering, canonicalize, full_description_length
from partition_modes.sampler import PerturbationSpec, perturb_ensemble
bases = [(canonicalize(np.repeat(np.arange(3), 8)), 0.5),
         (canonicalize(np.arange(24) % 4), 0.5)]
spec = PerturbationSpec(bases=bases, node_flip_rate=0.1, S=200, seed=0)
pset, base = perturb_ensemble(spec)
modes = [int(np.flatnonzero(base == k)[0]) for k in (0, 1)]
enc = full_description_length(pset, Clustering(base, modes, 2))
print(json.dumps({k: v.hex() for k, v in enc.items()}))
"""


def test_exact_encoding_is_the_same_under_every_blas_kernel():
    # OPENBLAS_CORETYPE sets OpenBLAS's kernel for the process it is set
    # in, and a BLAS dot adds its terms in each kernel's own order; the
    # stages are left folds (tables._fold), so their bits do not depend on
    # it.  Where numpy does not use OpenBLAS the variable is ignored.
    src = str(Path(partition_modes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = [subprocess.run([sys.executable, "-c", _STAGES], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path,
                                   OPENBLAS_CORETYPE=core)).stdout
           for core in ("Prescott", "Haswell")]
    assert out[0] == out[1] and json.loads(out[0]).keys() == {"L1", "L2", "L3",
                                                               "L4", "total"}


def test_per_sample_objective_tracks_exact_encoding():
    # Stirling-approximated per-sample terms vs exact (L2+L3+L4)/S.
    # The entropy form overshoots each contingency row by about
    # (cells-1)/2 * log2(row sum) bits, so agreement requires ensembles
    # whose tables are not dominated by singleton cells.
    for rate in (0.01, 0.02):
        base = canonicalize(np.repeat(np.arange(4), 25))
        spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=rate,
                                S=100, seed=9)
        pset, _ = perturb_ensemble(spec)
        clustering = Clustering(np.zeros(pset.S, dtype=np.int64), [0], 1)
        bd = description_length(pset, clustering, lam=0.0)
        enc = full_description_length(pset, clustering)
        exact_per_sample = (enc["L2"] + enc["L3"] + enc["L4"]) / pset.S
        assert abs(bd.total - exact_per_sample) / exact_per_sample <= 0.05


def test_description_independent_of_cache_state(monkeypatch):
    # the ensemble of test_run_independent_of_cache_state: the budget
    # splits the clustering's (mode, member) margin pairs between the
    # exact count and the estimate
    monkeypatch.setattr(tables, "DEFAULT_MAX_COST", 1e4)
    rng = np.random.default_rng(4)
    pset = PartitionSet.from_partitions(
        [random_partition(16, 5, rng) for _ in range(80)])
    clustering = run(pset, EngineParams(seed=4, k0=2)).clustering
    pairs = [(m, q) for k, m in enumerate(clustering.mode_index)
             for q in clustering.members(k).tolist()]
    exact = {_exact_orientation(*_clean_margins(pset.partitions[m].counts,
                                                pset.partitions[q].counts))
             is not None for m, q in pairs}
    assert exact == {True, False}

    def describe(cache):
        return (description_length(pset, clustering, lam=1.0, cache=cache),
                full_description_length(pset, clustering, cache=cache))

    fresh = describe(PairCache(pset))
    warm = PairCache(pset)
    run(pset, EngineParams(seed=9, lam=0.0, k0=3), cache=warm)
    # every (mode, member) pair first computed with the sides swapped, so
    # each mode's rows copy or recompute what the member's rows hold
    swapped = PairCache(pset)
    for m, q in pairs:
        swapped.omega_block(q, [m])
        swapped.hmod_given_mode([m], q)
    assert describe(warm) == fresh
    assert describe(swapped) == fresh


def test_a_cache_of_another_partition_set_is_rejected():
    # unchecked, a cache of this set with its first partition merged into
    # one community makes description_length read 5.0 bits instead of
    # 10.172, and run() 5.0 instead of 8.942
    parts = [canonicalize(x) for x in ([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1],
                                       [0, 1, 0, 1, 0, 1])]
    pset = PartitionSet.from_partitions(parts)
    other = PairCache(PartitionSet.from_partitions(
        [canonicalize([0] * 6)] + parts[1:]))
    clustering = Clustering(np.zeros(3, dtype=np.int64), [0], 1)
    for call in (lambda c: description_length(pset, clustering, cache=c),
                 lambda c: full_description_length(pset, clustering, cache=c),
                 lambda c: run(pset, EngineParams(), cache=c)):
        with pytest.raises(ValueError, match="another partition set"):
            call(other)
        call(PairCache(pset))
