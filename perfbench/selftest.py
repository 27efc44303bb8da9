"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Tiny-size runs of every workload, untraced and traced; each correctness
check against a deliberately wrong result; runs against deliberately
broken copies of the package; and the compare command's verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT, record=None):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), *args,
            "--size", "tiny", "--seconds", "1"]
    if record:
        argv += ["--record", str(record)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    gated = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(gated)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    printed = {line.split()[0] for line in lines[:-1] if line and line[0] != "#"}
    assert printed == {name for name, _ in run.END_TO_END} | {"error_rate"}
    assert set(gated) == set(run.GATED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_prints_every_layer_metric_and_changes_nothing(workload, tmp_path):
    record = tmp_path / "runs.jsonl"
    out = bench("--workload", workload, "--seed", "4", "--trace", "1",
                record=record)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the first repetition of a traced run is untraced, the rest traced:
    # the same seed must give the same assignment, modes and dl_bits
    fingerprints = json.loads(record.read_text())["fingerprints"]
    assert len(fingerprints) >= 2 and fingerprints[0]
    assert all(f == fingerprints[0] for f in fingerprints[1:])


def test_checks_reject_wrong_results():
    bases = workloads.bimodal_bases()
    assert workloads.check_planted_modes(bases[::-1], bases) is None
    assert workloads.check_planted_modes(bases[:1], bases)
    assert workloads.check_planted_modes(bases + bases[:1], bases)
    moved = bases[0].copy()
    moved[0] = 1
    assert workloads.check_planted_modes([moved, bases[1]], bases)
    assert workloads.check_planted_modes(bases[:1], bases[:1]) is None
    assert workloads.check_planted_modes(bases, bases[:1])

    assert workloads.check_k_grows(5, 2) is None
    assert workloads.check_k_grows(2, 2)

    ring = np.repeat(np.arange(8) // 2, 6)
    assert workloads.check_cliques_whole([ring]) is None
    split = ring.copy()
    split[7] = 3
    assert workloads.check_cliques_whole([ring, split])
    assert workloads.check_cliques_whole([ring[:-1]])

    assert workloads.check_dl(12.5, 12.5 + 1e-10) is None
    assert workloads.check_dl(12.5, 12.5 + 1e-8)
    assert workloads.check_dl(12.5, float("nan"))

    assert workloads.check_exit("sample", 0) is None
    assert workloads.check_exit("sample", 1)

    S, N = workloads.MCMC["S"], 48
    sampled = np.tile(ring, (S, 1))
    assert workloads.check_sampled(sampled) is None
    assert workloads.check_sampled(sampled[:-1])
    assert workloads.check_sampled(sampled[:, :-1])
    relabelled = sampled.copy()
    relabelled[3] = (relabelled[3] + 1) % 4
    assert workloads.check_sampled(relabelled)
    too_many = np.tile(np.arange(N) % 12, (S, 1))
    assert workloads.check_sampled(too_many)


def test_generators_are_seeded():
    size = workloads.SIZES["tiny"]
    for make in workloads.ENSEMBLES.values():
        assert np.array_equal(make(7, size), make(7, size))
        assert not np.array_equal(make(7, size), make(8, size))


def _checkout(tmp_path, with_source=True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_source:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_wrong_tracked_total_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    engine = root / "src" / "partition_modes" / "engine.py"
    text = engine.read_text()
    broken = text.replace("return mode_term + label_term + cond_term + ",
                          "return 1e-6 + mode_term + label_term + cond_term + ")
    assert broken != text
    engine.write_text(broken)
    out = bench("--workload", "distinct_bimodal", "--seed", "3", "--trace", "0",
                root=root)
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_missing_boundary_fails_the_traced_run(tmp_path):
    root = _checkout(tmp_path)
    cache = root / "src" / "partition_modes" / "cache.py"
    text = cache.read_text()
    renamed = text.replace("_compute_block", "_compute_rows")
    assert renamed != text
    cache.write_text(renamed)
    out = bench("--workload", "distinct_bimodal", "--seed", "3", "--trace", "1",
                root=root)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_without_package_source_fails_without_result(tmp_path):
    root = _checkout(tmp_path, with_source=False)
    out = bench("--workload", "repeated_cliques", "--seed", "3", "--trace", "0",
                root=root)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _write_runs(path, workload, values):
    with open(path, "w") as fh:
        for v in values:
            metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            fh.write(json.dumps({"workload": workload, "trace": 0,
                                 "result": {"metrics": metrics}}) + "\n")


def test_compare_verdicts(tmp_path):
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.01, 9.99]
    assert compare.verdict(base, base, 0.1, True)[0] == "agreeing"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, True)[0] == "regressed"
    assert compare.verdict(base, [v * 0.7 for v in base], 0.1, True)[0] == "improved"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, False)[0] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"

    workload = SPEC["workloads"][0]["name"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_runs(a, workload, base)
    _write_runs(b, workload, [v * 1.5 for v in base])
    rows, regressed = compare.compare(a, a)
    assert not regressed
    assert {r[2] for r in rows if r[0] == workload} == {"agreeing"}
    rows, regressed = compare.compare(a, b)
    assert regressed
