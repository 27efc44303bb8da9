import argparse
import json
import os
import stat

import numpy as np
import pytest

from partition_modes import (Clustering, EngineParams, PairCache, PartitionSet,
                             canonicalize, contingency_table, description_length,
                             full_description_length, ring_of_cliques, run)
from partition_modes import cache as cache_module
from partition_modes.cli import _agreement_table, build_parser, main
from partition_modes.sampler import (PerturbationSpec, load_partitions,
                                     perturb_ensemble, write_partitions)


def test_generate_cliques(tmp_path, capsys):
    out = tmp_path / "ring"
    rc = main(["generate", "cliques", "--cliques", "8", "--size", "6",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "nodes 48 edges 128"
    edges = (tmp_path / "ring.edges").read_text()
    assert len([l for l in edges.splitlines() if not l.startswith("#")]) == 128
    truth = load_partitions(tmp_path / "ring.truth")
    assert truth.partitions == [ring_of_cliques(8, 6)[1]]


def test_generate_planted_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["generate", "planted", "--n", "100", "--q", "4",
                   "--pin", "0.25", "--pout", "0.02", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
    assert (tmp_path / "a.edges").read_text() == (tmp_path / "b.edges").read_text()
    edges = int(capsys.readouterr().out.split()[-1])
    assert abs(edges - 375) <= 4 * np.sqrt(375)


def test_generate_sbm(tmp_path, capsys):
    rc = main(["generate", "sbm", "--sizes", "10,10",
               "--omega", "[[0.5, 0.05], [0.05, 0.5]]",
               "--out", str(tmp_path / "s")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("nodes 20")


@pytest.mark.parametrize("omega", ['{"a": 1}', '[[0.5, 0.1], [0.1]]'],
                         ids=["object", "ragged"])
def test_generate_sbm_rejects_a_matrix_that_is_not_numbers(tmp_path, capsys,
                                                          omega):
    rc = main(["generate", "sbm", "--sizes", "3,3", "--omega", omega,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: mixing matrix must be an array of numbers\n"
    assert not list(tmp_path.iterdir())


def test_generate_bad_params(tmp_path, capsys):
    rc = main(["generate", "planted", "--n", "10", "--q", "3",
               "--pin", "0.2", "--pout", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_sample_counts_and_determinism(tmp_path, capsys):
    out = tmp_path / "ring"
    main(["generate", "cliques", "--cliques", "4", "--size", "3",
          "--out", str(out)])
    p1 = tmp_path / "s1.txt"
    p2 = tmp_path / "s2.txt"
    for p in (p1, p2):
        rc = main(["sample", "--graph", str(out) + ".edges", "--s", "100",
                   "--beta", "50", "--seed", "4", "--out", str(p)])
        assert rc == 0
    assert p1.read_text() == p2.read_text()
    assert len(p1.read_text().splitlines()) == 100


@pytest.mark.parametrize("pin", ["0.1", "0"])
def test_sample_keeps_isolated_nodes_of_a_planted_graph(tmp_path, capsys, pin):
    # node 39 has no edge at --pout 0 and the seed below, and at --pin 0
    # no node has one; the sampled partitions still cover all 40 nodes
    planted = tmp_path / "p"
    assert main(["generate", "planted", "--n", "40", "--q", "4", "--pin", pin,
                 "--pout", "0", "--seed", "0", "--out", str(planted)]) == 0
    assert len((tmp_path / "p.truth").read_text().split()) == 40
    parts = tmp_path / "p.parts"
    assert main(["sample", "--graph", str(planted) + ".edges", "--s", "5",
                 "--out", str(parts)]) == 0
    lines = parts.read_text().splitlines()
    assert len(lines) == 5 and all(len(l.split()) == 40 for l in lines)


def test_sample_rejects_nan_beta(tmp_path, capsys):
    # no comparison with NaN is true, so every downhill move would be
    # rejected and the sampler would silently turn greedy
    ring = tmp_path / "ring"
    main(["generate", "cliques", "--cliques", "3", "--size", "3",
          "--out", str(ring)])
    out = tmp_path / "s.txt"
    rc = main(["sample", "--graph", str(ring) + ".edges", "--s", "5",
               "--beta", "nan", "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # inf is the zero-temperature limit; warnings are errors in this suite
    assert main(["sample", "--graph", str(ring) + ".edges", "--s", "5",
                 "--beta", "inf", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_sample_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a node count read from the input can ask for more memory than exists
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("partition_modes.sampler.mcmc_sample", exhausted)
    ring = tmp_path / "ring"
    main(["generate", "cliques", "--cliques", "3", "--size", "3",
          "--out", str(ring)])
    capsys.readouterr()
    out = tmp_path / "s.txt"
    rc = main(["sample", "--graph", str(ring) + ".edges", "--s", "5",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert not out.exists()


def test_sample_missing_graph(tmp_path, capsys):
    rc = main(["sample", "--graph", str(tmp_path / "none.edges"), "--s", "5",
               "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _write_identical_ensemble(path, S=30):
    base = canonicalize([0, 0, 0, 1, 1, 1])
    spec = PerturbationSpec(bases=[(base, 1.0)], node_flip_rate=0.0, S=S, seed=0)
    pset, _ = perturb_ensemble(spec)
    write_partitions(pset, path)
    return base


def test_cluster_identical_ensemble_text(tmp_path, capsys):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    rc = main(["cluster", "--partitions", str(path), "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "K = 1" in out
    assert "1.0000" in out


def test_cluster_json_output_and_artifacts(tmp_path, capsys):
    path = tmp_path / "p.txt"
    base = _write_identical_ensemble(path)
    result_path = tmp_path / "result.json"
    rc = main(["cluster", "--partitions", str(path), "--seed", "1",
               "--format", "json", "--out", str(result_path),
               "--modes-out", str(tmp_path / "m"),
               "--agreement-out", str(tmp_path / "agree.tsv")])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(result_path.read_text())
    assert printed == stored
    assert stored["K"] == 1
    assert stored["weights"] == [1.0]
    assert load_partitions(tmp_path / "m.mode0.txt").partitions == [base]
    agree = (tmp_path / "agree.tsv").read_text().splitlines()
    assert agree[0] == "node\tmode0"
    assert len(agree) == 1 + 6
    assert all(line.endswith("1.0000") for line in agree[1:])


@pytest.mark.parametrize("cells", [None, 40])
def test_agreement_table_matches_a_per_member_reference(monkeypatch, cells):
    # two perturbed bases, repeated, so each cluster holds repeated
    # contents; 40 cells fit one 5x5 or two 4x4 tables per kernel chunk
    if cells:
        monkeypatch.setattr(cache_module, "_KERNEL_CELLS", cells)
    base_a = canonicalize(np.repeat(np.arange(4), 10))
    base_b = canonicalize(np.arange(40) % 5)
    spec = PerturbationSpec(bases=[(base_a, 0.5), (base_b, 0.5)],
                            node_flip_rate=0.05, S=40, seed=3)
    pset = PartitionSet.from_partitions(perturb_ensemble(spec)[0].partitions * 3)
    cache = PairCache(pset)
    clustering = run(pset, EngineParams(seed=0), cache=cache).clustering
    assert clustering.K >= 2
    expect = np.zeros((pset.N, clustering.K))
    for k, m in enumerate(clustering.mode_index):
        mode = pset.partitions[m]
        members = clustering.members(k)
        assert len({pset.partitions[i].key() for i in members}) < len(members)
        for i in members:
            p = pset.partitions[i]
            mapped = contingency_table(mode, p).t.argmax(axis=0)[p.labels]
            expect[:, k] += mapped == mode.labels
        expect[:, k] /= len(members)
    assert (_agreement_table(clustering, cache) == expect).all()
    assert expect.min() < 1.0


def test_cluster_deterministic_across_runs(tmp_path):
    base_a = canonicalize(np.repeat(np.arange(4), 10))
    spec = PerturbationSpec(bases=[(base_a, 1.0)], node_flip_rate=0.1,
                            S=60, seed=3)
    pset, _ = perturb_ensemble(spec)
    path = tmp_path / "p.txt"
    write_partitions(pset, path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(["cluster", "--partitions", str(path), "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_mode_files_load_back_as_the_modes(tmp_path, capsys):
    a = canonicalize(np.repeat(np.arange(4), 10))
    b = canonicalize(np.tile(np.arange(2), 20))
    spec = PerturbationSpec(bases=[(a, 0.5), (b, 0.5)], node_flip_rate=0.05,
                            S=60, seed=3)
    pset, _ = perturb_ensemble(spec)
    path = tmp_path / "p.txt"
    write_partitions(pset, path)
    rc = main(["cluster", "--partitions", str(path), "--seed", "9",
               "--out", str(tmp_path / "r.json"), "--modes-out", str(tmp_path / "m")])
    assert rc == 0
    result = json.loads((tmp_path / "r.json").read_text())
    assert result["K"] == 2
    for k, m in enumerate(result["mode_index"]):
        mode = load_partitions(tmp_path / ("m.mode%d.txt" % k))
        assert mode.partitions == [pset.partitions[m]]
        assert mode.partitions[0].labels.tolist() == result["modes"][k]


def test_cluster_help_describes_every_option():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    cluster = sub.choices["cluster"]
    assert [a.dest for a in cluster._actions if not a.help] == []
    assert "the search is exact" in " ".join(cluster.format_help().split())


def test_cluster_rejects_restarts_below_one(tmp_path, capsys):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    out = tmp_path / "r.json"
    rc = main(["cluster", "--partitions", str(path), "--restarts", "0",
               "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lambda_rejected(tmp_path, capsys, lam):
    # every comparison with NaN is false, so no move could be accepted,
    # and the result JSON would hold the invalid token NaN or Infinity
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    out = tmp_path / "r.json"
    rc = main(["cluster", "--partitions", str(path), "--lambda", lam,
               "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["cluster", "--partitions", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["describe", "--partitions", str(path), "--clustering", str(out),
               "--lambda", lam])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p.txt", "r.json"]


def test_describe_rejects_a_result_with_too_few_modes(tmp_path, capsys):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--out", str(result_path)])
    capsys.readouterr()
    data = json.loads(result_path.read_text())
    assert data["K"] == 1
    data["modes"] = []
    result_path.write_text(json.dumps(data))
    rc = main(["describe", "--partitions", str(path),
               "--clustering", str(result_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: the result lists 0 modes for K = 1" in captured.err
    assert captured.out == ""


def test_describe_round_trip(tmp_path, capsys):
    base_a = canonicalize([0, 0, 1, 1, 2, 2])
    spec = PerturbationSpec(bases=[(base_a, 1.0)], node_flip_rate=0.1,
                            S=40, seed=2)
    pset, _ = perturb_ensemble(spec)
    path = tmp_path / "p.txt"
    write_partitions(pset, path)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--out", str(result_path), "--format", "json"])
    run_total = json.loads(capsys.readouterr().out)["objective"]["total"]
    rc = main(["describe", "--partitions", str(path),
               "--clustering", str(result_path)])
    assert rc == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["objective"]["total"] == pytest.approx(run_total, abs=1e-9)
    obj = desc["objective"]
    assert obj["total"] == pytest.approx(
        obj["mode_entropy"] + obj["cluster_labels"] + obj["conditional"]
        + obj["penalty"])
    assert set(desc["exact_encoding"]) == {"L1", "L2", "L3", "L4", "total"}


@pytest.mark.parametrize("lam", [np.float32(1.0), np.int64(1)])
def test_lambda_of_any_number_type_gives_the_float_run(tmp_path, capsys, lam):
    # a float32 lambda would make NumPy round every tracked total to
    # float32 and leave a result that json cannot write; a bool lambda,
    # which describe would reject as "lambda": true, is refused
    bases = [(canonicalize(np.repeat(np.arange(4), 5)), 0.5),
             (canonicalize(np.arange(20) % 5), 0.5)]
    pset, _ = perturb_ensemble(PerturbationSpec(bases=bases, node_flip_rate=0.1,
                                                S=120, seed=1))
    want = run(pset, EngineParams(lam=1.0, seed=0)).to_json_dict()
    got = run(pset, EngineParams(lam=lam, seed=0)).to_json_dict()
    assert got == want
    clustering = Clustering(assignment=np.array(want["assignment"]),
                            mode_index=want["mode_index"], K=want["K"])
    breakdown = description_length(pset, clustering, lam=lam)
    assert json.dumps(breakdown.to_json_dict()) == json.dumps(want["objective"])
    path, result_path = tmp_path / "p.txt", tmp_path / "result.json"
    write_partitions(pset, path)
    result_path.write_text(json.dumps(got))
    rc = main(["describe", "--partitions", str(path),
               "--clustering", str(result_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["objective"] == want["objective"]


def test_describe_ignores_a_stored_omega_budget(tmp_path, capsys):
    # results written while the exact-count budget was a setting carry it;
    # describe scores them at the fixed budget, as cluster does
    spec = PerturbationSpec(bases=[(canonicalize(np.arange(12) // 3), 1.0)],
                            node_flip_rate=0.2, S=40, seed=5)
    pset, _ = perturb_ensemble(spec)
    path = tmp_path / "p.txt"
    write_partitions(pset, path)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--out", str(result_path)])
    capsys.readouterr()
    data = json.loads(result_path.read_text())
    data["omega_max_cost"] = 0.0
    result_path.write_text(json.dumps(data))
    assert main(["describe", "--partitions", str(path),
                 "--clustering", str(result_path)]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["objective"]["total"] == pytest.approx(data["objective"]["total"],
                                                       abs=1e-9)
    clustering = Clustering(assignment=np.array(data["assignment"]),
                            mode_index=data["mode_index"], K=data["K"])
    assert desc["exact_encoding"] == full_description_length(pset, clustering)


def test_describe_inconsistent_inputs(tmp_path, capsys):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    other = tmp_path / "other.txt"
    _write_identical_ensemble(other, S=10)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--out", str(result_path)])
    capsys.readouterr()
    rc = main(["describe", "--partitions", str(other),
               "--clustering", str(result_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _set(key, value):
    def edit(data):
        data[key] = value
        return data
    return edit


@pytest.mark.parametrize("edit,message", [
    # 4 is past the end of a 4-partition ensemble; -1 would otherwise
    # index its last partition
    (_set("mode_index", [4]), "mode index 4 out of range"),
    (_set("mode_index", [-1]), "mode index -1 out of range"),
    # non-integers must not be truncated or parsed into valid entries
    (_set("mode_index", [0.6]), "mode_index must be a list of integers"),
    (_set("mode_index", ["0"]), "mode_index must be a list of integers"),
    (_set("mode_index", [True]), "mode_index must be a list of integers"),
    (_set("assignment", [0.6] * 4), "assignment must be a list of integers"),
    (_set("assignment", ["0"] * 4), "assignment must be a list of integers"),
    (_set("assignment", 0), "assignment must be a list of integers"),
    (_set("K", 1.7), "K must be an integer"),
    (_set("K", True), "K must be an integer"),
    (lambda data: [data], "the result JSON is not an object"),
    # integers past int64 must not reach numpy
    (_set("assignment", [10 ** 30] * 4), "assignment holds an integer past int64"),
    (_set("mode_index", [10 ** 30]), "mode_index holds an integer past int64"),
    (_set("K", 10 ** 30), "every cluster must be non-empty with one mode"),
    (_set("modes", 5), "modes must be a list"),
    # 0.6 would be truncated to the stored mode's label 0
    (_set("modes", [[0.6, 0, 0, 1, 1, 1]]), "mode 0 must be a list of integers"),
    (_set("modes", [[0, 1, 0, 1, 0, 1]]), "mode 0 does not match the ensemble"),
    # the stored penalty weight must be a JSON number, not parsed from
    # a string or a bool
    (_set("lambda", [1]), "lambda must be a finite non-negative number"),
    (_set("lambda", None), "lambda must be a finite non-negative number"),
    (_set("lambda", "1.5"), "lambda must be a finite non-negative number"),
    (_set("lambda", True), "lambda must be a finite non-negative number"),
], ids=["mode_index=4", "mode_index=-1", "mode_index=0.6", "mode_index='0'",
        "mode_index=true", "assignment=0.6", "assignment='0'", "assignment=0",
        "K=1.7", "K=true", "list", "assignment=10**30", "mode_index=10**30",
        "K=10**30", "modes=5", "modes=0.6", "modes=other", "lambda=[1]",
        "lambda=null", "lambda='1.5'", "lambda=true"])
def test_describe_rejects_a_malformed_result(tmp_path, capsys, edit, message):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path, S=4)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--out", str(result_path)])
    capsys.readouterr()
    data = json.loads(result_path.read_text())
    assert data["K"] == 1
    result_path.write_text(json.dumps(edit(data)))
    rc = main(["describe", "--partitions", str(path),
               "--clustering", str(result_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: %s" % message in captured.err
    assert captured.out == ""


def test_describe_lambda_flag_overrides_stored_value(tmp_path, capsys):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    result_path = tmp_path / "result.json"
    main(["cluster", "--partitions", str(path), "--seed", "0",
          "--lambda", "1.0", "--out", str(result_path)])
    capsys.readouterr()
    penalties = []
    for extra in ([], ["--lambda", "3.5"]):
        rc = main(["describe", "--partitions", str(path),
                   "--clustering", str(result_path)] + extra)
        assert rc == 0
        penalties.append(json.loads(capsys.readouterr().out)
                         ["objective"]["penalty"])
    K = json.loads(result_path.read_text())["K"]
    assert penalties == [pytest.approx(1.0 * K), pytest.approx(3.5 * K)]


@pytest.mark.parametrize("flag,target", [("--out", "result.json"),
                                         ("--modes-out", "m"),
                                         ("--agreement-out", "agree.tsv")])
def test_cluster_outputs_leave_nothing_when_rename_fails(tmp_path, capsys,
                                                         monkeypatch, flag,
                                                         target):
    path = tmp_path / "p.txt"
    _write_identical_ensemble(path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("partition_modes.fileio.os.replace", failing_replace)
    rc = main(["cluster", "--partitions", str(path), "--seed", "0",
               flag, str(out_dir / target)])
    assert rc == 1
    assert "rename refused" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "sample"])
def test_generate_and_sample_leave_nothing_when_rename_fails(tmp_path, capsys,
                                                             monkeypatch,
                                                             command):
    ring = tmp_path / "ring"
    assert main(["generate", "cliques", "--cliques", "4", "--size", "3",
                 "--out", str(ring)]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {"generate": ["generate", "cliques", "--cliques", "4", "--size", "3",
                         "--out", str(out_dir / "ring")],
            "sample": ["sample", "--graph", str(ring) + ".edges", "--s", "5",
                       "--out", str(out_dir / "s.txt")]}[command]

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("partition_modes.fileio.os.replace", failing_replace)
    capsys.readouterr()
    assert main(argv) == 1
    assert "rename refused" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, capsys):
    ring = tmp_path / "ring"
    assert main(["generate", "cliques", "--cliques", "4", "--size", "3",
                 "--out", str(ring)]) == 0
    (tmp_path / "plain").write_text("")

    def mode(p):
        return stat.S_IMODE(os.stat(p).st_mode)

    assert mode(str(ring) + ".edges") == mode(str(ring) + ".truth") \
        == mode(tmp_path / "plain")
