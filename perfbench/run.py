"""partition-modes benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--size full|tiny] [--record FILE]

Workloads (see README.md for why each exists):

* ``distinct_bimodal``: N=100, two planted bases, flip rate 0.05,
  S=2000, almost every sample distinct; one ``run()`` at lambda=1.
* ``repeated_unimodal``: one clique pairing of the ring, perturbed, 500
  samples repeated 4 times (about 85 distinct contents); one ``run()``
  at lambda=1, which accepts no move.
* ``repeated_cliques``: clique-pairing ensemble of 500 samples repeated
  4 times (100 distinct contents); ``run()`` at lambda=1, then lambda=0.
* ``ring_pipeline``: the README's four CLI steps on a ring of 8 six-node
  cliques, each its own ``python -m partition_modes.cli`` process.

Every workload is a closed loop with one client: each step starts when
the previous one has finished.  Inputs are generated from ``--seed``
before any timing starts.  One repetition runs in fresh interpreters
(the Omega memo is global to a process), on inputs made from its own
sub-seed.  The number of repetitions is ``--seconds`` over the
workload's nominal repetition time, fixed before anything runs, so two
versions of the package measured at one seed see the same inputs; each
end-to-end metric is the median over them.  Set-up is also timed in
extra set-up-only processes, so its median has at least
``SETUP_TRIALS`` samples.  ``BENCHMARK.json`` gates the first two
workloads; see README.md for why the last two are not gated.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` one untraced repetition is followed by traced ones,
and the last line holds the per-layer metrics.  The command exits 1 if
any correctness check failed and 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("sample_s", "s"), ("cluster_s", "s"),
              ("describe_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
              ("dl_bits", "bits")]
# The end-to-end metrics of the result line, which BENCHMARK.json bounds.
# sample_s and describe_s are printed only: on the library workloads they
# time a fraction of a second in-process, too noisy to bound.
GATED = ("setup_s", "cluster_s", "pipeline_s", "peak_rss_mb", "dl_bits")
SETUP_TRIALS = 5
# Seconds allowed per repetition at full size: what one takes on a 2-CPU
# x86 machine (Python 3.11) plus headroom for a slower one, so that a
# run stays near --seconds.  Tiny repetitions take about a tenth.
NOMINAL_REP_S = {"distinct_bimodal": 9.0, "repeated_unimodal": 2.8,
                 "repeated_cliques": 9.0, "ring_pipeline": 30.0}
# Each step must end before this many seconds after start, so that a run
# never takes more than three minutes.
HARD_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class StepTimeout(Exception):
    pass


class Runner:
    """Starts the processes of one benchmark run, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.n = 0

    def step(self, argv, log_name):
        """Run one process to completion.  Returns (exit code, wall
        seconds, peak RSS in MB, monotonic start time, stdout text)."""
        self.n += 1
        log = self.work / ("%03d-%s.out" % (self.n, log_name))
        with open(log, "w") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            reaped = {}

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped["t"] = time.monotonic()
                reaped["status"] = status
                reaped["rss"] = usage.ru_maxrss / 1024.0

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(0.0, self.deadline - time.monotonic()))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                proc.returncode = -9
                raise StepTimeout("%s did not finish in time" % log_name)
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        return (proc.returncode, reaped["t"] - t0, reaped["rss"], t0,
                log.read_text())

    def worker(self, step, *args, spans=None):
        argv = [sys.executable, str(HERE / "worker.py"), step, *args]
        if spans:
            argv += ["--trace", str(spans)]
        return self.step(argv, step)

    def cli(self, *args, spans=None):
        if spans:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "partition_modes.cli", *args]
        return self.step(argv, args[0])


class Repetition:
    """End-to-end measurements, failures and outputs of one repetition."""

    def __init__(self):
        self.metrics = {name: 0.0 for name, _ in END_TO_END}
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[Path] = []
        self.cluster_spans: list[Path] = []
        self.outputs: dict = {}

    def op(self, *problems):
        """Count one operation; it fails if any check found a problem."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures.append("; ".join(problems))

    def process(self, rss):
        self.metrics["peak_rss_mb"] = max(self.metrics["peak_rss_mb"], rss)


def _tracked_and_total(result: dict) -> tuple[float, float]:
    """The engine's last tracked total and the reported total."""
    return float(result["trace"][-1][3]), float(result["objective"]["total"])


def _describe(runner, rep, ensemble, result_path, spans):
    code, wall, rss, _, out = runner.cli(
        "describe", "--partitions", str(ensemble),
        "--clustering", str(result_path), spans=spans)
    rep.metrics["describe_s"] += wall
    rep.process(rss)
    if code != 0:
        return None, workloads.check_exit("describe", code)
    return json.loads(out[out.index("{"):])["objective"]["total"], None


def library_repetition(runner, name, seed, inputs, trace, tag):
    rep = Repetition()
    spans = runner.work / ("%s.spans.json" % tag) if trace else None
    out = runner.work / ("%s-result" % tag)
    summary_path = runner.work / ("%s-summary.json" % tag)
    code, wall, rss, t_spawn, _ = runner.worker(
        "rep", "--workload", name, "--seed", str(seed),
        "--input", str(inputs), "--out", str(out),
        "--summary", str(summary_path), spans=spans)
    rep.metrics["pipeline_s"] = wall
    rep.process(rss)
    lams = workloads.LAMBDAS[name]
    if code != 0:
        for _ in range(len(lams) + 1):
            rep.op(workloads.check_exit("repetition", code))
        return rep
    summary = json.loads(summary_path.read_text())
    for key in ("sample_s", "describe_s"):
        rep.metrics[key] = summary[key]
    rep.metrics["setup_s"] = summary["t_ready"] - t_spawn
    results = []
    for run in summary["runs"]:
        rep.metrics["cluster_s"] += run["cluster_s"]
        result = json.loads((runner.work / run["result"]).read_text())
        results.append(result)
        tracked, total = _tracked_and_total(result)
        rep.metrics["dl_bits"] += total
        if run["lam"] == 1.0:
            modes = workloads.check_planted_modes(result["modes"],
                                                  workloads.PLANTED[name]())
        else:
            modes = workloads.check_k_grows(result["K"], results[0]["K"])
        rep.op(workloads.check_dl(tracked, run["recomputed_dl"]), modes)
    rep.op(workloads.check_sampled(
        workloads.read_labels(str(out) + ".sampled.txt")))
    rep.outputs = {"results": results}
    if trace:
        rep.spans = rep.cluster_spans = [spans]
    return rep


def _generate_ring(prefix) -> list[str]:
    return ["generate", "cliques", "--cliques", str(workloads.RING_CLIQUES),
            "--size", str(workloads.RING_CLIQUE_SIZE), "--out", prefix]


def ring_repetition(runner, seed, size, trace, tag):
    rep = Repetition()
    spans = (lambda step: runner.work / ("%s-%s.spans.json" % (tag, step))) \
        if trace else (lambda step: None)
    prefix = "%s-ring" % tag
    t_start = time.monotonic()
    steps = [
        ("generate", _generate_ring(prefix), "setup_s"),
        ("sample", ["sample", "--graph", prefix + ".edges",
                    "--s", str(workloads.SIZES[size].ring_S), "--beta", "200",
                    "--sweeps-between", "5", "--seed", str(seed),
                    "--out", prefix + ".parts"], "sample_s"),
        ("cluster", ["cluster", "--partitions", prefix + ".parts",
                     "--lambda", "1.0", "--seed", str(seed),
                     "--out", prefix + ".result.json", "--modes-out", prefix,
                     "--agreement-out", prefix + ".agree.tsv"], "cluster_s"),
    ]
    for step, argv, metric in steps:
        code, wall, rss, _, _ = runner.cli(*argv, spans=spans(step))
        rep.metrics[metric] = wall
        rep.process(rss)
        if code != 0:
            rep.op(workloads.check_exit(step, code))
            rep.metrics["pipeline_s"] = time.monotonic() - t_start
            return rep
        if step != "cluster":
            rep.op(None)
    result = json.loads((runner.work / (prefix + ".result.json")).read_text())
    tracked, total = _tracked_and_total(result)
    rep.metrics["dl_bits"] = total
    mode_files = [workloads.read_labels(runner.work / ("%s.mode%d.txt" % (prefix, k)))[0]
                  for k in range(result["K"])]
    agree_rows = (runner.work / (prefix + ".agree.tsv")).read_text().splitlines()
    rep.op(workloads.check_cliques_whole(result["modes"]),
           workloads.check_cliques_whole(mode_files),
           None if len(agree_rows) == 1 + len(result["modes"][0])
           else "agreement table has %d lines" % len(agree_rows))
    fresh, problem = _describe(runner, rep, prefix + ".parts",
                               prefix + ".result.json", spans("describe"))
    rep.op(problem, fresh is not None and workloads.check_dl(tracked, fresh))
    rep.metrics["pipeline_s"] = time.monotonic() - t_start
    rep.outputs = {"results": [result]}
    if trace:
        rep.spans = [spans(s) for s in ("generate", "sample", "cluster", "describe")]
        rep.cluster_spans = [spans("cluster")]
    return rep


def setup_trial(runner, name, inputs) -> float:
    """Time the set-up alone in a fresh process."""
    if name == "ring_pipeline":
        code, wall, _, _, _ = runner.cli(*_generate_ring("setup-trial"))
        if code != 0:
            raise RuntimeError("generate exited with %d" % code)
        return wall
    summary = runner.work / "setup-trial.json"
    code, _, _, t_spawn, _ = runner.worker(
        "setup", "--input", str(inputs), "--summary", str(summary))
    if code != 0:
        raise RuntimeError("set-up exited with %d" % code)
    return json.loads(summary.read_text())["t_ready"] - t_spawn


def sub_seed(seed: int, k: int) -> int:
    """Seed of repetition k of a run with workload seed ``seed``."""
    return (seed * 1000 + k) % 2 ** 32


def make_inputs(name, seed, size, work, tag) -> Path:
    path = work / ("%s-ensemble.txt" % tag)
    workloads.write_labels(workloads.ENSEMBLES[name](seed, workloads.SIZES[size]),
                           path)
    return path


def repetitions(workload, seconds, size) -> int:
    """Repetitions of an untraced run: a fixed function of ``--seconds``,
    never of the time a repetition took."""
    nominal = NOMINAL_REP_S[workload] / (1 if size == "full" else 10)
    return max(1, int(seconds // nominal))


def environment(seed) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed}


def check_package(runner) -> None:
    """Import the package from this checkout's ``src`` (also compiling
    its bytecode before anything is timed)."""
    code, _, _, _, out = runner.step(
        [sys.executable, "-c",
         "import partition_modes.cli, os; "
         "print(os.path.dirname(os.path.abspath(partition_modes.__file__)))"],
        "import")
    location = out.strip().splitlines()[-1] if out.strip() else ""
    if code != 0 or Path(location).resolve() != (SRC / "partition_modes").resolve():
        raise RuntimeError("cannot import partition_modes from %s" % SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--record", help="append this run, with every "
                        "repetition, as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.monotonic()
    if not (SRC / "partition_modes" / "__init__.py").is_file():
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(args, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work, start) -> int:
    runner = Runner(work, start + HARD_LIMIT_S)
    try:
        check_package(runner)
    except (RuntimeError, StepTimeout) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# partition-modes benchmark: workload=%s seed=%d seconds=%g trace=%d "
          "size=%s" % (args.workload, args.seed, args.seconds, args.trace, args.size))
    print("# env: " + " ".join("%s=%s" % kv for kv in env.items()))

    def repetition(trace, k):
        """Repetition k runs on inputs made from sub-seed k, so a run's
        medians cover several inputs of its workload."""
        seed = sub_seed(args.seed, k)
        tag = "%s%d" % ("t" if trace else "r", k)
        if args.workload == "ring_pipeline":
            return ring_repetition(runner, seed, args.size, trace, tag), None
        inputs = make_inputs(args.workload, seed, args.size, work, tag)
        return library_repetition(runner, args.workload, seed,
                                  inputs, trace, tag), inputs

    n_reps = repetitions(args.workload, args.seconds, args.size)
    reps, traced = [], []
    first_inputs = None
    try:
        if args.trace:
            # one untraced repetition for the overhead; tracing slows the
            # rest, so half as many fit in the same time
            reps.append(repetition(False, 0)[0])
            n_reps = max(1, n_reps // 2)
        batch = traced if args.trace else reps
        for k in range(n_reps):
            rep, inputs = repetition(bool(args.trace), k)
            batch.append(rep)
            first_inputs = first_inputs or inputs
        setup = [r.metrics["setup_s"] for r in reps + traced]
        while len(setup) < SETUP_TRIALS:
            setup.append(setup_trial(runner, args.workload, first_inputs))
    except (StepTimeout, RuntimeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    done = reps + traced
    attempted = sum(r.attempted for r in done)
    failures = [f for r in done for f in r.failures]
    for k, rep in enumerate(done):
        print("# rep %d%s: " % (k, " (traced)" if rep in traced else "")
              + " ".join("%s=%.4f" % kv for kv in rep.metrics.items()))
    for failure in failures:
        print("# FAILED: %s" % failure)

    e2e = {name: statistics.median(r.metrics[name] for r in reps)
           for name, _ in END_TO_END}
    e2e["setup_s"] = statistics.median(setup)
    print("# end-to-end, median of %d repetitions (setup_s: of %d set-ups):"
          % (len(reps), len(setup)))
    for name, unit in END_TO_END:
        print("%-14s %14.6f %s" % (name, e2e[name], unit))
    print("%-14s %14.6f %s (%d failed of %d attempted)"
          % ("error_rate", len(failures) / max(attempted, 1), "ratio",
             len(failures), attempted))

    if args.trace:
        if failures:
            # a failed traced process leaves no spans to derive from
            print("error: a traced repetition failed", file=sys.stderr)
            return 1
        per_layer = _trace_report(args, traced, reps[0])
        metrics = {name: {"value": per_layer[name], "unit": layers.UNITS[name]}
                   for name in layers.UNITS if name not in layers.RING_ONLY}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name in GATED}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "size": args.size,
                "env": env, "setup_s": setup,
                "reps": [r.metrics for r in reps],
                "fingerprints": [_fingerprint(r.outputs) for r in done],
                "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


def _fingerprint(outputs) -> list:
    """Digest of the assignment and modes, and the dl, of each run()
    result of a repetition."""
    return [[hashlib.sha256(json.dumps([r["assignment"], r["modes"]]).encode())
             .hexdigest(), r["objective"]["total"]]
            for r in outputs.get("results", [])]


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def _trace_report(args, traced, untraced):
    dumps = [_load(r.spans) for r in traced]
    derived = [layers.derive(rep) for rep in dumps]
    per_layer = {name: statistics.median(d[0][name] for d in derived)
                 for name in derived[0][0]}
    layer_self = {name: statistics.median(d[1][name] for d in derived)
                  for name in derived[0][1]}
    # the untraced repetition and the first traced one share their inputs
    per_layer["trace.overhead_s"] = (traced[0].metrics["pipeline_s"]
                                     - untraced.metrics["pipeline_s"])
    cluster_only = layers.derive(_load(traced[0].cluster_spans))[0]

    print("# per-layer, median of %d traced repetitions:" % len(traced))
    for name in layers.UNITS:
        print("%-40s %16.6f %s" % (name, per_layer[name], layers.UNITS[name]))
    print("# self time by layer (s): " + " ".join(
        "%s=%.4f" % kv for kv in layer_self.items()))
    for metrics, moves, workloads_ in layers.PREDICTIONS:
        if args.workload in workloads_:
            print("# predicted to move %s here: %s" % (moves, ", ".join(metrics)))
    for line in layers.check_predictions(args.workload, per_layer, layer_self,
                                         cluster_only, traced[0].metrics):
        print("# prediction: " + line)
    return per_layer


if __name__ == "__main__":
    sys.exit(main())
