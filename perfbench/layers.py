"""Per-layer metrics derived from the spans of a traced repetition, and
the map from each layer metric to the end-to-end metric and workload it
should move.

A span's self time is its duration minus the durations of its direct
children.  Metrics of a layer a workload does not run read 0.
"""

from __future__ import annotations

from collections import defaultdict

MOVES = ("reassign", "merge", "split", "merge_split")

# (unit, layer metric names) in the order they are printed.
PER_LAYER = [
    ("count", ["partitions.canonicalize.n"]),
    ("s", ["partitions.canonicalize.s", "sampler.load_partitions.s",
           "cache.build.s", "graphs.s", "sampler.mcmc.s"]),
    ("count", ["sampler.mcmc.sweeps"]),
    ("1/s", ["sampler.mcmc.sweeps_per_s"]),
    ("count", ["tables.omega.n", "tables.omega.memo_hits",
               "tables.omega.exact.n"]),
    ("s", ["tables.omega.exact.s", "tables.omega.exact.max_s"]),
    ("count", ["tables.omega.over_budget.n", "tables.omega.estimated.n"]),
    ("s", ["tables.omega.estimated.s", "tables.omega.s"]),
    ("count", ["cache.lookups.n", "cache.pairs_requested",
               "cache.pairs_computed"]),
    ("ratio", ["cache.hit_ratio"]),
    ("count", ["cache.kernel.n"]),
    ("s", ["cache.kernel.self_s"]),
    ("1/s", ["cache.kernel.pairs_per_s"]),
    ("array_bytes", ["cache.kernel.bytes"]),
    ("count", ["cache.rows.n"]),
    ("bytes", ["cache.rows.bytes"]),
    ("count", ["cache.rows.both_directions_pairs", "cache.distinct_contents",
               "cache.margin_signatures"]),
    ("s", ["engine.init.s"]),
]
for _move in MOVES:
    PER_LAYER += [("count", ["engine.%s.n" % _move, "engine.%s.accepted" % _move]),
                  ("s", ["engine.%s.s" % _move])]
PER_LAYER += [
    ("count", ["engine.steps", "engine.last_accept_step"]),
    ("s", ["engine.tail.s"]),
    ("ratio", ["engine.tail.share"]),
    ("count", ["engine.mode_search.exact.n"]),
    ("s", ["engine.mode_search.exact.s"]),
    ("count", ["engine.mode_search.sampled.n"]),
    ("s", ["engine.mode_search.sampled.s"]),
    ("count", ["engine.mode_search.candidates", "engine.mode_search.terms"]),
    ("ratio", ["engine.mode_search.pruned_share"]),
    ("s", ["engine.self.s"]),
    ("count", ["objective.description_length.n"]),
    ("s", ["objective.description_length.s",
           "objective.full_description_length.s", "cli.cluster.io_s",
           "trace.overhead_s"]),
]
UNITS = {name: unit for unit, names in PER_LAYER for name in names}
# Printed by every traced run, but left out of its result line: only the
# ungated ring_pipeline runs the ``cluster`` command.
RING_ONLY = ("cli.cluster.io_s",)

ALL = ("distinct_bimodal", "repeated_unimodal", "repeated_cliques",
       "ring_pipeline")

# layer metrics -> (end-to-end metric they should move, workloads).  The
# layers not listed for a workload are predicted not to move it.
PREDICTIONS = [
    (["partitions.canonicalize.n", "partitions.canonicalize.s",
      "sampler.load_partitions.s", "cache.build.s", "graphs.s"],
     "setup_s", ALL),
    (["sampler.mcmc.s", "sampler.mcmc.sweeps", "sampler.mcmc.sweeps_per_s"],
     "sample_s", ALL),
    (["tables.omega.n", "tables.omega.memo_hits", "tables.omega.exact.n",
      "tables.omega.exact.s", "tables.omega.exact.max_s",
      "tables.omega.over_budget.n", "tables.omega.estimated.n",
      "tables.omega.estimated.s", "tables.omega.s"],
     "cluster_s, describe_s",
     ("ring_pipeline", "repeated_cliques", "repeated_unimodal")),
    (["cache.lookups.n", "cache.pairs_requested", "cache.pairs_computed",
      "cache.hit_ratio", "cache.kernel.n", "cache.kernel.self_s",
      "cache.kernel.pairs_per_s", "cache.kernel.bytes"],
     "cluster_s", ("distinct_bimodal",)),
    (["cache.rows.n", "cache.rows.bytes", "cache.rows.both_directions_pairs",
      "cache.distinct_contents", "cache.margin_signatures"],
     "peak_rss_mb", ("distinct_bimodal",)),
    (["engine.init.s"], "cluster_s", ("ring_pipeline",)),
    (["engine.%s.%s" % (m, k) for m in MOVES for k in ("n", "accepted", "s")],
     "cluster_s (lambda=0; rejected proposals on repeated_unimodal)",
     ("repeated_cliques", "repeated_unimodal")),
    (["engine.steps", "engine.last_accept_step", "engine.tail.s",
      "engine.tail.share"],
     "cluster_s (lambda=1)",
     ("distinct_bimodal", "repeated_cliques", "repeated_unimodal")),
    (["engine.mode_search.exact.n", "engine.mode_search.exact.s",
      "engine.mode_search.sampled.n", "engine.mode_search.sampled.s",
      "engine.mode_search.candidates", "engine.mode_search.terms",
      "engine.mode_search.pruned_share", "engine.self.s"],
     "cluster_s", ("repeated_cliques", "repeated_unimodal")),
    (["objective.description_length.n", "objective.description_length.s",
      "objective.full_description_length.s"],
     "describe_s", ("ring_pipeline",)),
    (["cli.cluster.io_s"], "cluster_s", ("ring_pipeline",)),
]

LAYERS = ("partitions", "tables", "cache", "objective", "engine", "sampler",
          "graphs", "cli")


class _Process:
    """Spans of one traced process with their self times."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        self.children = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                self.children[parent].append(i)
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child)]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def attr(self, i, key, default=0):
        attrs = self.spans[i][4]
        return attrs.get(key, default) if attrs else default

    def parent_name(self, i):
        p = self.spans[i][3]
        return self.spans[p][0] if p >= 0 else None

    def outermost(self, prefix):
        """Spans under ``prefix`` with no enclosing span under it."""
        out = []
        for i, s in enumerate(self.spans):
            if not s[0].startswith(prefix):
                continue
            p = s[3]
            while p >= 0 and not self.spans[p][0].startswith(prefix):
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def derive(dumps) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self times (seconds) of one
    traced repetition, from the span dumps of all its processes."""
    m = defaultdict(float)
    layer_self = defaultdict(float)
    exact_max = 0.0
    evaluated = 0
    full_terms = 0
    snapshots = []
    for dump in dumps:
        p = _Process(dump["spans"])
        for i, s in enumerate(p.spans):
            layer_self[s[0].split(".", 1)[0]] += p.self_time[i]

        canon = p.named("partitions.canonicalize")
        m["partitions.canonicalize.n"] += len(canon)
        m["partitions.canonicalize.s"] += sum(p.dur(i) for i in canon)
        m["sampler.load_partitions.s"] += sum(
            p.dur(i) for i in p.named("sampler.load_partitions"))
        m["cache.build.s"] += sum(p.dur(i) for i in p.named("cache.build"))
        m["graphs.s"] += sum(p.dur(i) for i in p.outermost("graphs."))
        for i in p.named("sampler.mcmc"):
            m["sampler.mcmc.s"] += p.dur(i)
            m["sampler.mcmc.sweeps"] += p.attr(i, "sweeps")

        omega = p.named("tables.log2_omega")
        m["tables.omega.n"] += len(omega)
        m["tables.omega.memo_hits"] += sum(1 for i in omega if not p.children[i])
        m["tables.omega.s"] += sum(p.dur(i) for i in omega)
        for i in p.named("tables.count_tables_exact"):
            if p.attr(i, "raised", None):
                m["tables.omega.over_budget.n"] += 1
            else:
                m["tables.omega.exact.n"] += 1
                m["tables.omega.exact.s"] += p.dur(i)
                exact_max = max(exact_max, p.dur(i))
        gauss = p.named("tables.count_tables_gaussian")
        m["tables.omega.estimated.n"] += len(gauss)
        m["tables.omega.estimated.s"] += sum(p.dur(i) for i in gauss)

        lookups = p.named("cache.lookup") + p.named("cache.lookup_against_modes")
        m["cache.lookups.n"] += len(lookups)
        m["cache.pairs_requested"] += sum(p.attr(i, "pairs") for i in lookups)
        for i in p.named("cache.kernel"):
            m["cache.kernel.n"] += 1
            m["cache.kernel.self_s"] += p.self_time[i]
            m["cache.pairs_computed"] += p.attr(i, "pairs")
            m["cache.kernel.bytes"] += p.attr(i, "bytes")

        m["engine.init.s"] += sum(p.dur(i) for i in p.named("engine.init"))
        for move in MOVES:
            spans = p.named("engine.move." + move)
            m["engine.%s.n" % move] += len(spans)
            m["engine.%s.s" % move] += sum(p.dur(i) for i in spans)
        for kind in ("exact", "sampled"):
            spans = [i for i in p.named("engine.find_mode_" + kind)
                     if p.parent_name(i) != "engine.find_mode_sampled"]
            m["engine.mode_search.%s.n" % kind] += len(spans)
            m["engine.mode_search.%s.s" % kind] += sum(p.dur(i) for i in spans)
        for i in p.named("engine.find_mode_sampled"):
            terms = [p.attr(c, "pairs") for c in p.children[i]
                     if p.spans[c][0] == "cache.lookup_against_modes"]
            if terms:
                m["engine.mode_search.candidates"] += terms[0]
                m["engine.mode_search.terms"] += len(terms)
                evaluated += sum(terms)
                full_terms += terms[0] * len(terms)
        m["engine.self.s"] += sum(p.self_time[i] for i, s in enumerate(p.spans)
                                  if s[0].startswith("engine."))

        for i in p.named("engine.run"):
            run_s = p.dur(i)
            steps = p.attr(i, "steps", [])
            m["engine.steps"] += len(steps)
            accepted = [k for k, (_, _, acc) in enumerate(steps) if acc]
            for _, name, acc in steps:
                m["engine.%s.accepted" % name] += bool(acc)
            last = accepted[-1] if accepted else -1
            m["engine.last_accept_step"] = max(m["engine.last_accept_step"], last)
            moves = sorted((c for c in p.children[i]
                            if p.spans[c][0].startswith("engine.move.")),
                           key=lambda c: p.spans[c][1])
            if moves and len(moves) == len(steps):
                since = p.spans[moves[last]][2] if last >= 0 else p.spans[moves[0]][1]
                m["engine.tail.s"] += p.spans[moves[-1]][2] - since
            m["_run_s"] += run_s
            if p.attr(i, "cache", None):
                snapshots.append(p.attr(i, "cache"))

        objective = p.named("objective.description_length")
        m["objective.description_length.n"] += len(objective)
        m["objective.description_length.s"] += sum(p.dur(i) for i in objective)
        m["objective.full_description_length.s"] += sum(
            p.dur(i) for i in p.named("objective.full_description_length"))
        for i in p.named("cli.cluster"):
            inner = sum(p.dur(c) for c in p.children[i]
                        if p.spans[c][0] in ("sampler.load_partitions", "engine.run"))
            m["cli.cluster.io_s"] += p.dur(i) - inner

    m["tables.omega.exact.max_s"] = exact_max
    m["sampler.mcmc.sweeps_per_s"] = _ratio(m["sampler.mcmc.sweeps"],
                                            m["sampler.mcmc.s"])
    m["cache.hit_ratio"] = 1.0 - _ratio(m["cache.pairs_computed"],
                                        m["cache.pairs_requested"])
    m["cache.kernel.pairs_per_s"] = _ratio(m["cache.pairs_computed"],
                                           m["cache.kernel.self_s"])
    m["engine.mode_search.pruned_share"] = 1.0 - _ratio(evaluated, full_terms) \
        if full_terms else 0.0
    m["engine.tail.share"] = _ratio(m["engine.tail.s"], m.pop("_run_s"))
    if snapshots:
        last = max(snapshots, key=lambda s: s["bytes"])
        m["cache.rows.n"] = last["rows"]
        m["cache.rows.bytes"] = last["bytes"]
        m["cache.rows.both_directions_pairs"] = last["both"]
        m["cache.distinct_contents"] = last["contents"]
        m["cache.margin_signatures"] = last["margins"]
    out = {name: float(m.get(name, 0.0)) for name in UNITS
           if name != "trace.overhead_s"}
    return out, {layer: layer_self.get(layer, 0.0) for layer in LAYERS}


def check_predictions(workload, per_layer, layer_self, cluster_only,
                      rep_metrics) -> list[str]:
    """The expected traced split of each workload, held against what the
    traced repetition measured.  Informational: never a failure."""
    def verdict(ok):
        return "holds" if ok else "DOES NOT HOLD"

    lines = []
    kernel = per_layer["cache.kernel.self_s"]
    if workload == "ring_pipeline":
        exact, cluster = cluster_only["tables.omega.exact.s"], rep_metrics["cluster_s"]
        lines.append("tables.omega.exact.s in the cluster process %.3f s of "
                     "cluster_s %.3f s (%.0f%%): most of it %s"
                     % (exact, cluster, 100 * _ratio(exact, cluster),
                        verdict(exact > 0.5 * cluster)))
    elif workload == "distinct_bimodal":
        others = dict(layer_self, cache=layer_self["cache"] - kernel)
        top = max(others, key=others.get)
        lines.append("cache.kernel.self_s %.3f s against the largest other "
                     "layer self time, %s %.3f s: largest %s"
                     % (kernel, top, others[top], verdict(kernel > others[top])))
        n, total = per_layer["tables.omega.exact.n"], per_layer["tables.omega.n"]
        lines.append("tables.omega.exact.n %d of %d Omega calls: about 0 %s"
                     % (n, total, verdict(n <= 0.01 * max(total, 1))))
    elif workload in ("repeated_cliques", "repeated_unimodal"):
        engine = (per_layer["engine.self.s"]
                  + per_layer["engine.mode_search.exact.s"]
                  + per_layer["engine.mode_search.sampled.s"])
        lines.append("engine.self.s + engine.mode_search.{exact,sampled}.s "
                     "%.3f s against cache.kernel.self_s %.3f s: exceeds %s"
                     % (engine, kernel, verdict(engine > kernel)))
    return lines
