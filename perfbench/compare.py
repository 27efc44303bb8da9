"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds runs appended by ``run.py --record FILE`` (untraced runs
are used; traced ones are skipped).  For every workload and end-to-end
metric the verdict is:

* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``improved``: NEW's median is better by more than BASE's interquartile
  spread, and NEW beats BASE in at least nine tenths of the run pairs;
* ``unresolved``: either side's spread is wider than the bound, unless
  every NEW run is better than every BASE run (then ``improved``);
* ``agreeing``: none of the above.

Exits 1 if any pairing regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> dict:
    """workload -> metric -> values, in the order the runs were made."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        for name, metric in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(float(metric["value"]))
    return runs


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, new, bound, lower_is_better) -> tuple[str, float]:
    """Verdict and the relative change of the median (positive = worse)."""
    sign = 1.0 if lower_is_better else -1.0
    m_base, m_new = statistics.median(base), statistics.median(new)
    worse = sign * (m_new - m_base) / m_base

    def better(a, b):
        return sign * (a - b) < 0

    if all(better(n, b) for n in new for b in base):
        return "improved", worse
    if spread(base) > bound or spread(new) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and -worse * m_base > spread(base) * m_base):
        return "improved", worse
    return "agreeing", worse


def compare(base_path, new_path, spec=None) -> tuple[list, bool]:
    spec = spec or json.loads(BENCHMARK.read_text())
    base, new = load_runs(base_path), load_runs(new_path)
    rows, regressed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload][name], new[workload][name]
            if not a or not b:
                rows.append((workload, name, "missing", len(a), len(b),
                             None, None, None))
                continue
            what, change = verdict(a, b, metric["bound"],
                                   metric["better"] == "lower")
            regressed |= what == "regressed"
            rows.append((workload, name, what, len(a), len(b),
                         statistics.median(a), statistics.median(b), change))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, regressed = compare(*argv)
    print("%-18s %-12s %-10s %5s %5s %14s %14s %8s" % (
        "workload", "metric", "verdict", "n_a", "n_b", "median_a", "median_b",
        "worse"))
    for workload, name, what, na, nb, ma, mb, change in rows:
        if ma is None:
            print("%-18s %-12s %-10s %5d %5d" % (workload, name, what, na, nb))
        else:
            print("%-18s %-12s %-10s %5d %5d %14.6f %14.6f %+7.2f%%" % (
                workload, name, what, na, nb, ma, mb, 100 * change))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
