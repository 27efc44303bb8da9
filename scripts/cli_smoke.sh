#!/usr/bin/env bash
# Smoke test of the installed partition-modes command, run in a fresh
# temporary directory that is removed on exit: generate a ring of
# cliques, sample partitions of it twice with one seed, cluster them
# twice under two hash seeds and once more from a copy with a comment
# and a blank line inserted, and describe the stored clustering; then
# sample a planted graph with an isolated node, and run seven commands
# on bad input: a block model whose mixing matrix is a JSON object, a
# ring of two cliques, zero samples, a mode search over zero samples, a
# partition file with a label "x" on line 2, and a 250-line copy of the
# ring's samples with an "x" on line 230, past the first chunk of 204
# lines that the loader reads at 20 nodes.
# Fails if a step but the bad-input ones exits non-zero, if the two
# samples or the three clusterings and two agreement tables differ, if
# describe does not score the stored clustering as cluster did, to
# within 1e-9, if the agreement table lacks its header, a line per node
# or values in [0, 1], if a sampled partition of the planted graph does
# not cover its 40 nodes, or if a bad-input command does not exit 1 with
# one stderr line, starting "error:" ("error: invalid engine parameters"
# for the mode search, "error: line 2: non-integer label" for the short
# file), and no traceback; the long file must fail with exactly
# "error: line 230: non-integer label" and leave no result file.
#
#   bash scripts/cli_smoke.sh
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
partition-modes generate cliques --cliques 4 --size 5 --out ring
partition-modes sample --graph ring.edges --s 50 --beta 50 --out ring.parts
partition-modes sample --graph ring.edges --s 50 --beta 50 --out again.parts
cmp ring.parts again.parts
PYTHONHASHSEED=0 partition-modes cluster --partitions ring.parts --out result.json \
    --agreement-out agree.tsv
PYTHONHASHSEED=12345 partition-modes cluster --partitions ring.parts --out again.json \
    --agreement-out again.tsv
cmp result.json again.json
cmp agree.tsv again.tsv
# comment and blank lines are skipped
{ head -n 1 ring.parts; printf '# a comment\n\n'; tail -n +2 ring.parts; } > commented.parts
partition-modes cluster --partitions commented.parts --out commented.json
cmp result.json commented.json
partition-modes describe --partitions ring.parts --clustering result.json > described.json
python - <<'PY'
import json
stored = json.load(open("result.json"))["objective"]["total"]
described = json.load(open("described.json"))["objective"]["total"]
if abs(stored - described) > 1e-9:
    raise SystemExit("describe total %r != cluster total %r" % (described, stored))
K = json.load(open("result.json"))["K"]
lines = open("agree.tsv").read().splitlines()
if lines[0].split("\t") != ["node"] + ["mode%d" % k for k in range(K)]:
    raise SystemExit("agreement header %r" % lines[0])
if len(lines) != 1 + 20:
    raise SystemExit("agreement table has %d lines, expected 21" % len(lines))
for i, line in enumerate(lines[1:]):
    node, *values = line.split("\t")
    if int(node) != i or len(values) != K or not all(
            0 <= float(v) <= 1 for v in values):
        raise SystemExit("agreement line %r" % line)
PY
# node 39 of this planted graph has no edge
partition-modes generate planted --n 40 --q 4 --pin 0.1 --pout 0 --seed 0 --out planted
partition-modes sample --graph planted.edges --s 20 --out planted.parts
awk 'NF != 40 { print "line " NR ": " NF " labels, expected 40"; exit 1 }' planted.parts
# a command on bad input fails with one error line that starts $1
expect_error() {
    local prefix=$1 status=0
    shift
    partition-modes "$@" 2> bad.err || status=$?
    if [ "$status" -ne 1 ] || [ "$(wc -l < bad.err)" -ne 1 ] \
            || [[ "$(cat bad.err)" != "$prefix"* ]] || grep -q Traceback bad.err; then
        echo "partition-modes $*: exit $status, stderr:"
        cat bad.err
        exit 1
    fi
}
# a mixing matrix that is not an array of numbers
expect_error "error:" generate sbm --sizes 3,3 --omega '{"a": 1}' --out bad
expect_error "error:" generate cliques --cliques 2 --size 3 --out bad
expect_error "error:" sample --graph ring.edges --s 0 --out bad.parts
expect_error "error: invalid engine parameters" cluster --partitions ring.parts \
    --sample-size 0
printf '0 0 1\n0 x 1\n' > bad.parts
expect_error "error: line 2: non-integer label" cluster --partitions bad.parts
# the loader streams its file: an error past the first chunk names its line
cat ring.parts ring.parts ring.parts ring.parts ring.parts \
    | awk 'NR == 230 { $1 = "x" } 1' > long.parts
expect_error "error: line 230: non-integer label" cluster --partitions long.parts \
    --out long.json
if [ "$(cat bad.err)" != "error: line 230: non-integer label" ] || [ -e long.json ]; then
    echo "cluster of long.parts: stderr $(cat bad.err), result file left: $(ls long.json 2>/dev/null)"
    exit 1
fi
