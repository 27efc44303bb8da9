#!/usr/bin/env bash
# Smoke test of the installed partition-modes command, run in a fresh
# temporary directory: generate a ring of cliques, sample partitions of
# it, cluster them and describe the stored clustering.  Fails if a step
# exits non-zero or if describe does not score the stored clustering as
# cluster did, to within 1e-9.
#
#   bash scripts/cli_smoke.sh
set -euo pipefail
cd "$(mktemp -d)"
partition-modes generate cliques --cliques 4 --size 5 --out ring
partition-modes sample --graph ring.edges --s 50 --beta 50 --out ring.parts
partition-modes cluster --partitions ring.parts --out result.json
partition-modes describe --partitions ring.parts --clustering result.json > described.json
python - <<'PY'
import json
stored = json.load(open("result.json"))["objective"]["total"]
described = json.load(open("described.json"))["objective"]["total"]
if abs(stored - described) > 1e-9:
    raise SystemExit("describe total %r != cluster total %r" % (described, stored))
PY
