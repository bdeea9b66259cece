#!/usr/bin/env bash
# ctest integration test: `powergear estimate --metrics` (and the
# POWERGEAR_METRICS env fallback) must emit a powergear-obs-v1 JSON report
# containing every phase the estimate pipeline exercises, with percentile
# and counter fields. Registered by tools/CMakeLists.txt with the built CLI
# path as $1.
set -euo pipefail

CLI=${1:?usage: cli_metrics_test.sh <path-to-powergear-cli>}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

echo "--- train a tiny model (also exercises train --metrics)"
"$CLI" train --kernels atax,bicg --samples 6 --size 8 --epochs 2 --folds 2 \
    --seeds 1 --hidden 4 --kind dynamic --out model.pgm \
    --metrics train_metrics.json >/dev/null
test -s train_metrics.json || { echo "FAIL: train metrics missing"; exit 1; }
grep -q '"ensemble_fit"' train_metrics.json ||
    { echo "FAIL: train metrics lack ensemble_fit"; exit 1; }
python3 - <<'EOF'
import json
phases = json.load(open("train_metrics.json"))["phases"]
bwd = phases.get("backward")
assert bwd is not None, f"train metrics lack the backward phase: {sorted(phases)}"
# Backward sweeps past constant graph inputs: some nodes are skipped, not all.
nodes, skipped = bwd["counters"]["nodes"], bwd["counters"]["nodes_skipped"]
assert 0 < skipped < nodes, f"backward skipped {skipped} of {nodes} nodes"
# A training step is four phases, each entered once per minibatch.
for name in ("assemble", "forward", "optimizer"):
    ph = phases.get(name)
    assert ph is not None, f"train metrics lack the {name} phase: {sorted(phases)}"
    assert ph["calls"] == bwd["calls"], f"{name}: {ph['calls']} calls, backward {bwd['calls']}"
assert phases["optimizer"]["counters"]["steps"] == bwd["calls"]
EOF

echo "--- estimate --metrics emits all expected phase keys"
"$CLI" estimate --model model.pgm --kernel mvt --samples 6 --size 8 \
    --kind dynamic --metrics metrics.json >/dev/null
test -s metrics.json || { echo "FAIL: metrics.json missing"; exit 1; }

for key in '"schema": "powergear-obs-v1"' '"dataset_gen"' '"hls_schedule"' \
           '"sim_trace"' '"graphgen"' '"estimate_batch"' '"p50_ms"' \
           '"p95_ms"' '"max_ms"' '"counters"' '"rates_per_s"' \
           '"estimates": 6' '"wall_s"'; do
    grep -qF "$key" metrics.json ||
        { echo "FAIL: metrics.json missing $key"; cat metrics.json; exit 1; }
done

echo "--- gen --metrics attributes placement in both implementation flows"
"$CLI" gen --kernel atax --samples 4 --size 8 --metrics gen_metrics.json >/dev/null
python3 - <<'EOF'
import json
phases = json.load(open("gen_metrics.json"))["phases"]
place = phases.get("place")
assert place is not None, f"gen metrics lack the place phase: {sorted(phases)}"
# One board placement and one Vivado-like placement per design point.
assert place["calls"] == 8, f"want 8 placements for 4 points, got {place}"
assert place["counters"].get("moves", 0) > 0, f"place phase has no moves: {place}"
# Activity statistics are counted once per kernel trace and shared by the
# design points: both misses (streams) and memo hits show.
act = phases.get("activity")
assert act is not None, f"gen metrics lack the activity phase: {sorted(phases)}"
assert act["counters"].get("streams", 0) > 0, f"activity phase has no streams: {act}"
assert act["counters"].get("hits", 0) > 0, f"activity phase has no hits: {act}"
EOF

echo "--- POWERGEAR_METRICS env fallback"
POWERGEAR_METRICS=env_metrics.json "$CLI" gen --kernel atax --samples 4 \
    --size 8 >/dev/null
grep -qF '"dataset_gen"' env_metrics.json ||
    { echo "FAIL: POWERGEAR_METRICS fallback did not write a report"; exit 1; }

echo "--- no --metrics => no report, no noise"
"$CLI" gen --kernel atax --samples 4 --size 8 >/dev/null
test ! -e BENCH_metrics.json

echo "cli_metrics_test: ok"
