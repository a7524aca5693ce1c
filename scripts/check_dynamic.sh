#!/usr/bin/env bash
# CI gate for the dynamic-graph subsystem: run the mixed read/write load
# harness at toy scale with XBFS_SANITIZE=all and XBFS_RUN_REPORT active,
# then require
#   - zero unannotated SimSan findings across the mirror sync and the Xbfs
#     kernels it runs (the bench itself exits non-zero otherwise),
#   - every run of the small-batch churn sweep (batches <= 1% of |E|)
#     equal to the host reference BFS (the bench exits non-zero otherwise)
#     and its first-run-after-epoch modelled time recorded, and
#   - the run record carrying the epoch-churn serving counters.
#
#   usage: check_dynamic.sh <bench_dynamic-binary> [workdir]
set -euo pipefail

BENCH=${1:?usage: check_dynamic.sh <bench_dynamic-binary> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

REPORT="$WORKDIR/check_dynamic.report.json"
rm -f "$REPORT"

# Toy scale keeps this in CI-seconds: 8 update rounds of ~0.5%-of-|E|
# batches on a scale-12 RMAT graph, then 96 Zipf reads with 8 interleaved
# update batches against the serving lane.
XBFS_RUN_REPORT="$REPORT" XBFS_SANITIZE=all \
  "$BENCH" --scale=12 --edge-factor=8 --rounds=8 --queries=96 \
           --candidates=16 --updates=8 \
           > "$WORKDIR/check_dynamic.stdout" 2>&1 || {
    echo "FAIL: bench_dynamic exited non-zero"
    cat "$WORKDIR/check_dynamic.stdout"
    exit 1
  }

[[ -s "$REPORT" ]] || { echo "FAIL: $REPORT was not written"; exit 1; }

grep -q "SimSan" "$WORKDIR/check_dynamic.stdout" || {
  echo "FAIL: sanitizer summary missing from bench output"
  cat "$WORKDIR/check_dynamic.stdout"
  exit 1
}

python3 - "$REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema"] == "xbfs-run-report", report.get("schema")
runs = report["runs"]

# --- churn sweep (emitted by bench_dynamic) --------------------------------
bench = next(r for r in runs if r["tool"] == "bench_dynamic")
cfg = bench["config"]
for key in ("batch_edges", "batch_edge_pct", "churn_rounds",
            "first_run_ms", "churn_hit_rate", "graph_epoch",
            "cache_epoch_bumps", "repairs", "recomputes"):
    assert key in cfg, f"bench_dynamic record missing '{key}'"

assert float(cfg["batch_edge_pct"]) <= 1.0, cfg["batch_edge_pct"]
assert int(cfg["churn_rounds"]) == 8, cfg["churn_rounds"]
first_run_ms = float(cfg["first_run_ms"])
assert first_run_ms > 0.0, f"first_run_ms {first_run_ms}"
assert 0.0 <= float(cfg["churn_hit_rate"]) <= 1.0
assert int(cfg["graph_epoch"]) > 0
assert int(cfg["cache_epoch_bumps"]) > 0
assert int(cfg["completed"]) == int(cfg["queries"])

# --- serving summary (emitted by Server::shutdown) -------------------------
serve = next(r for r in runs if r["tool"] == "serve")
scfg = serve["config"]
for key in ("dynamic", "updates_applied", "graph_epoch",
            "cache_epoch_bumps", "cache_purged_stale", "repairs",
            "recomputes", "repair_fallbacks"):
    assert key in scfg, f"serving summary missing '{key}'"
assert scfg["dynamic"] == "1", scfg["dynamic"]
assert int(scfg["updates_applied"]) > 0

print(f"OK: first_run_ms={first_run_ms:.3f} "
      f"batch={float(cfg['batch_edge_pct']):.2f}%|E| "
      f"epochs={cfg['graph_epoch']} "
      f"churn_hit_rate={float(cfg['churn_hit_rate']):.2f}")
EOF

echo "check_dynamic: PASS"
