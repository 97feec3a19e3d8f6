#!/bin/sh
# clusterbench: the scale-out saturation study behind BENCH_PR10.json
# (DESIGN.md §14). For each cluster size (1, 2, 4 replicas) it boots the
# replicas on a fresh shared store behind fdagate, drives the same
# geometric `fdaload -ramp` through the gateway, captures each replica's
# /v1/metrics snapshot, and finally folds the per-size ramp reports into
# one capacity report (BENCH_PR*.json shape) with `fdagate -analyze`.
#
# Methodology: the workload submits *distributed* train jobs (the
# server admits each one and parks it waiting for fabric workers, like
# the thousand-job load test), so a job costs a replica an admission
# slot rather than host CPU. That makes the measured resource the
# per-replica admission capacity (-max-queue), which is the thing that
# actually multiplies when replicas are added — the study stays honest
# on a single-core CI box where N co-hosted replicas cannot multiply
# FLOPs. Saturation shows up as 503 shed load (counted, never an
# error); the knee is the last ramp level the cluster absorbs with
# <10% rejections.
#
# Usage: scripts/clusterbench.sh [outfile]   (default BENCH_PR10.json)
set -eu

OUT=${1:-BENCH_PR10.json}
WORK=.clusterbench
GO=${GO:-go}
PORT_GATE=18100
PORT_BASE=18110
MAX_QUEUE=62
RAMP="5,10,20,40,80,160"

rm -rf "$WORK"
mkdir -p "$WORK"
$GO build -o "$WORK/" ./cmd/fdaserve ./cmd/fdagate ./cmd/fdaload

# The shared workload spec: two-thirds distributed train submissions
# (fresh seed per request — real admissions, no dedupe), the rest
# status and catalog reads. The heavy train fraction and 4s levels
# keep Poisson noise ≥2.4σ away from every knee boundary: with
# -max-queue 62 and the ×2 ramp grid, the expected knees sit at
# 10/20/40 req/s for 1/2/4 replicas.
cat >"$WORK/spec.json" <<'EOF'
{
  "arrival": {"process": "poisson", "rate": 1},
  "duration_sec": 4,
  "seed": 11,
  "mix": [
    {"kind": "train", "weight": 4, "train": {
      "model": "lenet5s", "strategy": "LinearFDA", "k": 1, "batch": 8,
      "steps": 100000, "eval_every": 50000, "seed_base": 1,
      "distributed": true}},
    {"kind": "status", "weight": 1},
    {"kind": "store", "weight": 1}
  ]
}
EOF

PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    PIDS=""
}
trap cleanup EXIT INT TERM

# POSIX sh has no locals: the tries counter must not collide with the
# callers' loop variables.
wait_healthz() {
    tries=0
    while ! curl -sf "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; do
        tries=$((tries + 1))
        [ "$tries" -ge 100 ] && { echo "clusterbench: $2 on :$1 never came up" >&2; exit 1; }
        sleep 0.1
    done
}

run_series() {
    n=$1
    echo "clusterbench: === $n replica(s), ramp $RAMP req/s ===" >&2
    store="$WORK/store$n"
    mkdir -p "$store"
    replicas=""
    i=0
    while [ "$i" -lt "$n" ]; do
        port=$((PORT_BASE + i))
        "$WORK/fdaserve" -store "$store" -addr "127.0.0.1:$port" -name "r$i" \
            -max-queue $MAX_QUEUE -fabric 127.0.0.1:0 \
            >"$WORK/serve$n-$i.log" 2>&1 &
        PIDS="$PIDS $!"
        replicas="$replicas,http://127.0.0.1:$port"
        i=$((i + 1))
    done
    replicas=${replicas#,}
    i=0
    while [ "$i" -lt "$n" ]; do
        wait_healthz $((PORT_BASE + i)) "replica r$i"
        i=$((i + 1))
    done
    "$WORK/fdagate" -addr "127.0.0.1:$PORT_GATE" -replicas "$replicas" \
        -poll 500ms >"$WORK/gate$n.log" 2>&1 &
    PIDS="$PIDS $!"
    wait_healthz $PORT_GATE fdagate

    "$WORK/fdaload" -addr "http://127.0.0.1:$PORT_GATE" -spec "$WORK/spec.json" \
        -ramp "$RAMP" -out "$WORK/ramp$n.json" -check -max-rejected 0.95

    # Per-replica metrics snapshots feed the queue-wait percentiles of
    # the capacity report.
    snaps=""
    i=0
    while [ "$i" -lt "$n" ]; do
        curl -sf "http://127.0.0.1:$((PORT_BASE + i))/v1/metrics" \
            >"$WORK/metrics$n-$i.json"
        snaps="$snaps:$WORK/metrics$n-$i.json"
        i=$((i + 1))
    done
    SERIES="$SERIES,$n=$WORK/ramp$n.json$snaps"
    cleanup
}

SERIES=""
for n in 1 2 4; do
    run_series "$n"
done

"$WORK/fdagate" -analyze "${SERIES#,}" -out "$OUT"
echo "clusterbench: wrote $OUT" >&2
