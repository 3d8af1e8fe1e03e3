#!/usr/bin/env bash
# End-to-end smoke for the observability layer. Three stages:
#
#   1. `secddr-sim -timeline` writes a Chrome/Perfetto trace of one run;
#      obscheck validates its golden shape (valid JSON, monotone
#      timestamps, the run/dram/mem categories, counter values).
#   2. A local-pool secddr-serve runs a QuickScale 2x2 grid; obscheck
#      asserts /metrics is valid Prometheus text exposition, carries the
#      build-info gauge, and that all four latency histograms counted
#      exactly the 4 executed jobs (including per-point sim wall).
#   3. A fleet-only secddr-serve with one attached secddr-worker runs
#      the same grid; obscheck asserts the fleet path feeds all four
#      histograms too (the worker uploads each point's wall time).
#
# Run from the repo root: ./scripts/obs-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
  for p in ${pids[@]+"${pids[@]}"}; do kill "$p" 2>/dev/null || true; done
  for p in ${pids[@]+"${pids[@]}"}; do wait "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building"
go build -o "$work/secddr-serve" ./cmd/secddr-serve
go build -o "$work/secddr-worker" ./cmd/secddr-worker
go build -o "$work/secddr-sweep" ./cmd/secddr-sweep
go build -o "$work/secddr-sim" ./cmd/secddr-sim
go build -o "$work/obscheck" ./scripts/obscheck

# boot_serve NAME EXTRA_ARGS... : starts a server, waits for its address
# file, and sets $url.
boot_serve() {
  local name=$1; shift
  "$work/secddr-serve" -addr 127.0.0.1:0 -store "$work/store-$name" \
    -addr-file "$work/addr-$name" "$@" 2>"$work/serve-$name.log" &
  local pid=$!
  pids+=("$pid")
  for _ in $(seq 1 100); do
    [ -s "$work/addr-$name" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$work/serve-$name.log"; echo "server $name died"; exit 1; }
    sleep 0.1
  done
  [ -s "$work/addr-$name" ] || { echo "server $name never published its address"; exit 1; }
  url=$(cat "$work/addr-$name")
  echo "   $name at $url"
}

grid=(-quick -modes secddr+ctr,unprotected -workloads mcf,lbm)

echo "== stage 1: -timeline trace golden shape"
"$work/secddr-sim" -workload mcf -instr 200000 -warmup 20000 \
  -timeline "$work/trace.json" >/dev/null 2>"$work/sim.log"
"$work/obscheck" -trace "$work/trace.json"

echo "== stage 2: local-pool serve, 2x2 grid, full histogram accounting"
boot_serve local
curl -sf "$url/healthz" | tee "$work/healthz.json" | grep -q '"status":"ok"' \
  || { echo "FAIL: /healthz not ok"; cat "$work/healthz.json"; exit 1; }
"$work/secddr-sweep" -server "$url" "${grid[@]}" -out "$work/run-local.json" 2>"$work/sweep-local.log"
"$work/obscheck" -metrics "$url/metrics" -jobs 4 -sim-wall 4

echo "== stage 3: fleet-only serve + one worker"
boot_serve fleet -workers -1
"$work/secddr-worker" -server "$url" -workers 2 -id obs-w1 2>"$work/worker.log" &
pids+=("$!")
"$work/secddr-sweep" -server "$url" "${grid[@]}" -out "$work/run-fleet.json" 2>"$work/sweep-fleet.log"
"$work/obscheck" -metrics "$url/metrics" -jobs 4 -sim-wall 4 -remote 4

echo "PASS: observability smoke"
