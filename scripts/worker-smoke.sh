#!/usr/bin/env bash
# End-to-end smoke for the distributed worker fleet: boots secddr-serve in
# fleet-only mode (-workers -1: the daemon executes nothing itself),
# attaches two secddr-worker processes, runs a QuickScale grid through
# them, SIGKILLs one worker while it provably holds leased jobs, and
# asserts that (a) the dead worker's leases are reclaimed and re-leased
# (crash-safe requeue), (b) the sweep still completes with every point
# executed exactly once, and (c) the results are byte-identical to a
# plain local secddr-sweep run of the same grid.
# Run from the repo root: ./scripts/worker-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  for p in "${pids[@]}"; do wait "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building"
go build -o "$work/secddr-serve" ./cmd/secddr-serve
go build -o "$work/secddr-worker" ./cmd/secddr-worker
go build -o "$work/secddr-sweep" ./cmd/secddr-sweep

# 3 modes x 4 workloads = 12 QuickScale points, each a few hundred ms of
# simulation: long enough that the kill lands mid-sweep, short enough for CI.
grid=(-quick -modes secddr+ctr,unprotected,integrity-tree -workloads mcf,lbm,pr,bc)

echo "== local baseline run (the byte-identity reference)"
"$work/secddr-sweep" "${grid[@]}" -store "" -out "$work/local.json" 2>"$work/local.log"
grep -q "12 points: 12 executed" "$work/local.log" \
  || { echo "FAIL: local baseline did not execute 12 points"; cat "$work/local.log"; exit 1; }

echo "== booting secddr-serve in fleet-only mode (zero local workers)"
"$work/secddr-serve" -addr 127.0.0.1:0 -store "$work/store" -workers -1 \
  -addr-file "$work/addr" 2>"$work/serve.log" &
serve_pid=$!
pids+=("$serve_pid")
for _ in $(seq 1 100); do
  [ -s "$work/addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log"; echo "server died"; exit 1; }
  sleep 0.1
done
[ -s "$work/addr" ] || { echo "server never published its address"; exit 1; }
url=$(cat "$work/addr")
echo "   $url"

metric() { curl -sf "$url/metrics" | sed -n "s/^$1 //p"; }

echo "== attaching two workers (1 sim each, 2s lease TTL)"
"$work/secddr-worker" -server "$url" -workers 1 -lease-ttl 2s -id w1 2>"$work/w1.log" &
pids+=("$!")
"$work/secddr-worker" -server "$url" -workers 1 -lease-ttl 2s -id w2 2>"$work/w2.log" &
w2_pid=$!
pids+=("$w2_pid")

echo "== submitting the grid through the fleet"
"$work/secddr-sweep" -server "$url" "${grid[@]}" -out "$work/fleet.json" 2>"$work/fleet.log" &
client_pid=$!

# Wait until both workers hold leases (each worker leases up to 2 jobs;
# a leased gauge of >= 3 means every worker holds at least one), then
# SIGKILL w2 mid-sweep — no drain, no release, leases simply go stale.
echo "== waiting for both workers to hold leases, then SIGKILL w2"
killed=0
for _ in $(seq 1 200); do
  leased=$(metric secddr_jobs_leased || echo 0)
  if [ "${leased:-0}" -ge 3 ]; then
    kill -KILL "$w2_pid"
    killed=1
    echo "   killed w2 with $leased jobs leased across the fleet"
    break
  fi
  kill -0 "$client_pid" 2>/dev/null || break   # sweep finished too fast
  sleep 0.05
done
[ "$killed" = 1 ] || { echo "FAIL: never saw both workers leased (sweep too fast?)"; cat "$work/fleet.log"; exit 1; }

echo "== sweep must still complete (w1 absorbs the reclaimed jobs)"
wait "$client_pid" || { echo "FAIL: fleet sweep failed"; cat "$work/fleet.log" "$work/serve.log" "$work/w1.log"; exit 1; }
cat "$work/fleet.log"
grep -q "12 points: 12 executed, 0 cached" "$work/fleet.log" \
  || { echo "FAIL: fleet run did not execute all 12 points exactly once"; exit 1; }

echo "== dead worker's leases were reclaimed"
requeued=$(metric secddr_jobs_requeued_total)
[ "${requeued:-0}" -ge 1 ] \
  || { echo "FAIL: secddr_jobs_requeued_total = ${requeued:-?}, want >= 1"; curl -sf "$url/metrics"; exit 1; }
echo "   secddr_jobs_requeued_total $requeued"

echo "== every execution happened on the fleet, store holds all 12 points"
curl -sf "$url/metrics" | tee "$work/metrics.txt" | grep -E "secddr_(jobs|fleet|queue|sims)" >/dev/null
grep -q "^secddr_sims_executed_total 12$" "$work/metrics.txt" \
  || { echo "FAIL: executed != 12"; exit 1; }
grep -q "^secddr_jobs_remote_done_total 12$" "$work/metrics.txt" \
  || { echo "FAIL: remote completions != 12 (fleet-only server must not simulate)"; exit 1; }
grep -q "^secddr_store_entries 12$" "$work/metrics.txt" \
  || { echo "FAIL: store does not hold the 12 points"; exit 1; }

echo "== fleet results are byte-identical to the local baseline"
# Strip provenance (campaign stats + per-outcome cached flags); the
# simulation payloads must match byte for byte regardless of which worker
# ran each point or how often a job was re-leased.
for f in local fleet; do
  grep -vE '"(cached|executed|deduped|forked|warmups)":' "$work/$f.json" > "$work/$f.stripped"
done
cmp -s "$work/local.stripped" "$work/fleet.stripped" \
  || { echo "FAIL: fleet results differ from the local run"; diff "$work/local.stripped" "$work/fleet.stripped" | head; exit 1; }

echo "== graceful daemon shutdown (SIGINT) with a worker still attached"
kill -INT "$serve_pid"
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "FAIL: secddr-serve did not exit after SIGINT"; cat "$work/serve.log"; exit 1
fi
wait "$serve_pid" || { echo "FAIL: secddr-serve exited non-zero"; cat "$work/serve.log"; exit 1; }

echo "PASS: worker fleet smoke"
