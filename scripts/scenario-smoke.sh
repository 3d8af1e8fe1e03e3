#!/usr/bin/env bash
# End-to-end smoke for the scenario engine: runs the committed quick.json
# manifest (heterogeneous, phase-switching scenarios) through secddr-sweep
# locally, then twice against a secddr-serve daemon booted in fleet-only
# mode with one secddr-worker attached — the manifest definitions cross
# the wire as scenario_defs and every remote point executes on the fleet
# worker — and asserts that (a) all three runs produce byte-identical
# simulation payloads, and (b) the second server submission is a 100%
# cache hit (0 simulations).
# Run from the repo root: ./scripts/scenario-smoke.sh
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

# 2 manifest scenarios x 2 modes = 4 QuickScale points.
grid=(-scenario-file examples/scenarios/quick.json -quick -modes secddr+ctr,unprotected)

echo "== local manifest run (the byte-identity reference)"
"$work/secddr-sweep" "${grid[@]}" -store "" -out "$work/local.json" 2>"$work/local.log"
cat "$work/local.log"
grep -q "4 points: 4 executed, 0 cached" "$work/local.log" \
  || { echo "FAIL: local manifest run did not execute 4 points"; exit 1; }

echo "== booting secddr-serve in fleet-only mode (zero local workers)"
"$work/secddr-serve" -addr 127.0.0.1:0 -store "$work/store" -workers -1 \
  -addr-file "$work/addr" 2>"$work/serve.log" &
server_pid=$!
pids+=("$server_pid")
for _ in $(seq 1 100); do
  [ -s "$work/addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$work/serve.log"; echo "server died"; exit 1; }
  sleep 0.1
done
[ -s "$work/addr" ] || { echo "server never published its address"; exit 1; }
url=$(cat "$work/addr")
echo "   $url"

echo "== attaching one fleet worker"
"$work/secddr-worker" -server "$url" -workers 2 -id scenario-w1 2>"$work/w1.log" &
pids+=("$!")

echo "== first -server submission (manifest crosses the wire; must simulate all 4 on the worker)"
"$work/secddr-sweep" "${grid[@]}" -server "$url" -out "$work/remote1.json" 2>"$work/remote1.log"
cat "$work/remote1.log"
grep -q "4 points: 4 executed, 0 cached" "$work/remote1.log" \
  || { echo "FAIL: first server run did not execute all 4 points"; exit 1; }
curl -sf "$url/metrics" | grep -q "^secddr_jobs_remote_done_total 4$" \
  || { echo "FAIL: the fleet worker did not execute all 4 points"; curl -sf "$url/metrics"; exit 1; }

echo "== fresh-key re-submission (must be 100% cache-hit: 0 simulations)"
# A fresh key: the default key derives from the spec, so an identical
# unnamed re-submission would attach to the finished sweep instead.
"$work/secddr-sweep" "${grid[@]}" -server "$url" -sweep-key scenario-rerun -out "$work/remote2.json" 2>"$work/remote2.log"
cat "$work/remote2.log"
grep -q "4 points: 0 executed, 4 cached" "$work/remote2.log" \
  || { echo "FAIL: re-submission was not served entirely from the store"; exit 1; }

echo "== local, remote, and cached outputs are byte-identical"
# Strip the provenance lines (campaign stats + per-outcome cached flags);
# the simulation payloads must match byte for byte.
for f in local remote1 remote2; do
  grep -vE '"(cached|executed|deduped|forked|warmups)":' "$work/$f.json" > "$work/$f.stripped"
done
cmp -s "$work/local.stripped" "$work/remote1.stripped" \
  || { echo "FAIL: remote scenario results differ from local results"; exit 1; }
cmp -s "$work/remote1.stripped" "$work/remote2.stripped" \
  || { echo "FAIL: cached results differ from live results"; exit 1; }

echo "PASS: scenario engine smoke"
