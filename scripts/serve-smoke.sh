#!/usr/bin/env bash
# End-to-end smoke for the campaign service: boots secddr-serve on a free
# port, submits a QuickScale 2x2 grid through the secddr-sweep client,
# re-submits the identical grid to prove the second run attaches to the
# finished sweep (idempotent keyed submission, 0 new simulations), runs
# it once more under a fresh key to prove the store serves it without
# simulating, and checks /metrics agrees.
# Run from the repo root: ./scripts/serve-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building"
go build -o "$work/secddr-serve" ./cmd/secddr-serve
go build -o "$work/secddr-sweep" ./cmd/secddr-sweep

echo "== booting secddr-serve on a random port"
"$work/secddr-serve" -addr 127.0.0.1:0 -store "$work/store" \
  -addr-file "$work/addr" 2>"$work/serve.log" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -s "$work/addr" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$work/serve.log"; echo "server died"; exit 1; }
  sleep 0.1
done
[ -s "$work/addr" ] || { echo "server never published its address"; exit 1; }
url=$(cat "$work/addr")
echo "   $url"

curl -sf "$url/healthz" >/dev/null

grid=(-server "$url" -quick -modes secddr+ctr,unprotected -workloads mcf,lbm)

echo "== first submission (must simulate all 4 points)"
"$work/secddr-sweep" "${grid[@]}" -out "$work/run1.json" 2>"$work/run1.log"
cat "$work/run1.log"
grep -q "4 points: 4 executed, 0 cached" "$work/run1.log" \
  || { echo "FAIL: first run did not execute all 4 points"; exit 1; }

echo "== identical re-submission (attaches to the finished sweep: 0 new simulations)"
"$work/secddr-sweep" "${grid[@]}" -out "$work/run2.json" 2>"$work/run2.log"
cat "$work/run2.log"
grep -q "4 points:" "$work/run2.log" \
  || { echo "FAIL: re-submission did not stream the full sweep back"; exit 1; }

echo "== fresh-key re-submission (must be 100% cache-hit: 0 simulations)"
"$work/secddr-sweep" "${grid[@]}" -sweep-key rerun -out "$work/run3.json" 2>"$work/run3.log"
cat "$work/run3.log"
grep -q "4 points: 0 executed, 4 cached" "$work/run3.log" \
  || { echo "FAIL: fresh-key re-submission was not served entirely from the store"; exit 1; }

echo "== results are identical across live, attached, and cached runs"
# Strip the provenance lines (campaign stats + per-outcome cached flags);
# the simulation payloads must match byte for byte.
for f in run1 run2 run3; do
  grep -vE '"(cached|executed|deduped|forked|warmups|recovered)":' "$work/$f.json" > "$work/$f.stripped"
done
cmp -s "$work/run1.stripped" "$work/run2.stripped" \
  || { echo "FAIL: attached-sweep results differ from live results"; exit 1; }
cmp -s "$work/run1.stripped" "$work/run3.stripped" \
  || { echo "FAIL: cached results differ from live results"; exit 1; }

echo "== /metrics agrees (4 sims ever, 4 cached jobs, store holds 4 entries)"
curl -sf "$url/metrics" | tee "$work/metrics.txt"
grep -q "^secddr_sims_executed_total 4$" "$work/metrics.txt" \
  || { echo "FAIL: metrics report extra simulations"; exit 1; }
grep -q "^secddr_jobs_cached_total 4$" "$work/metrics.txt" \
  || { echo "FAIL: metrics missed the cache-hit run"; exit 1; }
grep -q "^secddr_store_entries 4$" "$work/metrics.txt" \
  || { echo "FAIL: store does not hold the 4 points"; exit 1; }

echo "== direct curl submission works too, and a repeated PUT attaches"
body='{"modes":["unprotected"],"workloads":["mcf"],"quick":true}'
sid=$(curl -sf -X PUT "$url/v1/sweeps/smoke-curl" -d "$body" \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "FAIL: curl submission returned no id"; exit 1; }
curl -sf -X PUT "$url/v1/sweeps/smoke-curl" -d "$body" | grep -q '"attached":true' \
  || { echo "FAIL: identical PUT did not attach to the existing sweep"; exit 1; }
curl -sf "$url/v1/sweeps/$sid/results" >/dev/null
curl -sf "$url/v1/sweeps/$sid" | grep -q '"state":"done"' \
  || { echo "FAIL: curl-submitted sweep did not finish"; exit 1; }

echo "PASS: campaign service smoke"
