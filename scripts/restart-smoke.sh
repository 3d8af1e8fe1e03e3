#!/usr/bin/env bash
# End-to-end smoke for sweep durability: boots secddr-serve with a WAL
# over a fresh store, submits a keyed sweep, SIGKILLs the daemon while
# the sweep is provably mid-flight, restarts it on the same address and
# store directory, and asserts that (a) the restarted server replays the
# WAL and resumes the sweep, (b) every grid point executes exactly once
# across both server lives (completions recorded before the kill replay
# from the store instead of re-running), and (c) the client — which kept
# its cursor-resuming stream open across the crash — reassembles results
# byte-identical to a plain local run of the same grid.
# Run from the repo root: ./scripts/restart-smoke.sh
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
go build -o "$work/secddr-sweep" ./cmd/secddr-sweep

# 3 modes x 4 workloads = 12 QuickScale points, a few hundred ms each:
# wide enough that the SIGKILL lands mid-sweep, short enough for CI.
grid=(-quick -modes secddr+ctr,unprotected,integrity-tree -workloads mcf,lbm,pr,bc)

echo "== local baseline run (the byte-identity reference)"
"$work/secddr-sweep" "${grid[@]}" -store "" -out "$work/local.json" 2>"$work/local.log"
grep -q "12 points: 12 executed" "$work/local.log" \
  || { echo "FAIL: local baseline did not execute 12 points"; cat "$work/local.log"; exit 1; }

# serve <logfile>: boot the daemon on $addr over the shared store and
# wait until it LEADS (after a SIGKILL the dead process's leader lease
# must first expire — 1s TTL here — before the new one can take over).
serve() {
  "$work/secddr-serve" -addr "${addr:-127.0.0.1:0}" -store "$work/store" -workers 2 \
    -lease-ttl 1s -addr-file "$work/addr" 2>"$work/$1" &
  serve_pid=$!
  pids+=("$serve_pid")
  leading=0
  for _ in $(seq 1 100); do
    url=$(cat "$work/addr" 2>/dev/null || true)
    if [ -n "$url" ] && curl -sf "$url/metrics" 2>/dev/null | grep -q "^secddr_leader 1$"; then
      leading=1
      break
    fi
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/$1"; echo "server died"; exit 1; }
    sleep 0.1
  done
  [ "$leading" = 1 ] || { echo "FAIL: server never took the leader lease"; cat "$work/$1"; exit 1; }
}

metric() { curl -sf "$url/metrics" | sed -n "s/^$1 //p"; }

echo "== booting secddr-serve (life 1)"
serve serve1.log
addr=${url#http://} # restart must rebind the same address: the client keeps it
echo "   $url"

echo "== submitting the keyed sweep"
"$work/secddr-sweep" -server "$url" -sweep-key restart-smoke "${grid[@]}" \
  -out "$work/fleet.json" 2>"$work/fleet.log" &
client_pid=$!
pids+=("$client_pid")

echo "== waiting for a mid-flight moment, then SIGKILL the daemon"
killed=0
for _ in $(seq 1 400); do
  done_sims=$(metric secddr_sims_executed_total || echo 0)
  if [ "${done_sims:-0}" -ge 2 ] && [ "${done_sims:-0}" -le 8 ]; then
    kill -KILL "$serve_pid"
    killed=1
    echo "   killed secddr-serve with $done_sims/12 points executed"
    break
  fi
  kill -0 "$client_pid" 2>/dev/null || break # sweep finished too fast
  sleep 0.05
done
[ "$killed" = 1 ] || { echo "FAIL: never caught the sweep mid-flight"; cat "$work/fleet.log"; exit 1; }
wait "$serve_pid" 2>/dev/null || true

echo "== restarting secddr-serve on the same address and store (life 2)"
rm -f "$work/addr"
serve serve2.log
echo "   $url"

echo "== restarted server must have replayed the WAL and resumed the sweep"
recovered_sweeps=$(metric secddr_sweeps_recovered_total)
[ "${recovered_sweeps:-0}" = 1 ] \
  || { echo "FAIL: secddr_sweeps_recovered_total = ${recovered_sweeps:-?}, want 1"; cat "$work/serve2.log"; exit 1; }

echo "== the crash-surviving client must finish the sweep"
wait "$client_pid" || { echo "FAIL: sweep client failed"; cat "$work/fleet.log" "$work/serve2.log"; exit 1; }
cat "$work/fleet.log"
grep -q "12 points:" "$work/fleet.log" || { echo "FAIL: client never printed its summary"; exit 1; }

echo "== zero lost, zero re-executed across the crash"
# Completions the WAL recorded before the kill replay from the store
# ("recovered" in the client's stats); the restarted server executes
# exactly the remainder. recovered + life-2 executions must equal 12.
recovered=$(grep -o '"recovered": *[0-9]*' "$work/fleet.json" | grep -o '[0-9]*' || echo 0)
life2=$(metric secddr_sims_executed_total)
echo "   recovered=$recovered life2_executed=${life2:-0}"
[ "${recovered:-0}" -ge 1 ] \
  || { echo "FAIL: no completions recovered (kill landed before any WAL record?)"; exit 1; }
[ $((recovered + ${life2:-0})) -eq 12 ] \
  || { echo "FAIL: recovered ($recovered) + re-run (${life2:-0}) != 12 — work lost or duplicated"; exit 1; }

echo "== WAL is live on the restarted server"
wal_records=$(metric secddr_wal_records_total)
[ "${wal_records:-0}" -ge 12 ] \
  || { echo "FAIL: secddr_wal_records_total = ${wal_records:-?}, want >= 12"; exit 1; }

echo "== resumed stream reassembles byte-identical to the local baseline"
# Strip provenance (campaign stats + per-outcome cached flags); the
# simulation payloads must match byte for byte no matter where the crash
# cut the stream.
for f in local fleet; do
  grep -vE '"(cached|executed|deduped|forked|warmups|recovered)":' "$work/$f.json" > "$work/$f.stripped"
done
cmp -s "$work/local.stripped" "$work/fleet.stripped" \
  || { echo "FAIL: post-crash results differ from the local run"; diff "$work/local.stripped" "$work/fleet.stripped" | head; exit 1; }

echo "== graceful daemon shutdown (SIGINT)"
kill -INT "$serve_pid"
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "FAIL: secddr-serve did not exit after SIGINT"; cat "$work/serve2.log"; exit 1
fi
wait "$serve_pid" || { echo "FAIL: secddr-serve exited non-zero"; cat "$work/serve2.log"; exit 1; }

echo "PASS: restart smoke"
