#!/usr/bin/env bash
# End-to-end smoke for the paper-figure path: secddr-figures at smoke
# scale on two workloads (mcf, pr), once for every figure (-fig all) and
# once for every ablation (-fig ablations), diffed byte for byte against
# scripts/testdata/figures-smoke.golden. Every run is seeded and
# deterministic, so any difference is a change in a printed figure.
#
# The golden changes only when simulated results do. Re-record it in the
# same commit as any simVersion bump (internal/sim/sim.go), with
#   ./scripts/figures-smoke.sh -record
# Run from the repo root: ./scripts/figures-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/testdata/figures-smoke.golden
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== building"
go build -o "$work/secddr-figures" ./cmd/secddr-figures

args=(-quick -workloads mcf,pr -instr 40000 -warmup 20000)
for fig in all ablations; do
  echo "== secddr-figures ${args[*]} -fig $fig"
  echo "# secddr-figures ${args[*]} -fig $fig" >> "$work/out"
  "$work/secddr-figures" "${args[@]}" -fig "$fig" >> "$work/out"
done

if [ "${1:-}" = "-record" ]; then
  cp "$work/out" "$golden"
  echo "recorded $golden"
  exit 0
fi

echo "== diff against $golden"
diff -u "$golden" "$work/out" || { echo "FAIL: figure output differs from $golden"; exit 1; }
echo "OK"
