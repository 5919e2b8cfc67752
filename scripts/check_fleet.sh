#!/bin/sh
# check_fleet.sh — cross-program body-class regression gate.
#
# A fleet of binaries built from one codebase (cmd/benchgen -fleet:
# half of each binary is a common library under a binary-local rename)
# is the deployment the persistent body-class table exists for. The
# gate holds the layer to its two-sided contract:
#
#   1. Byte-identity, end to end through the CLI: binary #2 analyzed by
#      a fresh retypd process with binary #1's -cachefile must print
#      exactly what it prints with no cache. The cache may only change
#      how much work runs, never the answer.
#   2. Speedup: binary #2's inference against binary #1's persisted
#      cache must be at least `threshold`× faster than binary #1 cold
#      (eval.RunFleet: median of 5 trials each, fresh engine per trial,
#      cache load outside the timer — a serving process pays that once
#      per restart, the analysis once per binary). Body-class entries
#      are decoded on their first hit, so the timer does cover decoding
#      the entries binary #2 hits. If the table
#      stops serving across program boundaries — a fingerprint that
#      absorbs the procedure name, a table that never persists — the
#      renamed shared library recomputes and the ratio collapses to ~1.
#
# The threshold is deliberately loose (1.5×, against the ~2× a healthy
# run shows): it must hold on noisy shared CI machines, not certify
# peak serving throughput.
#
# Usage: scripts/check_fleet.sh [threshold]
set -eu
cd "$(dirname "$0")/.."

thresh="${1-1.5}"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== fleet gate 1: binary #2 warm output must be byte-identical to cold =="
go build -o "$work/retypd" ./cmd/retypd
go build -o "$work/benchgen" ./cmd/benchgen
"$work/benchgen" -o "$work/corpus" -fleet 2 -shared 0.5 -fleetinsts 4000 >/dev/null

b1="$work/corpus/fleet-00.sasm"
b2="$work/corpus/fleet-01.sasm"
"$work/retypd" "$b2" > "$work/cold2.out"
"$work/retypd" -cachefile "$work/cache" "$b1" >/dev/null
"$work/retypd" -cachefile "$work/cache" "$b2" > "$work/warm2.out"
if ! cmp -s "$work/cold2.out" "$work/warm2.out"; then
  echo "check_fleet: FAIL — warm output for binary #2 differs from its cold output" >&2
  diff "$work/cold2.out" "$work/warm2.out" | head >&2
  exit 1
fi
echo "byte-identical: $(wc -l < "$work/cold2.out") output lines match"

echo "== fleet gate 2: binary #2 warm must be >= ${thresh}x faster than binary #1 cold =="
if ! go run ./cmd/retypd-eval -exp fleet -parsize 4000 -fleetn 2 -timings "$work/t.json" >/dev/null; then
  echo "check_fleet: FAIL — cmd/retypd-eval exited nonzero" >&2
  exit 1
fi

# Flat key/value parse of the MarshalIndent point array: Seconds
# precedes Kind within each point, so the value is banked and assigned
# when the point's Kind shows up.
speedup=$(awk '
  /"Seconds"/ { gsub(/,/, "", $2); s = $2 + 0 }
  /"Kind"/ {
    if ($2 ~ /fleet-cold/ && c == 0) c = s
    if ($2 ~ /fleet-warm/ && w == 0) w = s
  }
  END {
    if (c == 0 || w == 0) { print "NaN"; exit }
    printf "%.3f", c / w
  }' "$work/t.json")

if [ "$speedup" = "NaN" ]; then
  echo "check_fleet: FAIL — could not extract fleet-cold/fleet-warm points from timings" >&2
  cat "$work/t.json" >&2
  exit 1
fi

echo "binary #2 warm vs binary #1 cold: ${speedup}x (median of 5)"
ok=$(awk -v s="$speedup" -v t="$thresh" 'BEGIN { print (s >= t) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
  echo "check_fleet: FAIL — speedup ${speedup}x below threshold ${thresh}x" >&2
  exit 1
fi
echo "check_fleet: OK — speedup ${speedup}x >= ${thresh}x"
