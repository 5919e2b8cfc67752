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
#   2. Cross-program serving, counted: binary #2 analyzed with binary
#      #1's -cachefile must report (retypd -cachestats) cross-program
#      body-class hits, and at most half the body-dedup misses of its
#      cold run — the binaries share half their code, and that half is
#      served from binary #1's classes. If the table stops serving
#      across program boundaries — a fingerprint that absorbs the
#      procedure name, a table that never persists — the renamed shared
#      library recomputes: cross-program hits drop to 0 and the misses
#      return to their cold count. The counts are deterministic, so the
#      gate cannot flake on a noisy machine the way a timing ratio does.
#
# Usage: scripts/check_fleet.sh
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== fleet gate 1: binary #2 warm output must be byte-identical to cold =="
go build -o "$work/retypd" ./cmd/retypd
go build -o "$work/benchgen" ./cmd/benchgen
"$work/benchgen" -o "$work/corpus" -fleet 2 -shared 0.5 -fleetinsts 4000 >/dev/null

b1="$work/corpus/fleet-00.sasm"
b2="$work/corpus/fleet-01.sasm"
"$work/retypd" -cachestats "$b2" > "$work/cold2.out" 2> "$work/cold2.err"
"$work/retypd" -cachefile "$work/cache" "$b1" >/dev/null
"$work/retypd" -cachestats -cachefile "$work/cache" "$b2" > "$work/warm2.out" 2> "$work/warm2.err"
if ! cmp -s "$work/cold2.out" "$work/warm2.out"; then
  echo "check_fleet: FAIL — warm output for binary #2 differs from its cold output" >&2
  diff "$work/cold2.out" "$work/warm2.out" | head >&2
  exit 1
fi
echo "byte-identical: $(wc -l < "$work/cold2.out") output lines match"

echo "== fleet gate 2: binary #2 against binary #1's cache must hit cross-program and halve its body-dedup misses =="
# The -cachestats line reads "FILE: body dedup: H hits / M misses (C
# cross-program); ..."; print "M C".
dedup() {
  sed -n 's/.*body dedup: [0-9]* hits \/ \([0-9]*\) misses (\([0-9]*\) cross-program).*/\1 \2/p' "$1"
}
cold=$(dedup "$work/cold2.err")
warm=$(dedup "$work/warm2.err")
if [ -z "$cold" ] || [ -z "$warm" ]; then
  echo "check_fleet: FAIL — no body dedup counts in retypd -cachestats output" >&2
  cat "$work/cold2.err" "$work/warm2.err" >&2
  exit 1
fi
set -- $cold
cold_misses=$1
set -- $warm
warm_misses=$1 warm_cross=$2
echo "binary #2 cold: $cold_misses misses; against binary #1's cache: $warm_misses misses, $warm_cross cross-program hits"
if [ "$warm_cross" -eq 0 ]; then
  echo "check_fleet: FAIL — binary #2 got no cross-program body-class hits from binary #1's cache" >&2
  exit 1
fi
if [ $((2 * warm_misses)) -gt "$cold_misses" ]; then
  echo "check_fleet: FAIL — $warm_misses body-dedup misses against the cache, more than half of the $cold_misses cold" >&2
  exit 1
fi
echo "check_fleet: OK"
