#!/bin/sh
# check_docs.sh — docs freshness gate.
#
# Every relative markdown link in README.md and docs/*.md must resolve
# to a file or directory that exists, so the README's pointers into the
# tree (architecture doc, benchmark module, scripts) cannot silently rot
# as the codebase is refactored. The nested tools/ module (retypd-vet
# and its meta-test, which pins the ARCHITECTURE.md invariants table to
# the analyzer suite) must also build and pass its tests — the main
# module's ./... does not cover it.
#
# Usage: scripts/check_docs.sh
set -eu
cd "$(dirname "$0")/.."

echo "== tools module builds and tests pass =="
(cd tools && go build ./... && go test ./...)

fail=0
for f in README.md docs/*.md; do
  [ -f "$f" ] || continue
  dir=$(dirname "$f")
  # Extract (target) parts of [text](target) links, one per line.
  links=$(grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*) continue ;;
    esac
    target=${link%%#*}
    [ -n "$target" ] || continue # pure in-page anchor
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: $f: broken link: $link" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAIL" >&2
  exit 1
fi
echo "check_docs: OK — all relative links resolve"
