#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload cold|fleet|edit --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, the binary,
# temporary cache/session files, span dumps) stays under perfbench/.work.
# The last line of standard output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$here/.work"
mkdir -p "$work/tmp" "$work/home"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" --work "$work" --root "$here/.." "$@"
