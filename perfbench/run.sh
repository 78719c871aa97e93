#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload drilldown --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root (no go.mod here)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
