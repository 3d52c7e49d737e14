#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload hier --seed 9 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file the benchmark writes stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/nexsort-bench" .)
exec "$build/nexsort-bench" "$@"
