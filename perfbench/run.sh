#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the arguments given:
#
#   bash perfbench/run.sh --workload cold-profile --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, temporary
# files, the binary and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
