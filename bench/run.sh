#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload guest-observed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, Go's own state, the binary)
# and every trace a run writes stays under .bench_build/ in the current
# directory. Without the repository's sources beside it the build fails,
# and so does this script, before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
