#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload arrivals --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and each run's model and graph
# files. The build fails (and so does this script) outside a checkout of
# the repository, since the benchmark compiles against its packages.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
