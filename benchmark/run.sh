#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. Everything the build leaves behind (module and
# build caches, temporary files, the binary) goes under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $PWD: the benchmark builds from a full checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
