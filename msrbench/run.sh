#!/usr/bin/env bash
# Builds the msrbench benchmark from the source in this checkout and runs
# it with the given arguments. Run from the root of the repository:
#
#   bash msrbench/run.sh --workload dp-solve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/,
# including the Go build cache, so nothing is written outside the
# checkout. The first build compiles the standard library into that
# cache and takes about a minute; later builds are incremental.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/service ] || [ ! -f msrbench/go.mod ]; then
	echo "msrbench: run from the root of the msrnet repository" >&2
	exit 2
fi
root=$(pwd)
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C msrbench -o "$root/.bench_build/msrbench" .
exec "$root/.bench_build/msrbench" "$@"
