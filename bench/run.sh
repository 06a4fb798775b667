#!/usr/bin/env bash
# Builds the benchmark and cmd/modelerd from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-hit --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binaries under .bench_build/, traces, per-run result
# files and scratch files under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/modelerd" ./cmd/modelerd
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -modelerd "$build/modelerd" -out "$root/.bench_out" "$@"
