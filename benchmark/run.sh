#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#	bash benchmark/run.sh --workload serve-read --seed 1 --seconds 16 --trace 0
#
# Everything the toolchain and the benchmark write stays inside the checkout:
# the build cache and binary under .bench_build/, store files and traces under
# benchmark/out/. In a directory without the netclus module beside benchmark/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/netclus-benchmark" . >&2
exec "$build/netclus-benchmark" -out "$here/out" "$@"
