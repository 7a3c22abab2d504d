#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# stays under the root: the binary and Go caches in .bench_build, the
# run's scratch files in a .perfbench-work-* directory it removes.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/xdg"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/xdg"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
