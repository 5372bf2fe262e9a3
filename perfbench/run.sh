#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# trace files stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/home"
(
	cd "${root}/perfbench"
	HOME="${build}/home" GOCACHE="${build}/gocache" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "${build}/perfbench" .
)
exec "${build}/perfbench" "$@"
