#!/usr/bin/env bash
# Builds the benchmark and the served binaries from this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload dp-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ there: the Go build cache, the binaries, span artefacts,
# journals and logs. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/bin"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files here too.
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C perfbench -o "$work/bin/perfbench" . >&2
go build -o "$work/bin/" ./cmd/merlind ./cmd/merlinrouter >&2
exec "$work/bin/perfbench" --bin "$work/bin" --out "$work/out" "$@"
