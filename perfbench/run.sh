#!/usr/bin/env bash
# Builds the benchmark and the offt-serve binary it drives from the source
# tree it sits in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-slab-64 --seed 1 --seconds 20 --trace 0
#
# Every build product, cache, temporary file and Go telemetry counter stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/offt-serve" offt/cmd/offt-serve)
exec "$out/perfbench" --serve-bin "$out/offt-serve" "$@"
