#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash perfbench/run.sh --workload fig9|dense-nodmr|warpd-mix --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, temp stores,
# spans and result files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
