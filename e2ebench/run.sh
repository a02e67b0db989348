#!/usr/bin/env bash
# Builds the benchmark and the cached server from this checkout's source,
# then runs the benchmark. Run from the checkout root:
#
#   bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/e2ebench" .
go build -C "$root" -o "$out/cached" ./cmd/cached
exec "$out/e2ebench" --root "$root" --cached "$out/cached" "$@"
