#!/usr/bin/env bash
# Builds specbench from this checkout's sources and runs it, passing every
# argument through, for example from the root of the repository:
#
#   bash specbench/run.sh --workload ingest-locking --seed 1 --seconds 40 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch stores all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/specbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/specbench" build -o "$out/specbench" . >&2
exec "$out/specbench" --workdir "$out" "$@"
