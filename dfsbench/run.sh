#!/usr/bin/env bash
# Builds the dfsd benchmark from the checkout it is run in and executes it:
#   bash dfsbench/run.sh --workload cold-jobs --seed 1 --seconds 30 --trace 0
#   bash dfsbench/run.sh steady --workload fanout-cold --runs 5
# Run from the repository root. Everything the build and the runs write stays
# under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -C "$root/dfsbench" -o "$out/dfsbench" .
cd "$root"
exec "$out/dfsbench" "$@"
