#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash benchmark/run.sh --workload serve_topk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache included —
# goes under .bench_build in the checkout, so a run touches nothing
# outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

# The benchmark is a module of its own (benchmark/go.mod) that replaces
# the ranksql module with the checkout around it; without that checkout
# this build fails and nothing runs.
go -C "$here" build -o "$out/rsbench" .
cd "$root"
exec "$out/rsbench" "$@"
