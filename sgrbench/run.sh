#!/usr/bin/env bash
# Builds the benchmark and the two daemons from the checkout's sources,
# then runs one workload. Run from the root of a checkout:
#
#	bash sgrbench/run.sh --workload restore-rc500 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

cd "$here"
go build -o "$out/bin/sgrbench" . >&2
go build -o "$out/bin/graphd" sgr/cmd/graphd >&2
go build -o "$out/bin/restored" sgr/cmd/restored >&2
cd "$root"
exec "$out/bin/sgrbench" -bin "$out/bin" -work "$out" "$@"
