#!/usr/bin/env bash
# Builds tkcm-serve and the benchmark from the source tree in the current
# directory (the repository root), then runs the benchmark with the given
# arguments. Binaries, the Go build cache, temporary files and run
# directories all live under .bench_build/ so nothing outside the checkout
# is written.
#
#   bash perfbench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/tkcm-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a tkcm source tree" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The local toolchain only, no workspace or inherited flags, and no C
# toolchain needed (both binaries are pure Go).
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/tkcm-serve" ./cmd/tkcm-serve
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$PWD" -out "$out" "$@"
