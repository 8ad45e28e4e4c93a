#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash bench/run.sh --workload peak --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the build's temporary files go
# under $CARGO_TARGET_DIR (default .bench_build) in the working
# directory, so a run writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
	go -C "$here" build -o "$build/softsku-bench" .
exec "$build/softsku-bench" "$@"
