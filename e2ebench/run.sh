#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-grid --seed 42 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# Keep every file the go command writes inside the build directory and
# never fetch a toolchain or module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/home" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
