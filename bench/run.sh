#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -prepare            # train the model zoo once, untimed
#
# Every file the build and the run write (Go build cache, trained zoo,
# binary) lands under .bench_build/ in the repository root, so a checkout
# stays self-contained.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || ! grep -qx 'module ranger' "$root/go.mod"; then
	echo "bench/run.sh: $root is not a ranger checkout (no go.mod for module ranger)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/go-cache" \
	GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local \
	GOENV=off \
	GOWORK=off \
	GOFLAGS= \
	RANGER_CACHE="$build/zoo"

(cd "$root/bench" && go build -o "$build/rangerbench" .)
exec "$build/rangerbench" "$@"
