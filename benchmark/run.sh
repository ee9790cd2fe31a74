#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash benchmark/run.sh -workload tiny-uncached -seed 1 -seconds 30 -trace 0
#
# Every build output, Go cache and temporary file stays under
# .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mvpar" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
