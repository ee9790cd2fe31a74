#!/usr/bin/env sh
# benchgate: the benchmark regression gate. It runs the gated benchmarks
# of a base revision and of the working tree on this machine, in
# alternation, and fails when the working tree allocates more
# (cmd/benchcmp -gate states the rules).
#
#   sh scripts/benchgate.sh [-base REV]
#
# The base revision (default HEAD; CI passes the pull request's
# merge-base) is extracted with `git archive` under
# .bench_build/benchgate/base; the change is the working tree as it is.
# Each side's root package is compiled once with `go test -c`. Round i
# runs both binaries, the base first on odd rounds and the working tree
# first on even ones. Each run is one -benchtime 5x -benchmem pass with
# GOGC=off, read for allocs/op:
#
#   - allocs/op depends on the iteration count (first-iteration
#     allocations are spread over all of them), so both sides read it at
#     the same fixed count;
#   - it also depends on when the collector runs: ProfileCorpus read
#     1,949-1,952 across the rounds of one binary with the collector on,
#     and 1,942 in 49 of 50 rounds with it off (the gate's minimum over
#     rounds absorbs the odd one). The pass peaks at about 50 MB
#     resident.
#
# ns/op of these runs is printed beside allocs/op but not gated: on a
# shared 2-vCPU machine neither 5x nor 1s passes told a 20% slowdown
# from run-to-run noise and code placement.
#
# The logs land in .bench_build/benchgate/logs/{base,head}.log.
set -eu

# The gated benchmarks: the allocation-sensitive hot paths. A top-level
# alternative may name one sub-benchmark (DatasetEncode/jobs1 leaves out
# jobs4, whose count depends on the machine's worker count). With the
# collector off ClassifyNPB read 9,934 in all 40 rounds of two 10-round
# runs of one binary, and DatasetEncode/jobs1 16,176-16,178 with the
# minimum of every 5 consecutive rounds at 16,176.
GATEBENCH='TrainStepAllocs|SpMM|ClassifyTracingDisabled|ForwardF32|ForwardI8|WalkSample|ProfileCorpus|ClassifyNPB|DatasetEncode/jobs1'
ROUNDS=5

BASE=HEAD
while [ $# -gt 0 ]; do
	case "$1" in
	-base) BASE=$2; shift 2 ;;
	*) echo "usage: sh scripts/benchgate.sh [-base REV]" >&2; exit 2 ;;
	esac
done

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/benchcmp" ]; then
	echo "benchgate: run from the repository root" >&2
	exit 2
fi
work="$root/.bench_build/benchgate"
base="$work/base"
logs="$work/logs"
rm -rf "$base" "$logs"
mkdir -p "$base" "$logs"
git archive "$BASE" | tar -x -C "$base"
(cd "$base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .
echo "benchgate: base $(git rev-parse --short "$BASE") vs working tree, $ROUNDS rounds of '$GATEBENCH'"

# run SIDE DIR ROUND: one side's binary, run in its own source tree,
# appended to the side's log.
run() {
	echo "  round $3 $1"
	(cd "$2" && GOGC=off "$work/$1.test" -test.run '^$' -test.bench "$GATEBENCH" -test.benchtime 5x -test.benchmem) >>"$logs/$1.log"
}

i=1
while [ "$i" -le "$ROUNDS" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$base" "$i"
	fi
	i=$((i + 1))
done

go run ./cmd/benchcmp -gate "$logs/base.log" "$logs/head.log"
