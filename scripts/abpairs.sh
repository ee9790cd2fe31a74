#!/usr/bin/env sh
# abpairs: an end-to-end A/B of the working tree against a base revision
# on the repository's benchmark (benchmark/run.sh, BENCHMARK.json).
#
#   sh scripts/abpairs.sh [-base REV] [-workload W] [-pairs K] [-seed S] [-seconds N]
#
# The base revision (default HEAD) is extracted with `git archive` under
# .bench_build/abpairs/base; the change is the working tree as it is.
# Pair i runs both sides with seed S+i-1, the base first on odd pairs and
# the change first on even ones, so a drift in machine speed hits both
# sides alike. Each run's JSON result goes to .bench_build/abpairs/runs.
#
# For every end-to-end metric it prints the median and quartiles of each
# side, the change's relative difference of medians, the pairs the change
# wins (strictly better in the direction BENCHMARK.json declares) and the
# gap between medians against the base's interquartile range. It exits
# non-zero if any run fails to produce a result, reports correct: false
# or reports failed requests.
set -eu

BASE=HEAD
WORKLOAD=npb-uncached
PAIRS=10
SEED=1
SECONDS_=30
while [ $# -gt 0 ]; do
	case "$1" in
	-base) BASE=$2; shift 2 ;;
	-workload) WORKLOAD=$2; shift 2 ;;
	-pairs) PAIRS=$2; shift 2 ;;
	-seed) SEED=$2; shift 2 ;;
	-seconds) SECONDS_=$2; shift 2 ;;
	*) echo "usage: sh scripts/abpairs.sh [-base REV] [-workload W] [-pairs K] [-seed S] [-seconds N]" >&2; exit 2 ;;
	esac
done

root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/benchmark/run.sh" ]; then
	echo "abpairs: run from the repository root" >&2
	exit 2
fi
work="$root/.bench_build/abpairs"
base="$work/base"
runs="$work/runs"
rm -rf "$base" "$runs"
mkdir -p "$base" "$runs"
git archive "$BASE" | tar -x -C "$base"
echo "abpairs: base $(git rev-parse --short "$BASE") vs working tree, $WORKLOAD, $PAIRS pairs from seed $SEED, ${SECONDS_}s each"

# run SIDE DIR PAIR SEED: one benchmark run, its JSON line kept as
# runs/SIDE.PAIR.json.
run() {
	out="$runs/$1.$3.json"
	log="$runs/$1.$3.log"
	if ! (cd "$2" && bash benchmark/run.sh -workload "$WORKLOAD" -seed "$4" -seconds "$SECONDS_") >"$log" 2>&1; then
		echo "abpairs: $1 run of pair $3 (seed $4) failed; see $log" >&2
	fi
	tail -n 1 "$log" | grep '^{' >"$out" || true
	echo "  pair $3 $1: $(cat "$out")"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
	s=$((SEED + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base" "$i" "$s"
		run change "$root" "$i" "$s"
	else
		run change "$root" "$i" "$s"
		run base "$base" "$i" "$s"
	fi
	i=$((i + 1))
done

# One "side pair metric value" line per run and metric, plus "side pair
# correct|failed value" lines, then the summary.
for f in "$runs"/*.json; do
	side=$(basename "$f" .json)
	pair=${side#*.}
	side=${side%%.*}
	awk -v side="$side" -v pair="$pair" '
	{
		line = $0
		if (match(line, /"correct":(true|false)/)) {
			print side, pair, "correct", (substr(line, RSTART + 10, RLENGTH - 10) == "true")
		}
		if (match(line, /"failed":[0-9]+/)) {
			print side, pair, "failed", substr(line, RSTART + 9, RLENGTH - 9)
		}
		while (match(line, /"[a-z_]+":\{"value":[-0-9.eE+]+/)) {
			m = substr(line, RSTART, RLENGTH)
			line = substr(line, RSTART + RLENGTH)
			name = m; sub(/^"/, "", name); sub(/".*/, "", name)
			v = m; sub(/.*"value":/, "", v)
			print side, pair, name, v
		}
	}' "$f"
done >"$work/values.txt"

awk -v pairs="$PAIRS" '
FNR == NR {
	# BENCHMARK.json: one metric per line with "name" and "better".
	if (match($0, /"name": "[a-z_.]+"/)) {
		n = substr($0, RSTART + 9, RLENGTH - 10)
		order[++norder] = n
		if (match($0, /"better": "[a-z]+"/)) better[n] = substr($0, RSTART + 11, RLENGTH - 12)
	}
	next
}
{
	side = $1; pair = $2; name = $3; v = $4 + 0
	if (name == "correct") { if (!v) bad = bad " " side "." pair ":correct=false"; seen[side, pair] = 1; next }
	if (name == "failed") { if (v > 0) bad = bad " " side "." pair ":failed=" v; next }
	val[side, name, pair] = v
	names[name] = 1
}
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of sorted a[1..n] by linear interpolation.
function q(a, n, p,   h, lo) {
	if (n == 0) return 0
	h = (n - 1) * p + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
END {
	for (s = 1; s <= pairs; s++) {
		if (!seen["base", s]) bad = bad " base." s ":no-result"
		if (!seen["change", s]) bad = bad " change." s ":no-result"
	}
	printf "%-18s %-31s %-31s %8s %5s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "gap/base IQR"
	for (k = 1; k <= norder; k++) {
		name = order[k]
		if (!(name in names)) continue
		nb = 0; nc = 0; wins = 0; both = 0
		dir = (better[name] == "higher") ? -1 : 1
		for (s = 1; s <= pairs; s++) {
			hb = ((("base", name, s) in val)); hc = ((("change", name, s) in val))
			if (hb) b[++nb] = val["base", name, s]
			if (hc) c[++nc] = val["change", name, s]
			if (hb && hc) { both++; if (dir * (val["change", name, s] - val["base", name, s]) < 0) wins++ }
		}
		sortv(b, nb); sortv(c, nc)
		mb = q(b, nb, .5); mc = q(c, nc, .5); iqr = q(b, nb, .75) - q(b, nb, .25)
		rel = (mb != 0) ? 100 * (mc - mb) / mb : 0
		gap = dir * (mb - mc)
		printf "%-18s %-31s %-31s %+7.1f%% %2d/%-2d %s\n", name,
			sprintf("%.4g [%.4g, %.4g]", mb, q(b, nb, .25), q(b, nb, .75)),
			sprintf("%.4g [%.4g, %.4g]", mc, q(c, nc, .25), q(c, nc, .75)),
			rel, wins, both, (iqr > 0) ? sprintf("%.2f", gap / iqr) : "n/a"
		delete b; delete c
	}
	if (bad != "") { print "abpairs: FAILED runs:" bad; exit 1 }
}' "$root/BENCHMARK.json" "$work/values.txt"
