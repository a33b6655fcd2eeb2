#!/usr/bin/env bash
# Same-session interleaved A/B of udcbench: BASE (a) against the working tree
# (b), the recipe of benchmarks/README.md ("Same-session interleaved A/B")
# and choosing-metrics §8, automated.
#
#   scripts/bench_ab.sh BASE [WORKLOAD [PAIRS [SEED]]]
#   make bench-ab BASE=HEAD~1 WORKLOAD=extract-offline PAIRS=10
#
# BASE is cloned under a temporary directory and the *current* benchmarks/
# and BENCHMARK.json are copied over it, so both sides are measured by the
# same benchmark code.  Each pair runs every chosen workload once per side,
# untraced, in a fresh process; which side goes first alternates from pair to
# pair.  Every run is printed as it finishes (digest and all six end-to-end
# metrics); the end prints each pair's METRIC (default seeds_per_s) with the
# count of pairs b won, then udcbench -compare over all runs of both sides.
# The run records, logs and the two assembled files stay in
# benchmarks/out/ab/.  Use a box doing nothing else: the benchmark takes both
# cores.
set -euo pipefail

base="${1:?usage: scripts/bench_ab.sh BASE [WORKLOAD [PAIRS [SEED]]]}"
workload="${2:-extract-offline}"
pairs="${3:-10}"
seed="${4:-1}"
seconds="${SECONDS_PER_RUN:-8}"
metric="${METRIC:-seeds_per_s}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev="$(git rev-parse --verify "$base^{commit}")"
workloads="$workload"
if [ "$workload" = all ]; then
	workloads="$(sed -n 's/^ *"name": "\([a-z0-9-]*\)",$/\1/p' BENCHMARK.json | head -6 | tr '\n' ' ')"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git clone -q . "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$rev"
rm -rf "$tmp/base/benchmarks"
mkdir "$tmp/base/benchmarks"
cp -r benchmarks/README.md benchmarks/run.sh benchmarks/udcbench "$tmp/base/benchmarks/"
cp BENCHMARK.json "$tmp/base/"

out="$root/benchmarks/out/ab"
rm -rf "$out"
mkdir -p "$out"

# run_side SIDE DIR PAIR: one untraced run of every chosen workload.
run_side() {
	local side="$1" dir="$2" pair="$3" w
	for w in $workloads; do
		local rec="$out/$side-$w-$pair.json"
		(cd "$dir" && bash benchmarks/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 -record "$rec") \
			>"$out/$side-$w-$pair.log" 2>&1 || { cat "$out/$side-$w-$pair.log"; echo "bench-ab: $side $w pair $pair failed" >&2; exit 1; }
		printf 'pair %2d  %s  %-16s %s\n' "$pair" "$side" "$w" "$(sed 's/.*"digest":"\([0-9a-f]*\)".*"metrics":{\(.*\)}}$/digest \1 \2/' "$rec")"
	done
}

echo "bench-ab: a = $rev, b = working tree ($(git rev-parse --short HEAD)$(git diff --quiet || echo +dirty)); workloads: $workloads; $pairs pairs, seed $seed, ${seconds}s"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run_side a "$tmp/base" "$pair"
		run_side b "$root" "$pair"
	else
		run_side b "$root" "$pair"
		run_side a "$tmp/base" "$pair"
	fi
done

# assemble SIDE COMMIT: the -out file -compare reads, from the run records.
assemble() {
	local side="$1" commit="$2" c
	c="$(nproc)"
	printf '{"nproc":%d,"GOMAXPROCS":%d,"goVersion":"%s","commit":"%s","seed":%d,"seconds":%d,"runs":[' \
		"$c" "$((c < 4 ? c : 4))" "$(go env GOVERSION)" "$commit" "$seed" "$seconds"
	local first=1 f
	for f in "$out/$side"-*.json; do
		[ "$first" = 1 ] || printf ','
		first=0
		cat "$f"
	done
	printf ']}\n'
}
assemble a "$rev" >"$out/a.json"
assemble b "working-tree" >"$out/b.json"

value() { sed -n "s/.*\"$metric\":\([0-9.eE+-]*\).*/\1/p" "$1"; }
higher=0
if [ "$metric" = seeds_per_s ]; then higher=1; fi
for w in $workloads; do
	echo
	echo "$w $metric per pair (a, b, b/a):"
	for pair in $(seq 1 "$pairs"); do
		echo "$pair $(value "$out/a-$w-$pair.json") $(value "$out/b-$w-$pair.json")"
	done | awk -v higher="$higher" '
		{ printf "  pair %2d  %12.4f  %12.4f  %.3f\n", $1, $2, $3, $3 / $2
		  if ((higher && $3 > $2) || (!higher && $3 < $2)) won++; else if ($3 != $2) lost++ }
		END { printf "  b won %d of %d pairs (%d lost, ties count for neither)\n", won, NR, lost }'
done
echo
bash benchmarks/run.sh -compare "$out/a.json" "$out/b.json"
