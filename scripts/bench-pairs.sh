#!/usr/bin/env bash
# Interleaved parent/change pairs of the repository's benchmark: the evidence
# ROADMAP asks of every product PR (sets taken an hour apart differ by 5-10%
# on identical code, so only runs taken side by side compare).
#
#   scripts/bench-pairs.sh <parent-ref> <n> [workload ...]
#
# Extracts <parent-ref> into .bench_build/pairs/ (git archive: no worktree
# or ref is created), then for seed 1..n and each workload runs
# benchmark/run.sh once on the parent and once on this checkout, alternating
# which side goes first, and prints per workload and metric both medians,
# their ratio, how many pairs the change won, the parent's own
# interquartile range, and the change's interquartile range with its share
# of the PARENT's median - the spread the pipeline bounds (at 25%) before it
# will resolve a step at all. Per workload and side it also prints how many
# runs reported correct:false and each such run's check: lines, and it exits 1
# when the change's share of failed ops on any workload exceeds the parent's
# (the pipeline's rejection rule). It shells out to the benchmark and edits
# nothing under benchmark/; every run's numbers are kept in the .tsv it names
# and every run's stderr in the directory beside it.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <n> [workload ...]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
ref="$1"
pairs="$2"
shift 2
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	# The names inside BENCHMARK.json's "workloads" array.
	mapfile -t workloads < <(sed -n '/"workloads": *\[/,/^  \]/s/^ *"name": *"\([a-z_]*\)".*/\1/p' BENCHMARK.json)
fi

sha="$(git rev-parse --short "$ref^{commit}")"
work="$root/.bench_build/pairs"
parent="$work/parent-$sha"
if [ ! -f "$parent/benchmark/run.sh" ]; then
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi
out="$work/$sha-$(date +%Y%m%d-%H%M%S).tsv"
logs="${out%.tsv}.logs"
mkdir -p "$logs"

# run <side> <dir> <pair> <workload> <position>: one benchmark run; appends
# "pair workload side position metric value" rows, failed/attempted and
# correct (1 or 0) included, and keeps the run's stderr in $logs.
# A run that dies (it is a whole cluster booting on loopback ports) is not a
# measurement: its stderr is shown and it is taken again, once.
run() {
	local side="$1" dir="$2" pair="$3" wl="$4" pos="$5" line
	local cmd=(bash "$dir/benchmark/run.sh" --workload "$wl" --seed "$pair" --trace 0)
	local err="$logs/$pair-$wl-$side.err"
	if ! line="$("${cmd[@]}" 2>"$err" | tail -n 1)"; then
		echo "pair $pair $wl $side: run failed, taking it again:" >&2
		tail -n 5 "$err" >&2
		line="$("${cmd[@]}" 2>"$err" | tail -n 1)"
	fi
	{
		grep -o '"[a-z0-9_]*":{"value":[0-9.e+-]*' <<<"$line" | sed 's/^"\([a-z0-9_]*\)":{"value":/\1\t/'
		grep -o '"\(attempted\|failed\)":[0-9]*' <<<"$line" | sed 's/^"\([a-z]*\)":/\1\t/'
		grep -o '"correct":[a-z]*' <<<"$line" | sed 's/^"correct":true/correct\t1/; s/^"correct":false/correct\t0/'
	} | while IFS=$'\t' read -r metric value; do
		printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$pair" "$wl" "$side" "$pos" "$metric" "$value"
	done >>"$out"
	echo "pair $pair $wl $side: $line" >&2
}

for pair in $(seq 1 "$pairs"); do
	for wl in "${workloads[@]}"; do
		if [ $((pair % 2)) -eq 1 ]; then
			run parent "$parent" "$pair" "$wl" first
			run change "$root" "$pair" "$wl" second
		else
			run change "$root" "$pair" "$wl" first
			run parent "$parent" "$pair" "$wl" second
		fi
	done
done

echo "# $pairs interleaved pairs, parent $sha vs this checkout; every run: $out, stderr: $logs"
status=0
sort -t$'\t' -k2,2 -k5,5 -k3,3 -k6,6g "$out" | awk -F'\t' '
function quantile(v, n, q,    h, lo) { # v[1..n] sorted ascending
	h = (n - 1) * q + 1; lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function flush(    i, wins, pm, cm, ciqr) {
	if (key == "") return
	if (metric == "correct") {
		for (i = 1; i <= np; i++) psum += (p[i] == 0)
		for (i = 1; i <= nc; i++) csum += (c[i] == 0)
		printf "%-15s %-13s correct:false in parent %d of %d runs, change %d of %d\n", wl, metric, psum, np, csum, nc
	} else if (metric == "attempted" || metric == "failed") {
		for (i = 1; i <= np; i++) psum += p[i]
		for (i = 1; i <= nc; i++) csum += c[i]
		printf "%-15s %-13s parent total %d, change total %d\n", wl, metric, psum, csum
		total[wl, metric, "parent"] = psum; total[wl, metric, "change"] = csum; wls[wl] = 1
	} else {
		pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
		lower = (metric ~ /_ms$|_s$/ && metric !~ /_ops_s$/) # latencies and set-up: lower is better
		wins = 0
		for (i in bypair_p) if (i in bypair_c) {
			if (lower ? bypair_c[i] < bypair_p[i] : bypair_c[i] > bypair_p[i]) wins++
		}
		ciqr = quantile(c, nc, 0.75) - quantile(c, nc, 0.25)
		printf "%-15s %-13s parent %10.2f  change %10.2f  ratio %5.2f  change better in %d/%d  parent IQR %.2f  change IQR %.2f = %.1f%% of parent median (%s is better)\n",
			wl, metric, pm, cm, (pm ? cm / pm : 0), wins, np, quantile(p, np, 0.75) - quantile(p, np, 0.25), ciqr, (pm ? 100 * ciqr / pm : 0), lower ? "lower" : "higher"
	}
	delete p; delete c; delete bypair_p; delete bypair_c
	np = nc = psum = csum = 0
}
{
	k = $2 SUBSEP $5
	if (k != key) { flush(); key = k; wl = $2; metric = $5 }
	if ($3 == "parent") { p[++np] = $6; bypair_p[$1] = $6 } else { c[++nc] = $6; bypair_c[$1] = $6 }
}
function share(wl, side,    a) {
	a = total[wl, "attempted", side]
	return a ? total[wl, "failed", side] / a : 0
}
END {
	flush()
	rc = 0
	for (wl in wls) if (share(wl, "change") > share(wl, "parent")) {
		printf "%-15s failed-op share %.6f above the parent'"'"'s %.6f: the pipeline rejects this\n", wl, share(wl, "change"), share(wl, "parent")
		rc = 1
	}
	exit rc
}' || status=$?

# The check: lines of every run that reported correct:false.
awk -F'\t' '$5 == "correct" && $6 == 0 { print $1, $2, $3 }' "$out" | sort -n | while read -r pair wl side; do
	echo "pair $pair $wl $side correct:false"
	grep '^check:' "$logs/$pair-$wl-$side.err" | sed 's/^/    /' || true
done
exit "$status"
