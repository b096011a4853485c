#!/usr/bin/env bash
# Failure rates of the test suite, not a gate: runs the named packages'
# tests COUNT times each in shuffled order (go test -count=COUNT
# -shuffle=on), then again under -race (make race covers every package),
# and prints, per mode, every test that failed at least once as k/n (k
# failures in n runs). A package whose binary died (a panic or the
# per-package timeout) is a row of its own, "(package)".
#
#   scripts/stress.sh <count> [package ...]     # default ./...
#   make stress STRESS_COUNT=50 STRESS_PKGS=./internal/core/
#
# Nothing is skipped, retried or filtered out. Each mode's go test -json
# stream is kept in the directory printed at the end (STRESS_OUT, default
# a fresh temp dir), and the exit status is 0 whatever the table shows.
set -uo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 <count> [package ...]" >&2
	exit 2
fi
count="$1"
shift
pkgs=("$@")
[ ${#pkgs[@]} -gt 0 ] || pkgs=(./...)
out="${STRESS_OUT:-$(mktemp -d -t cfs-stress.XXXXXX)}"
mkdir -p "$out"
timeout="${STRESS_TIMEOUT:-20m}"

# table <json>: one "k/n package test" row per test that failed at least
# once, most failures first, then a total.
table() {
	awk '
		/"Action":"(pass|fail)"/ {
			match($0, /"Action":"[a-z]+"/); act = substr($0, RSTART + 10, RLENGTH - 11)
			match($0, /"Package":"[^"]*"/); pkg = substr($0, RSTART + 11, RLENGTH - 12)
			if (!match($0, /"Test":"[^"]*"/)) {
				if (act == "fail") pkgfail[pkg] = 1
				next
			}
			key = pkg " " substr($0, RSTART + 8, RLENGTH - 9)
			n[key]++
			runs++
			if (act == "fail") { k[key]++; testfail[pkg] = 1 }
		}
		END {
			sorter = "sort -t/ -k1,1nr"
			for (key in k) { printf "  %d/%d\t%s\n", k[key], n[key], key | sorter; rows++ }
			for (pkg in pkgfail) if (!(pkg in testfail)) { printf "  1/1\t%s (package)\n", pkg | sorter; rows++ }
			close(sorter)
			printf "  %d rows failed at least once, over %d test runs\n", rows, runs
		}' "$1"
}

for mode in plain race; do
	flags=(-count="$count" -shuffle=on -timeout "$timeout" -json)
	[ "$mode" = race ] && flags+=(-race)
	log="$out/$mode.json"
	echo "== $mode: go test ${flags[*]} ${pkgs[*]}"
	go test "${flags[@]}" "${pkgs[@]}" >"$log" 2>"$out/$mode.stderr"
	table "$log"
done
echo "logs: $out"
