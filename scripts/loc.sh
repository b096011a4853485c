#!/usr/bin/env bash
# Code lines per package: non-blank, non-comment (lines that are only a //
# comment), non-_test.go Go lines of every package under internal/ and cmd/,
# and their total - the count a simplicity PR's CHANGES.md entry quotes.
#
#   scripts/loc.sh [package-dir ...]     (default: every package)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(find internal cmd -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u)
fi
total=0
for d in "${dirs[@]}"; do
	n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cv '^[[:space:]]*\(//.*\)\?$' || true)
	printf '%6d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
