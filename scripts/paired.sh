#!/usr/bin/env bash
# paired.sh — compare Go benchmarks of a base revision against the working
# tree in alternating pairs, so that the drift of a shared machine falls on
# both sides alike.
#
#   bash scripts/paired.sh <base-rev> <package> <bench-regex> [pairs] [binary flags...]
#   bash scripts/paired.sh HEAD~1 ./internal/adaptive 'Prune$' 10 -test.benchtime 2000x -test.cpu 1
#
# The base revision is exported with git archive into a temporary directory
# (the repository's .git is left as it was, even if the script is killed).
# Both sides' test binaries are built with go test -c, then run <pairs>
# times each (default 10) with -test.run '^$' -test.bench <bench-regex> and
# any further flags, base first in odd pairs and the working tree first in
# even ones, each from its own package directory. Per benchmark and unit
# (ns/op and every reported metric) it prints each side's median and
# quartiles, the pairs in which the working tree read lower, and
# "resolved" or "unresolved" by the rule in scripts/resolve.awk, which
# scripts/claims.sh applies too: the working tree on one side of the base
# in at least 9 of 10 pairs, and the medians further apart than the base's
# interquartile range (4 pairs or more). Needs bash, git, go, tar, sort and
# awk.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,6p' "$0" >&2
	exit 2
fi
base=$1 pkg=$2 regex=$3
pairs=${4:-10}
shift $(($# < 4 ? $# : 4))
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
(cd "$root" && go test -c -o "$tmp/head.test" "$pkg")

flags=("$@")

# run side pair: one run of one side's binary, appended to rows as
# "side pair benchmark unit value" lines.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$tmp/base
	(cd "$dir/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$regex" -test.timeout 10m "${flags[@]}") |
		awk -v side="$1" -v pair="$2" '/^Benchmark/ {
			for (i = 3; i + 1 <= NF; i += 2) print side, pair, $1, $(i + 1), $i
		}' >>"$tmp/rows"
}

: >"$tmp/rows"
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		run "$side" "$p"
	done
	echo "pair $p/$pairs done" >&2
done
if [ ! -s "$tmp/rows" ]; then
	echo "paired.sh: no benchmark in $pkg matches $regex" >&2
	exit 1
fi

# Group by benchmark and unit, each side's values in ascending order.
sort -k3,3 -k4,4 -k1,1 -k5,5g "$tmp/rows" | awk -f "$(dirname "$0")/resolve.awk" -f <(echo '
function flush(    bm, hm, n, lower, higher, p) {
	if (key == "" || nb == 0 || nh == 0) return
	bm = median(b, nb); hm = median(h, nh)
	n = lower = higher = 0
	for (p in bp) if (p in hp) { n++; lower += hp[p] < bp[p]; higher += hp[p] > bp[p] }
	printf "%-48s %-10s base %12.4g [%.4g, %.4g]  head %12.4g [%.4g, %.4g]  %+.1f%%  lower in %d/%d  %s\n",
		name, unit, bm, quartile(b, nb, 0.25), quartile(b, nb, 0.75), hm, quartile(h, nh, 0.25), quartile(h, nh, 0.75),
		bm ? 100 * (hm - bm) / bm : 0, lower, n,
		resolved(bm, hm, quartile(b, nb, 0.75) - quartile(b, nb, 0.25), n, lower, higher) ? "resolved" : "unresolved"
}
{
	k = $3 SUBSEP $4
	if (k != key) { flush(); key = k; name = $3; unit = $4; nb = nh = 0; delete bp; delete hp }
	if ($1 == "base") { b[nb++] = $5; bp[$2] = $5 } else { h[nh++] = $5; hp[$2] = $5 }
}
END { flush() }')
