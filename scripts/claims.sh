#!/usr/bin/env bash
# claims.sh — compare the cells of the paper's headline table (tab2) across
# revisions in alternating rounds, so that the drift of a shared machine
# falls on every revision alike.
#
#   bash scripts/claims.sh [-rows N] <rev>... [rounds]
#   bash scripts/claims.sh HEAD~1 . 10
#
# A revision is anything git archive takes, or "." for the working tree; a
# last argument of digits only is the round count (default 10: two
# identical builds read 9 of 10 rounds on one side in about 2% of cells,
# where 6 of 6 took about 3%). Each
# revision is exported with git archive into a temporary directory (the
# repository's .git is left as it was, even if the script is killed) and
# its cmd/adskip-bench built there. Each round runs every revision's
# adskip-bench -experiment tab2 -csv -rows N (default 4194304) once, in
# turn, the first revision of the round moving on by one each round. Per
# cell, keyed by the row's first cell and the column's header, it prints
# each revision's median and [min-max], and "resolved" beside a revision
# that differs from the previous one by the rule in scripts/resolve.awk,
# which scripts/paired.sh applies too: paired by round, it reads on one
# side of the previous revision in at least 9 of 10 rounds, and the
# medians are further apart than the previous revision's interquartile
# range (4 rounds or more); "-" where a revision lacks the cell.
# The counted columns (zones, splits+merges) repeat exactly, so a resolved
# ratio beside unmoved counts is a change in time alone. Needs bash, git,
# go, tar and awk.
set -euo pipefail

rows=4194304
if [ "${1:-}" = -rows ]; then
	rows=$2
	shift 2
fi
rounds=10
if [ $# -ge 2 ] && [[ ${!#} =~ ^[0-9]+$ ]]; then
	rounds=${!#}
	set -- "${@:1:$#-1}"
fi
if [ $# -lt 1 ]; then
	sed -n '6,7p' "$0" >&2
	exit 2
fi
revs=("$@")
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for i in "${!revs[@]}"; do
	src=$root
	if [ "${revs[$i]}" != . ]; then
		src=$tmp/src$i
		mkdir "$src"
		git -C "$root" archive "${revs[$i]}" | tar -x -C "$src"
	fi
	(cd "$src" && go build -o "$tmp/bench$i" ./cmd/adskip-bench)
done

# Every run appends "revision <TAB> round <TAB> row <TAB> header <TAB> value"
# lines.
: >"$tmp/cells"
n=${#revs[@]}
for ((r = 0; r < rounds; r++)); do
	for ((k = 0; k < n; k++)); do
		i=$(((r + k) % n))
		"$tmp/bench$i" -experiment tab2 -csv -rows "$rows" | awk -v rev="$i" -v round="$r" '
		# split a CSV line into f[1..n]; a quoted cell may hold commas.
		function split_csv(line, f,    n, c, i, q, cell) {
			n = 0; q = 0; cell = ""
			for (i = 1; i <= length(line); i++) {
				c = substr(line, i, 1)
				if (q && c == "\"" && substr(line, i + 1, 1) == "\"") { cell = cell c; i++ }
				else if (c == "\"") q = !q
				else if (c == "," && !q) { f[++n] = cell; cell = "" }
				else cell = cell c
			}
			f[++n] = cell
			return n
		}
		NR == 1 { nh = split_csv($0, head); next }
		{
			split_csv($0, f)
			for (c = 2; c <= nh; c++) printf "%s\t%s\t%s\t%s\t%s\n", rev, round, f[1], head[c], f[c]
		}' >>"$tmp/cells"
	done
	echo "round $((r + 1))/$rounds done" >&2
done

printf '%s\n' "${revs[@]}" >"$tmp/revs"
awk -F '\t' -v nrev="$n" -v rounds="$rounds" -f "$(dirname "$0")/resolve.awk" -f <(echo '
function num(v) { return v == int(v) ? sprintf("%d", v) : sprintf("%.4g", v) }
FNR == NR { name[NR - 1] = $0; next }
{
	c = $3 " | " $4
	if (!(($1, c) in seen)) { seen[$1, c] = 1; order[$1, ncell[$1]++] = c }
	v = $5; sub(/x$/, "", v)
	val[c, $1, $2] = v + 0
}
END {
	for (j = 0; j < nrev; j++) printf "rev %d: %s\n", j + 1, name[j]
	# Cells in the table order of the last revision, then those that only
	# earlier revisions have.
	for (j = nrev - 1; j >= 0; j--)
		for (i = 0; i < ncell[j]; i++)
			if (!(order[j, i] in done)) { done[order[j, i]] = 1; out[nout++] = order[j, i] }
	for (i = 0; i < nout; i++) {
		c = out[i]; line = sprintf("%-64s", c); havePrev = 0
		for (j = 0; j < nrev; j++) {
			n = paired = lower = higher = 0
			for (r = 0; r < rounds; r++) {
				if (!((c, j, r) in val)) continue
				s[n++] = v = val[c, j, r]
				if (havePrev && (c, j - 1, r) in val) {
					paired++; lower += v < val[c, j - 1, r]; higher += v > val[c, j - 1, r]
				}
			}
			if (n == 0) { line = line sprintf("  %d: %-30s", j + 1, "-"); havePrev = 0; continue }
			sortv(s, n); m = median(s, n)
			verdict = havePrev && resolved(pm, m, piqr, paired, lower, higher) ? " resolved" : ""
			line = line sprintf("  %d: %-30s", j + 1, sprintf("%s [%s-%s]%s", num(m), num(s[0]), num(s[n - 1]), verdict))
			pm = m; piqr = quartile(s, n, 0.75) - quartile(s, n, 0.25); havePrev = 1
		}
		print line
	}
}') "$tmp/revs" "$tmp/cells"
