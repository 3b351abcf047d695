#!/usr/bin/env bash
# check_ci_runs.sh — fails when a -run, -fuzz or -bench pattern in the CI
# workflow names no test. `go test -run X` (and -bench X) passes silently
# when X matches nothing, so a test or benchmark renamed or deleted out
# from under a CI step would leave the step green and empty.
#
# For every `go test` command in .github/workflows/ci.yml (a `run: |` block
# holds one command per line; a `run: >` block folds its lines into one),
# each top-level |-separated term of its -run and -fuzz patterns must match
# (as an extended regexp, the way go test matches names) the name of at
# least one `func Test*` or `func Fuzz*` in the packages the command lists
# (`.`, `./dir/`, or `./dir/...` for the tree), and each term of its -bench
# patterns the name of a `func Benchmark*` there. The term `^$` — match
# nothing, used to run only benchmarks or a fuzz target — is skipped.
#
#   bash scripts/check_ci_runs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORKFLOW=.github/workflows/ci.yml

# commands prints each command of every run: step on one line.
commands() {
	local mode="" indent=0 folded="" line lead
	while IFS= read -r line; do
		if [[ -n $mode ]]; then
			lead=${line%%[! ]*}
			if [[ -z ${line// /} ]]; then
				continue
			fi
			if ((${#lead} > indent)); then
				if [[ $mode == ">" ]]; then
					folded+=" ${line#"$lead"}"
				else
					echo "${line#"$lead"}"
				fi
				continue
			fi
			if [[ $mode == ">" ]]; then
				echo "$folded"
			fi
			mode="" folded=""
		fi
		if [[ $line =~ ^([ -]*)run:\ *(.*)$ ]]; then
			indent=${#BASH_REMATCH[1]}
			case ${BASH_REMATCH[2]} in
			"|" | ">") mode=${BASH_REMATCH[2]} ;;
			*) echo "${BASH_REMATCH[2]}" ;;
			esac
		fi
	done <"$WORKFLOW"
	if [[ $mode == ">" ]]; then
		echo "$folded"
	fi
}

# funcs prints the names of the functions whose name starts with one of
# the prefixes $1 (an alternation: Test|Fuzz, or Benchmark) in the test
# files of the listed packages.
funcs() {
	local re="^func ($1)[A-Za-z0-9_]*" pkg dir
	shift
	for pkg in "$@"; do
		dir=${pkg%/}
		if [[ $dir == */... ]]; then
			grep -rhoE --include='*_test.go' "$re" "${dir%/...}" || true
		else
			grep -hoE "$re" "$dir"/*_test.go || true
		fi
	done | sed 's/^func //'
}

# check holds every term of the patterns after $1 and $2 to the names of
# the functions with prefixes $1 in the packages pkgs; $2 names the flags.
check() {
	local prefixes=$1 flags=$2 names pat term terms
	shift 2
	names=$(funcs "$prefixes" "${pkgs[@]}")
	for pat in "$@"; do
		IFS='|' read -ra terms <<<"$pat"
		for term in "${terms[@]}"; do
			[[ $term == '^$' ]] && continue
			checked=$((checked + 1))
			if ! grep -qE -- "${term%%/*}" <<<"$names"; then
				echo "FAIL: term '$term' of $flags '$pat' matches no ${prefixes//|//} func in ${pkgs[*]}"
				fail=1
			fi
		done
	done
}

fail=0
checked=0
while IFS= read -r cmd; do
	[[ $cmd == *"go test"* ]] || continue
	read -ra words <<<"${cmd#*go test}"
	runs=() benches=() pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-run | -fuzz) runs+=("${words[i + 1]//\'/}") && i=$((i + 1)) ;;
		-bench) benches+=("${words[i + 1]//\'/}") && i=$((i + 1)) ;;
		.*) pkgs+=("$w") ;;
		esac
	done
	((${#runs[@]} == 0)) || check 'Test|Fuzz' -run/-fuzz "${runs[@]}"
	((${#benches[@]} == 0)) || check Benchmark -bench "${benches[@]}"
done < <(commands)

if ((checked == 0)); then
	echo "FAIL: found no -run/-fuzz/-bench terms in $WORKFLOW"
	exit 1
fi
if ((fail)); then
	exit 1
fi
echo "ok: $checked -run/-fuzz/-bench terms in $WORKFLOW each name a test or benchmark"
