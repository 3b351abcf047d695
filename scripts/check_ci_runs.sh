#!/usr/bin/env bash
# check_ci_runs.sh — fails when a -run or -fuzz pattern in the CI workflow
# names no test. `go test -run X` passes silently when X matches nothing,
# so a test renamed or deleted out from under a CI step would leave the
# step green and empty.
#
# For every `go test` command in .github/workflows/ci.yml (a `run: |` block
# holds one command per line; a `run: >` block folds its lines into one),
# each top-level |-separated term of its -run and -fuzz patterns must match
# (as an extended regexp, the way go test matches names) the name of at
# least one `func Test*` or `func Fuzz*` in the packages the command lists
# (`.`, `./dir/`, or `./dir/...` for the tree). The term `^$` — match
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

# tests prints the Test and Fuzz function names of the listed packages.
tests() {
	local pkg dir
	for pkg in "$@"; do
		dir=${pkg%/}
		if [[ $dir == */... ]]; then
			grep -rhoE --include='*_test.go' '^func (Test|Fuzz)[A-Za-z0-9_]*' "${dir%/...}" || true
		else
			grep -hoE '^func (Test|Fuzz)[A-Za-z0-9_]*' "$dir"/*_test.go || true
		fi
	done | sed 's/^func //'
}

fail=0
checked=0
while IFS= read -r cmd; do
	[[ $cmd == *"go test"* ]] || continue
	read -ra words <<<"${cmd#*go test}"
	patterns=() pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-run | -fuzz) patterns+=("${words[i + 1]//\'/}") && i=$((i + 1)) ;;
		.*) pkgs+=("$w") ;;
		esac
	done
	((${#patterns[@]} > 0)) || continue
	names=$(tests "${pkgs[@]}")
	for pat in "${patterns[@]}"; do
		IFS='|' read -ra terms <<<"$pat"
		for term in "${terms[@]}"; do
			[[ $term == '^$' ]] && continue
			checked=$((checked + 1))
			if ! grep -qE -- "${term%%/*}" <<<"$names"; then
				echo "FAIL: term '$term' of -run/-fuzz '$pat' matches no Test/Fuzz func in ${pkgs[*]}"
				fail=1
			fi
		done
	done
done < <(commands)

if ((checked == 0)); then
	echo "FAIL: found no -run/-fuzz terms in $WORKFLOW"
	exit 1
fi
if ((fail)); then
	exit 1
fi
echo "ok: $checked -run/-fuzz terms in $WORKFLOW each name a test"
