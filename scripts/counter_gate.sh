#!/usr/bin/env bash
# counter_gate.sh — the CI gate on what the repository benchmark counts.
#
# Runs the traced run of each workload named in scripts/bench_counters.golden
# (seed 1, the run length of BENCHMARK.json), requires every answer to have
# passed the benchmark's oracle, and compares each listed counter with the
# golden as a string; engine.allocs_per_query may also sit up to 0.5 above
# it (see the golden's header). Timings are not gated: they are claimed by
# paired alternating runs (benchmark/README.md). No flag, no environment
# variable. The observed table is always left in
# .bench_build/bench_counters.observed; a change that moves a counter on
# purpose refreshes the golden with
#   cp .bench_build/bench_counters.observed scripts/bench_counters.golden
# and says why in its description.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=scripts/bench_counters.golden
observed=.bench_build/bench_counters.observed
mkdir -p .bench_build
grep '^#' "$golden" >"$observed"

# micro VALUE: a plain decimal as an integer count of millionths.
micro() {
  local int=${1%%.*} frac=
  [[ $1 == *.* ]] && frac=${1#*.}
  frac=${frac}000000
  echo $((10#$int * 1000000 + 10#${frac:0:6}))
}

status=0
fail() {
  echo "counter gate: FAIL $*" >&2
  status=1
}

for workload in $(grep -v '^#' "$golden" | cut -d' ' -f1 | uniq); do
  result=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 10 --trace 1 | tail -n 1) ||
    fail "$workload: the benchmark exited with an error"
  grep -q '"correct":true' <<<"$result" || fail "$workload: an answer disagreed with the oracle"
  grep -q '"failed":0,' <<<"$result" || fail "$workload: operations failed"
  while read -r _ metric want; do
    got=$(sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\)[,}].*/\1/p" <<<"$result")
    echo "$workload $metric $got" >>"$observed"
    if [[ $got == "$want" ]]; then
      continue
    fi
    if [[ $metric == engine.allocs_per_query && $got =~ ^[0-9.]+$ && $want =~ ^[0-9.]+$ ]] &&
      (($(micro "$got") <= $(micro "$want") + 500000)); then
      continue
    fi
    fail "$workload $metric: golden $want, observed ${got:-nothing}"
  done < <(grep "^$workload " "$golden")
done

if ((status == 0)); then
  echo "counter gate: PASS ($(grep -vc '^#' "$golden") counters, observed table in $observed)"
fi
exit $status
