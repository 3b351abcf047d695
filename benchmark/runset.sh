#!/usr/bin/env bash
# Runs every workload once per seed, untraced, and appends each run to a
# run-set file for `adskip-benchmark -compare`. Run it from the repository
# root:
#
#	benchmark/runset.sh a.jsonl 1 10    # seeds 1..10 -> a.jsonl
#	benchmark/runset.sh b.jsonl 11 20
#	.bench_build/adskip-benchmark -compare a.jsonl b.jsonl
set -euo pipefail
out="$1"
first="${2:-1}"
last="${3:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
for seed in $(seq "$first" "$last"); do
	for workload in skip-clustered scan-uniform served-zipf ingest-mixed; do
		echo "== $workload seed $seed" >&2
		bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 -record "$out" 2>/dev/null | tail -n 1
	done
done
