#!/usr/bin/env bash
# Telemetry smoke test: start the demo REPL with --serve on an ephemeral
# port, generate a table, run a query, then curl the telemetry endpoints
# and fail on any non-200 status or invalid JSON. CI runs this to catch
# endpoint regressions that unit tests (which use httptest-style setups)
# could miss — this exercises the real binary end to end.
set -euo pipefail

cd "$(dirname "$0")/.."

DEMO=$(mktemp -d)/adskip-demo
OUT=$(mktemp)
FIFO=$(mktemp -u)
trap 'rm -f "$OUT" "$FIFO"; kill $DEMO_PID 2>/dev/null || true' EXIT

go build -o "$DEMO" ./cmd/adskip-demo

mkfifo "$FIFO"
"$DEMO" --serve --serve-addr 127.0.0.1:0 --slow 1ns < "$FIFO" > "$OUT" 2>&1 &
DEMO_PID=$!
# Keep the fifo's write end open so the REPL does not see EOF.
exec 9> "$FIFO"

printf '\\gen clustered 100000\nSELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 5000;\nSELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 5000;\n' >&9

# Wait for the telemetry banner (the server binds before the prompt).
URL=""
for _ in $(seq 1 50); do
  URL=$(grep -o 'http://[0-9.:]*' "$OUT" | head -1 || true)
  [ -n "$URL" ] && break
  sleep 0.2
done
if [ -z "$URL" ]; then
  echo "telemetry URL never appeared; demo output:" >&2
  cat "$OUT" >&2
  exit 1
fi
echo "telemetry at $URL"

check_status() { # path [min_bytes]
  local path=$1 min=${2:-1} body code
  body=$(mktemp)
  code=$(curl -sS -o "$body" -w '%{http_code}' "$URL$path")
  if [ "$code" != "200" ]; then
    echo "GET $path -> $code" >&2
    cat "$body" >&2
    rm -f "$body"
    exit 1
  fi
  if [ "$(wc -c < "$body")" -lt "$min" ]; then
    echo "GET $path -> suspiciously small body" >&2
    rm -f "$body"
    exit 1
  fi
  echo "$body"
}

check_json() { # path
  local body
  body=$(check_status "$1")
  if ! python3 -m json.tool < "$body" > /dev/null 2>&1; then
    echo "GET $1 -> invalid JSON" >&2
    cat "$body" >&2
    rm -f "$body"
    exit 1
  fi
  rm -f "$body"
  echo "GET $1 -> 200, valid JSON"
}

# The banner precedes \gen and the first queries: wait until they count.
for _ in $(seq 1 50); do
  curl -sS "$URL/metrics" | grep -q '^adskip_queries_total' && break
  sleep 0.2
done
METRICS=$(check_status /metrics 100)
for metric in adskip_queries_total go_goroutines go_memstats_heap_alloc_bytes; do
  grep -q "^$metric" "$METRICS" || {
    echo "/metrics missing $metric" >&2
    cat "$METRICS" >&2
    exit 1
  }
done
rm -f "$METRICS"
echo "GET /metrics -> 200, Prometheus exposition with runtime gauges"

check_json /traces
check_json '/traces?format=chrome'
check_json /slow
check_json /skipmap
check_json '/skipmap?zones=0'
check_json '/workload?sort=calls&k=5'
check_json /adaptation
check_json '/adaptation?dead=0'

# /workload must attribute the two COUNT queries above to one template
# with ? in place of the literals.
WL=$(check_status /workload)
python3 - "$WL" <<'PY'
import json, sys
w = json.load(open(sys.argv[1]))
assert len(w["templates"]) >= 1, "no templates recorded"
t = w["templates"][0]
assert t["calls"] >= 2, f"calls {t['calls']} < 2"
assert "BETWEEN ? AND ?" in t["fingerprint"], f"unstripped fingerprint {t['fingerprint']!r}"
assert w["recorded_calls"] >= 2, "recorded_calls never moved"
PY
rm -f "$WL"
echo "GET /workload -> 200, >=1 template with calls"

WLCSV=$(check_status '/workload?format=csv')
head -1 "$WLCSV" | grep -q '^fingerprint,' || {
  echo "/workload?format=csv missing header" >&2
  cat "$WLCSV" >&2
  exit 1
}
rm -f "$WLCSV"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL/workload?sort=junk")
if [ "$code" != "400" ]; then
  echo "GET /workload?sort=junk -> $code, want 400" >&2
  exit 1
fi
echo "GET /workload -> CSV export + 400 on bad sort"

# /adaptation: hammer one hot range template until the adaptive zonemap
# splits, then assert the ledger journaled the split with the triggering
# template and the ROI row credits nonzero skipped rows.
AD=$(mktemp)
ok=""
for _ in $(seq 1 40); do
  printf 'SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 5000;\n' >&9
  curl -sS -o "$AD" "$URL/adaptation"
  if python3 - "$AD" <<'PY'
import json, sys
a = json.load(open(sys.argv[1]))
splits = [e for e in a["events"] if e["kind"] == "split"]
ok = (splits
      and any(e.get("fingerprint") for e in splits)
      and any(r["rows_skipped"] > 0 for r in a["roi"]))
sys.exit(0 if ok else 1)
PY
  then ok=1; break; fi
  sleep 0.2
done
if [ -z "$ok" ]; then
  echo "/adaptation never showed a fingerprinted split + nonzero ROI:" >&2
  cat "$AD" >&2
  exit 1
fi
rm -f "$AD"

# The journal has one view: /adaptation's events array, oldest first.
AD=$(check_status /adaptation)
python3 - "$AD" <<'PY'
import json, sys
seqs = [r["seq"] for r in json.load(open(sys.argv[1]))["events"]]
assert seqs, "/adaptation.events is empty after splits were journaled"
assert seqs == sorted(set(seqs)), f"/adaptation.events seqs not strictly increasing: {seqs}"
PY
rm -f "$AD"
echo "GET /adaptation -> events oldest first, seqs strictly increasing"

ADCSV=$(check_status '/adaptation?format=csv')
head -1 "$ADCSV" | grep -q '^table,shard,column,kind,' || {
  echo "/adaptation?format=csv missing header" >&2
  cat "$ADCSV" >&2
  exit 1
}
rm -f "$ADCSV"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL/adaptation?shard=abc")
if [ "$code" != "400" ]; then
  echo "GET /adaptation?shard=abc -> $code, want 400" >&2
  exit 1
fi
echo "GET /adaptation -> split events with template provenance, nonzero ROI, CSV export, 400 on bad shard"

# /metrics is the one series source: the timeline endpoints are gone.
for path in /history /dash /runtime /metrics.json; do
  code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL$path")
  if [ "$code" != "404" ]; then
    echo "GET $path -> $code, want 404" >&2
    exit 1
  fi
done
echo "GET /history /dash /runtime /metrics.json -> 404"

# The readiness probe: the demo has no write-ahead log, so it is ready.
HB=$(check_status /health)
grep -q '"status": "ok"' "$HB" || {
  echo "/health is not ok" >&2
  cat "$HB" >&2
  exit 1
}
rm -f "$HB"
echo "GET /health -> 200, status ok"

# A labeled CPU profile: collect for 2s while SUM queries burn CPU inside
# the engine. Execution runs under pprof.Do with a query_template label,
# so any sample taken mid-query lands the label key in the profile's
# string table — visible as a literal even without decoding the proto.
PROFILE=$(mktemp)
curl -sS -o "$PROFILE" -w '%{http_code}' "$URL/debug/pprof/profile?seconds=2" > "$PROFILE.code" &
CURL_PID=$!
sleep 0.2
for _ in $(seq 1 800); do
  printf 'SELECT SUM(v) FROM data WHERE v BETWEEN 0 AND 99999;\n' >&9
done
wait $CURL_PID
code=$(cat "$PROFILE.code")
if [ "$code" != "200" ] || [ "$(wc -c < "$PROFILE")" -lt 64 ]; then
  echo "GET /debug/pprof/profile?seconds=2 -> $code or truncated body" >&2
  rm -f "$PROFILE" "$PROFILE.code"
  exit 1
fi
python3 - "$PROFILE" <<'PY'
import gzip, sys
data = gzip.open(sys.argv[1], "rb").read()
assert b"query_template" in data, "CPU profile carries no query_template label"
PY
rm -f "$PROFILE" "$PROFILE.code"
echo "GET /debug/pprof/profile?seconds=2 -> 200, query_template label present"

printf '\\quit\n' >&9
exec 9>&-
wait $DEMO_PID 2>/dev/null || true
echo "telemetry smoke: OK"
