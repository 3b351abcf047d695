#!/usr/bin/env bash
# Query-server smoke test: start adskip-server on a generated dataset,
# drive it with adskip-load on ≥50 concurrent connections, assert a
# zero-error run, check the server's counters on /metrics (including
# prepared-statement cache hits), then SIGTERM and require a clean
# drain. CI runs this to exercise the real binaries end to end — the
# protocol, session pool, statement cache, and graceful shutdown that
# in-process tests cover only piecewise.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
OUT=$(mktemp)
trap 'rm -f "$OUT"; kill $SRV_PID 2>/dev/null || true' EXIT

ROWS=200000
go build -o "$BIN/adskip-server" ./cmd/adskip-server
go build -o "$BIN/adskip-load" ./cmd/adskip-load

"$BIN/adskip-server" -addr 127.0.0.1:0 -telemetry 127.0.0.1:0 \
  -rows "$ROWS" -dist uniform > "$OUT" 2>&1 &
SRV_PID=$!

# Wait for both banners: the telemetry URL and the query listen address.
ADDR="" URL=""
for _ in $(seq 1 100); do
  URL=$(grep -o 'http://[0-9.:]*' "$OUT" | head -1 || true)
  ADDR=$(sed -n 's/^listening on //p' "$OUT" | head -1 || true)
  [ -n "$URL" ] && [ -n "$ADDR" ] && break
  sleep 0.2
done
if [ -z "$URL" ] || [ -z "$ADDR" ]; then
  echo "server never announced its addresses; output:" >&2
  cat "$OUT" >&2
  exit 1
fi
echo "server at $ADDR, telemetry at $URL"

# Closed-loop load: 64 connections, Zipf-skewed template mix. The
# binary exits non-zero if any request failed.
"$BIN/adskip-load" -addr "$ADDR" -conns 64 -duration 3s -domain "$ROWS" -seed 3
echo "plain load: 64 connections, zero errors"

# A short prepared-statement run over the same templates.
"$BIN/adskip-load" -addr "$ADDR" -conns 16 -duration 1s -domain "$ROWS" -seed 3 -prepared
echo "prepared load: zero errors"

# Timed load: every request carries a trace ID and asks for the server's
# latency breakdown. The binary exits 1 if any breakdown violates its
# invariants (attributed phases must sum to <= the server total, and the
# server total must fit inside the client-observed round trip), so this
# run asserts the timing contract end to end over a real network path.
TIMED=$(mktemp)
"$BIN/adskip-load" -addr "$ADDR" -conns 16 -duration 2s -domain "$ROWS" -seed 7 -timing | tee "$TIMED"
grep -q 'latency attribution' "$TIMED" || {
  echo "timed load printed no attribution table" >&2
  exit 1
}
rm -f "$TIMED"
echo "timed load: breakdowns within client-observed latency, zero violations"

# /metrics saw the load and carries the Go runtime gauges; the timeline
# endpoints are gone.
MET=$(mktemp)
curl -sS -o "$MET" "$URL/metrics"
queries=$(awk '$1 ~ /^adskip_queries_total/ {sum += int($2)} END {print sum+0}' "$MET")
if [ "$queries" -le 0 ] || ! grep -q '^go_goroutines ' "$MET"; then
  echo "/metrics: adskip_queries_total=$queries, go_goroutines $(grep -c '^go_goroutines ' "$MET") lines" >&2
  exit 1
fi
rm -f "$MET"
for path in /history /dash /runtime /metrics.json; do
  code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL$path")
  [ "$code" = "404" ] || { echo "GET $path -> $code, want 404" >&2; exit 1; }
done
echo "GET /metrics -> $queries queries counted, go_goroutines present; timeline endpoints 404"

# The readiness probe: a volatile server is ready once it listens.
HB=$(mktemp)
code=$(curl -sS -o "$HB" -w '%{http_code}' "$URL/health")
if [ "$code" != "200" ] || ! grep -q '"status": "ok"' "$HB"; then
  echo "GET /health -> $code, want 200 ok" >&2
  cat "$HB" >&2
  exit 1
fi
rm -f "$HB"
echo "GET /health -> 200, status ok"

# The server's own counters must be on the shared /metrics endpoint.
# Give the server a moment to reap the load generator's closed sessions
# so the active-connections gauge is back to zero.
sleep 1
METRICS=$(mktemp)
code=$(curl -sS -o "$METRICS" -w '%{http_code}' "$URL/metrics")
if [ "$code" != "200" ]; then
  echo "GET /metrics -> $code" >&2
  cat "$METRICS" >&2
  exit 1
fi
for metric in adskip_server_connections_total adskip_server_frames_read_total \
              adskip_server_request_seconds adskip_server_stmt_cache_hits_total; do
  grep -q "^$metric" "$METRICS" || {
    echo "/metrics missing $metric" >&2
    cat "$METRICS" >&2
    exit 1
  }
done
hits=$(awk '$1 == "adskip_server_stmt_cache_hits_total" {print int($2)}' "$METRICS")
if [ -z "$hits" ] || [ "$hits" -le 0 ]; then
  echo "statement cache shows no hits (got: ${hits:-none})" >&2
  exit 1
fi
active=$(awk '$1 == "adskip_server_active_connections" {print int($2)}' "$METRICS")
if [ -n "$active" ] && [ "$active" -ne 0 ]; then
  echo "active connections not back to 0 after load: $active" >&2
  exit 1
fi
rm -f "$METRICS"
echo "GET /metrics -> 200, server counters present, stmt cache hits: $hits"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM $SRV_PID
if ! wait $SRV_PID; then
  echo "server exited non-zero on SIGTERM; output:" >&2
  cat "$OUT" >&2
  exit 1
fi
SRV_PID=
grep -q '^drained$' "$OUT" || {
  echo "server did not report a drained shutdown; output:" >&2
  cat "$OUT" >&2
  exit 1
}
echo "shutdown: drained cleanly"

# ---------------------------------------------------------------------------
# Sharded server: the same binaries with -shards 4 partitioning "data"
# on the query column. The Zipf template mix concentrates range
# predicates, so the scatter-gather layer must prune whole shards —
# asserted via adskip_shard_pruned_total on /metrics.

: > "$OUT"
"$BIN/adskip-server" -addr 127.0.0.1:0 -telemetry 127.0.0.1:0 \
  -rows "$ROWS" -dist uniform -shards 4 -shard-key v > "$OUT" 2>&1 &
SRV_PID=$!

ADDR="" URL=""
for _ in $(seq 1 100); do
  URL=$(grep -o 'http://[0-9.:]*' "$OUT" | head -1 || true)
  ADDR=$(sed -n 's/^listening on //p' "$OUT" | head -1 || true)
  [ -n "$URL" ] && [ -n "$ADDR" ] && break
  sleep 0.2
done
if [ -z "$URL" ] || [ -z "$ADDR" ]; then
  echo "sharded server never announced its addresses; output:" >&2
  cat "$OUT" >&2
  exit 1
fi
grep -q '^sharded: 4 shards' "$OUT" || {
  echo "sharded server did not announce its shard layout; output:" >&2
  cat "$OUT" >&2
  exit 1
}
echo "sharded server at $ADDR (4 shards), telemetry at $URL"

"$BIN/adskip-load" -addr "$ADDR" -conns 32 -duration 3s -domain "$ROWS" -seed 5
echo "sharded load: 32 connections, zero errors"

MET=$(mktemp)
curl -sS -o "$MET" "$URL/metrics"
pruned=$(awk '$1 ~ /^adskip_shard_pruned_total/ {sum += int($2)} END {print sum+0}' "$MET")
scanned=$(awk '$1 ~ /^adskip_shard_scanned_total/ {sum += int($2)} END {print sum+0}' "$MET")
if [ "$pruned" -le 0 ]; then
  echo "adskip_shard_pruned_total is $pruned after a Zipf range load — shard pruning never fired" >&2
  grep '^adskip_shard' "$MET" >&2 || true
  exit 1
fi
echo "shard pruning active: $pruned shards pruned, $scanned scanned"

# The per-shard dimension is on /skipmap, and bad shard filters are 400s.
code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL/skipmap?shard=2")
[ "$code" = "200" ] || { echo "GET /skipmap?shard=2 -> $code" >&2; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL/skipmap?shard=99")
[ "$code" = "400" ] || { echo "GET /skipmap?shard=99 -> $code, want 400" >&2; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' "$URL/workload?shard=abc")
[ "$code" = "400" ] || { echo "GET /workload?shard=abc -> $code, want 400" >&2; exit 1; }
rm -f "$MET"
echo "per-shard telemetry filters: 200 on valid shard, 400 on bad"

kill -TERM $SRV_PID
if ! wait $SRV_PID; then
  echo "sharded server exited non-zero on SIGTERM; output:" >&2
  cat "$OUT" >&2
  exit 1
fi
SRV_PID=
grep -q '^drained$' "$OUT" || {
  echo "sharded server did not report a drained shutdown; output:" >&2
  cat "$OUT" >&2
  exit 1
}
echo "sharded shutdown: drained cleanly"
echo "server smoke: OK"
