#!/usr/bin/env bash
# Query-server smoke test: what only the real adskip-server binary shows.
# Start it with telemetry on, wait for its banners and "ready", answer one
# query frame written to a bare TCP socket, read /metrics, /health and
# every link on the telemetry index, then SIGTERM it and require a clean
# drain — once unsharded, once with -shards 4. Behaviour under load (many
# connections, the statement cache, timing invariants, shard pruning) is
# TestManyConnections in internal/server.
set -euo pipefail
LC_ALL=C # ${#req} below counts bytes

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
OUT=$(mktemp)
SRV_PID=
trap 'kill $SRV_PID 2>/dev/null || true; rm -rf "$BIN" "$OUT"' EXIT

go build -o "$BIN/adskip-server" ./cmd/adskip-server

fail() {
  echo "$*; server output:" >&2
  cat "$OUT" >&2
  exit 1
}

# start ARGS...: run the server on ephemeral ports and wait for "ready",
# which it prints after the telemetry and listen banners.
start() {
  : > "$OUT"
  "$BIN/adskip-server" -addr 127.0.0.1:0 -telemetry 127.0.0.1:0 \
    -rows 100000 -dist uniform "$@" > "$OUT" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 100); do
    grep -q '^ready$' "$OUT" && break
    kill -0 "$SRV_PID" 2>/dev/null || fail "server exited before ready"
    sleep 0.1
  done
  grep -q '^ready$' "$OUT" || fail "server never printed ready"
  URL=$(sed -n 's/^telemetry: //p' "$OUT")
  ADDR=$(sed -n 's/^listening on //p' "$OUT")
  [ -n "$URL" ] && [ -n "$ADDR" ] || fail "no telemetry or listen banner"
  echo "server at $ADDR, telemetry at $URL"
}

# get PATH: print the body of PATH on the telemetry server, which must
# answer 200.
get() {
  local body code
  body=$(mktemp)
  code=$(curl -sS -o "$body" -w '%{http_code}' "$URL$1")
  cat "$body"
  rm -f "$body"
  [ "$code" = 200 ] || fail "GET $1 -> $code, want 200"
}

# query SQL: write one request frame (4-byte big-endian length, then the
# JSON request) to a fresh connection and print the response frame's JSON.
query() {
  local req="{\"op\":\"query\",\"sql\":\"$1\"}" n
  n=${#req}
  exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
  printf "$(printf '\\%03o' $((n >> 24 & 255)) $((n >> 16 & 255)) $((n >> 8 & 255)) $((n & 255)))%s" "$req" >&3
  n=$(timeout 10 head -c 4 <&3 | od -An -tu1 | awk '{print $1 * 16777216 + $2 * 65536 + $3 * 256 + $4}')
  timeout 10 head -c "$n" <&3
  exec 3<&-
}

# stop: SIGTERM must drain, print "drained" and exit 0.
stop() {
  kill -TERM "$SRV_PID"
  wait "$SRV_PID" || fail "server exited non-zero on SIGTERM"
  SRV_PID=
  grep -q '^drained$' "$OUT" || fail "server did not report a drained shutdown"
  echo "SIGTERM: drained, exit 0"
}

health() {
  get /health | grep -q '"status": "ok"' || fail "/health is not ok"
  echo "GET /health -> 200, status ok"
}

start
reply=$(query 'SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 999')
case "$reply" in
  *'"ok":true'*) echo "query over TCP -> $reply" ;;
  *) fail "query over TCP answered: $reply" ;;
esac

MET=$(get /metrics)
queries=$(awk '$1 ~ /^adskip_queries_total/ {sum += $2} END {print sum + 0}' <<< "$MET")
[ "$queries" -ge 1 ] || fail "/metrics: adskip_queries_total = $queries, want >= 1"
for metric in go_goroutines adskip_server_connections_total adskip_server_frames_read_total \
              adskip_server_request_seconds adskip_server_stmt_cache_misses_total; do
  grep -q "^$metric" <<< "$MET" || fail "/metrics has no $metric"
done
echo "GET /metrics -> adskip_queries_total $queries, go_goroutines and adskip_server_* present"

health
INDEX=$(get /)
links=$(grep -o 'href="[^"]*"' <<< "$INDEX" | sed 's/^href="//; s/"$//')
[ -n "$links" ] || fail "GET / lists no links"
for path in $links; do
  get "$path" > /dev/null
done
echo "GET / -> every link answers 200:" $links
stop

start -shards 4
grep -q '^sharded: 4 shards' "$OUT" || fail "no sharded: 4 shards banner"
echo "sharded banner present"
health
stop
echo "server smoke: OK"
