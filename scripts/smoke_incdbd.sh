#!/usr/bin/env sh
# smoke_incdbd.sh — end-to-end smoke of the incdbd service: build the
# binaries, start a durable server on a random free port, load and append
# data through the incdbctl client, assert a certain answer plus the
# prepared-plan and result cache hits, then SIGKILL the server
# mid-load-sequence, restart it on the same data directory and assert that
# every answer and version vector matches the pre-kill state. Along the way
# /v1/metrics is scraped and key series are asserted to exist and to move
# with traffic, and `incdbctl trace` is exercised against the default-on
# distributed tracing (list recent roots, render one query's span tree).
# Ends with a graceful-shutdown check.
set -eu

BIN="${BIN:-./bin}"
QUERY='proj(0, sel(not(in(0, Payments)), Orders))'
# Same plan (whitespace is insignificant), different bytes: exercises the
# prepared-plan cache without being absorbed by the byte-exact result cache.
QUERY_RESPELLED='proj(0,  sel(not(in(0, Payments)), Orders))'

mkdir -p "$BIN"
go build -o "$BIN/incdbd" ./cmd/incdbd
go build -o "$BIN/incdbctl" ./cmd/incdbctl

# Random free port so parallel CI jobs cannot collide.
PORT="${PORT:-$(go run ./scripts/freeport)}"
ADDR="127.0.0.1:$PORT"
DATA_DIR="$(mktemp -d)"
trap 'kill "$SRV" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT

wait_up() {
    i=0
    while [ $i -lt 50 ]; do
        if curl -fs "http://$ADDR/v1/status" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
        i=$((i + 1))
    done
    echo "incdbd did not come up on $ADDR" >&2
    exit 1
}

"$BIN/incdbd" -addr "$ADDR" -data-dir "$DATA_DIR" &
SRV=$!
wait_up

CTL="$BIN/incdbctl client -addr http://$ADDR -session smoke"
$CTL load examples/data/orders.idb

echo "== certain-answer query (cold) =="
out=$($CTL cert "$QUERY")
echo "$out"
echo "$out" | grep -q "o2" || { echo "expected certain answer o2" >&2; exit 1; }

echo "== plan-equal respelled query (must hit the prepared-plan cache) =="
$CTL cert "$QUERY_RESPELLED" >/dev/null
status=$($CTL status)
echo "$status"
echo "$status" | grep 'cache' | grep -q "1 hits" || {
    echo "respelled query did not hit the prepared-plan cache" >&2; exit 1; }

echo "== byte-identical repeat (must hit the oracle result cache) =="
$CTL cert "$QUERY_RESPELLED" >/dev/null
status=$($CTL status)
echo "$status" | grep 'results' | grep -q "1 hits" || {
    echo "repeated query did not hit the result cache" >&2; exit 1; }

echo "== /v1/metrics: valid exposition, series present and moving =="
# One series value from a fresh scrape (counters render as integers).
metric() {
    curl -fs "http://$ADDR/v1/metrics" | awk -v s="$1" '$1 == s { print $2 }'
}
curl -fs "http://$ADDR/v1/metrics" | grep -q '^# TYPE incdb_queries_total counter' || {
    echo "/v1/metrics is not serving the exposition format" >&2; exit 1; }
before="$(metric 'incdb_queries_total{proc="cert",session="smoke"}')"
[ -n "$before" ] || { echo "no incdb_queries_total series for the smoke session" >&2; exit 1; }
fsyncs="$(metric 'incdb_wal_fsync_seconds_count')"
[ "${fsyncs:-0}" -ge 1 ] || {
    echo "durable server reports no WAL fsyncs (incdb_wal_fsync_seconds_count=$fsyncs)" >&2; exit 1; }
[ "$(metric 'incdb_role{role="primary"}')" = "1" ] || {
    echo "incdb_role{role=primary} != 1 on a standalone server" >&2; exit 1; }
$CTL cert "$QUERY" >/dev/null
after="$(metric 'incdb_queries_total{proc="cert",session="smoke"}')"
[ "$after" -gt "$before" ] || {
    echo "incdb_queries_total did not move with traffic ($before -> $after)" >&2; exit 1; }
echo "metrics move with traffic: cert queries $before -> $after, $fsyncs fsyncs"

echo "== retired flat routes 404; an unknown proc is refused (422) without waiting =="
[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/query" -d '{"query":"proj(0, Orders)"}')" = 404 ] || { echo "flat route POST /v1/query is still served" >&2; exit 1; }
[ "$(curl -s -o /dev/null -w '%{http_code}' -m 2 -X POST "http://$ADDR/v1/sessions/smoke/query" -d '{"query":"proj(0, Orders)","proc":"no-such-proc"}')" = 422 ] || { echo "unknown proc was not refused with 422" >&2; exit 1; }

echo "== distributed tracing: incdbctl trace lists roots and renders a tree =="
# Tracing is on by default (-trace-sample 1.0): the queries above are all
# in the span ring. A fresh traced query returns its trace ID in the
# response; the list view must include it and the tree view must show the
# request's inner spans.
TRACED=$(curl -fs -X POST "http://$ADDR/v1/sessions/smoke/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "minus(proj(0, Customers), proj(1, Orders))", "proc": "cert", "trace_detail": true}')
TRACE_ID=$(printf '%s' "$TRACED" | sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$TRACE_ID" ] || {
    echo "traced query returned no trace_id: $TRACED" >&2; exit 1; }
"$BIN/incdbctl" trace -addr "http://$ADDR" | grep -q "$TRACE_ID" || {
    echo "incdbctl trace does not list trace $TRACE_ID" >&2; exit 1; }
tree=$("$BIN/incdbctl" trace -addr "http://$ADDR" "$TRACE_ID")
echo "$tree"
for span in "POST /v1/sessions/smoke/query" "result_cache.lookup" "evaluate" "plan."; do
    echo "$tree" | grep -qF "$span" || {
        echo "trace tree is missing a $span span" >&2; exit 1; }
done
echo "trace $TRACE_ID renders with evaluation and plan-node spans"

echo "== crash recovery: append, SIGKILL mid-sequence, restart, compare =="
APPEND_FILE="$DATA_DIR/append.idb"
printf "row Orders o3 c2\nrow Payments o3\nrow Orders o4 _7\n" >"$APPEND_FILE"
$CTL append "$APPEND_FILE"
pre_answer=$($CTL cert "$QUERY" | grep '^  ')
pre_possible=$($CTL ctable-eager 'proj(1, Orders)' | grep '^  ')
pre_versions=$($CTL status | grep 'rows (version')

kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true

"$BIN/incdbd" -addr "$ADDR" -data-dir "$DATA_DIR" &
SRV=$!
wait_up

post_answer=$($CTL cert "$QUERY" | grep '^  ')
post_possible=$($CTL ctable-eager 'proj(1, Orders)' | grep '^  ')
post_versions=$($CTL status | grep 'rows (version')
[ "$pre_answer" = "$post_answer" ] || {
    echo "certain answers diverged after recovery:" >&2
    echo "pre:  $pre_answer" >&2; echo "post: $post_answer" >&2; exit 1; }
[ "$pre_possible" = "$post_possible" ] || {
    echo "ctable answers (null identities) diverged after recovery:" >&2
    echo "pre:  $pre_possible" >&2; echo "post: $post_possible" >&2; exit 1; }
[ "$pre_versions" = "$post_versions" ] || {
    echo "version vectors diverged after recovery:" >&2
    echo "pre:  $pre_versions" >&2; echo "post: $post_versions" >&2; exit 1; }
echo "recovered state matches pre-kill state"

echo "== graceful shutdown =="
kill -TERM "$SRV"
wait "$SRV"
trap 'rm -rf "$DATA_DIR"' EXIT
echo "incdbd smoke OK"
