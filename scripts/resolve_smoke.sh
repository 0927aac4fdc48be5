#!/usr/bin/env bash
# Incremental re-solve smoke test: boot a race-enabled sesd, open an SSE
# subscription, stream mutations at it — single PATCHes and a batch POST —
# and assert the pushed schedule events arrive at the right versions, that
# the post-mutation re-solves are warm rebuilds from the previous version,
# that the newest re-solve trace carries every solve stage, and that the
# sesd_resolve_* metric families move accordingly. Run by CI;
# runnable locally: ./scripts/resolve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:18341"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SESD_PID=""
SUB_PID=""

cleanup() {
  [ -n "$SUB_PID" ] && kill "$SUB_PID" 2>/dev/null || true
  [ -n "$SESD_PID" ] && kill -9 "$SESD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building (race-enabled sesd) =="
go build -race -o "$WORK/sesd" ./cmd/sesd
go build -o "$WORK/sesgen" ./cmd/sesgen

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "sesd never became ready" >&2
  return 1
}

# sample NAME FILE — value of the first sample line for NAME; 0 if absent.
sample() {
  awk -v name="$1" '
    $0 !~ /^#/ && (index($0, name " ") == 1 || index($0, name "{") == 1) {
      print $NF; found = 1; exit
    }
    END { if (!found) print 0 }' "$2"
}

# events_at_least N — wait until the SSE log holds N resolve events.
events_at_least() {
  for _ in $(seq 1 100); do
    n="$(grep -c '^event: resolve$' "$WORK/sse.log" 2>/dev/null || true)"
    [ "${n:-0}" -ge "$1" ] && return 0
    sleep 0.1
  done
  echo "subscriber never saw $1 resolve event(s); stream so far:" >&2
  cat "$WORK/sse.log" >&2
  return 1
}

echo "== boot and upload =="
"$WORK/sesgen" -k 4 -users 300 -seed 7 -o "$WORK/a.json"
"$WORK/sesd" -addr "$ADDR" > "$WORK/sesd.log" 2>&1 &
SESD_PID=$!
wait_ready
curl -sf -X PUT --data-binary @"$WORK/a.json" "$BASE/instances/live" >/dev/null

echo "== subscribe (SSE) =="
curl -sfN "$BASE/instances/live/subscribe?algorithm=HOR-I&k=3" \
  > "$WORK/sse.log" 2>/dev/null &
SUB_PID=$!
events_at_least 1

echo "== stream mutations: two PATCHes and one batch =="
curl -sf -X PATCH -d '{"interest":[{"user":2,"index":1,"value":0.4}]}' \
  "$BASE/instances/live" >/dev/null
events_at_least 2
curl -sf -X PATCH -d '{"activity":[{"user":5,"index":0,"value":0.7}]}' \
  "$BASE/instances/live" >/dev/null
events_at_least 3
# The batch endpoint: three deltas, ONE version bump, one push.
curl -sf -X POST -d '{"mutations":[
    {"interest":[{"user":1,"index":0,"value":0.9}]},
    {"activity":[{"user":3,"index":1,"value":0.2}]},
    {"interest":[{"user":1,"index":0,"value":0.3}]}]}' \
  "$BASE/instances/live/mutations" > "$WORK/batch.json"
jq -e '.applied == 3 and .instance.store_version == 4' "$WORK/batch.json" >/dev/null || {
  echo "unexpected batch response:" >&2
  cat "$WORK/batch.json" >&2
  exit 1
}
events_at_least 4

echo "== pushed events: versions advance, re-solves are warm =="
grep '^data: ' "$WORK/sse.log" | sed 's/^data: //' > "$WORK/events.jsonl"
jq -s -e '[.[].instance.store_version] == [1,2,3,4]' "$WORK/events.jsonl" >/dev/null || {
  echo "pushed versions out of order:" >&2
  jq -c '.instance.store_version' "$WORK/events.jsonl" >&2
  exit 1
}
# The first solve of a fresh instance is cold; every mutation after it must
# be answered by the warm path (the engine cache rebuilt from the previous
# version's engine, with the dirty set read off the snapshot chain).
jq -s -e '[.[] | (.warm // false)] == [false,true,true,true]' "$WORK/events.jsonl" >/dev/null || {
  echo "warm flags wrong (want cold first, warm after):" >&2
  jq -c '.warm // false' "$WORK/events.jsonl" >&2
  exit 1
}
# Every push carries a schedule; pushes 2..4 carry a delta section only when
# the schedule actually changed, so just check the full schedule is present.
jq -s -e 'all(.[]; (.schedule.assignments | length) > 0)' "$WORK/events.jsonl" >/dev/null

echo "== traces: the newest re-solve has the full stage tree =="
curl -sf "$BASE/debug/traces?route=resolve&limit=1" > "$WORK/traces.json"
TRACE_ID="$(jq -r '.traces[0].trace_id' "$WORK/traces.json")"
curl -sf "$BASE/debug/traces/$TRACE_ID" > "$WORK/trace.json"
jq -e '[(.root.children // [])[].name] as $have
  | ["queue","engine_acquire","score","select","encode"] | all(. as $s | $have | index($s))' \
  "$WORK/trace.json" >/dev/null || {
  echo "resolve trace lacks a stage (want queue, engine_acquire, score, select, encode):" >&2
  jq -c '[(.root.children // [])[].name]' "$WORK/trace.json" >&2
  exit 1
}

echo "== metrics: the resolve families moved =="
curl -sf "$BASE/metrics" > "$WORK/metrics.txt"
[ "$(sample sesd_resolve_solves_total "$WORK/metrics.txt")" = "4" ] || {
  echo "sesd_resolve_solves_total != 4" >&2; exit 1; }
[ "$(sample sesd_resolve_warm_total "$WORK/metrics.txt")" = "3" ] || {
  echo "sesd_resolve_warm_total != 3" >&2; exit 1; }
[ "$(sample sesd_resolve_fallback_total "$WORK/metrics.txt")" = "1" ] || {
  echo "sesd_resolve_fallback_total != 1" >&2; exit 1; }
[ "$(sample sesd_resolve_pushes_total "$WORK/metrics.txt")" = "4" ] || {
  echo "sesd_resolve_pushes_total != 4" >&2; exit 1; }
[ "$(sample sesd_mutation_batches_total "$WORK/metrics.txt")" = "1" ] || {
  echo "sesd_mutation_batches_total != 1" >&2; exit 1; }
[ "$(sample sesd_subscribers "$WORK/metrics.txt")" = "1" ] || {
  echo "sesd_subscribers != 1" >&2; exit 1; }
awk_ge() { awk -v v="$1" 'BEGIN { exit !(v+0 >= 1) }'; }
sample sesd_engine_cache_warm_builds_total "$WORK/metrics.txt" | { read -r v; awk_ge "$v"; } || {
  echo "sesd_engine_cache_warm_builds_total never moved" >&2; exit 1; }
sample sesd_resolve_duration_seconds_count "$WORK/metrics.txt" | { read -r v; awk_ge "$v"; } || {
  echo "sesd_resolve_duration_seconds never observed" >&2; exit 1; }

echo "== subscriber teardown updates the gauge =="
kill "$SUB_PID" 2>/dev/null || true
wait "$SUB_PID" 2>/dev/null || true
SUB_PID=""
for _ in $(seq 1 50); do
  curl -sf "$BASE/metrics" > "$WORK/metrics2.txt"
  [ "$(sample sesd_subscribers "$WORK/metrics2.txt")" = "0" ] && break
  sleep 0.1
done
[ "$(sample sesd_subscribers "$WORK/metrics2.txt")" = "0" ] || {
  echo "sesd_subscribers stuck after disconnect" >&2; exit 1; }

echo "resolve smoke: OK"
