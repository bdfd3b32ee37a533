#!/usr/bin/env bash
# Ledger smoke test: three race-instrumented ssmdvfsd replicas — two with
# the efficiency ledger armed, one deliberately WITHOUT it so its
# /debug/ledger 404s on every scrape — behind a dvfsfleet router whose
# ledger plane scrapes all three, with dvfsload driving keyed traffic
# through the stack. Passes when:
#
#   1. the load run completes with zero errored requests, and its exit
#      report carries the fleet efficiency summary (-ledger);
#   2. the router's merged /metrics.prom exposes the ledger_fleet_*
#      gauges with nonzero decisions and the exposition passes
#      dvfsstat -promlint;
#   3. the deliberately ledger-less replica trips the stale alert:
#      alert_firing{rule="stale"} is 1 on the router (an alert rule fired
#      end to end, not just in unit tests);
#   4. dvfstop -once renders a frame from the router AND from a ledgered
#      replica;
#   5. the offline cross-check agrees: on every ledgered replica (r1,
#      r2) whose /debug/ledger holds decisions, its flight-recorder dump
#      replayed through dvfsstat -ledger matches its own online snapshot
#      within the documented 2% tolerance. The ring places GPU keys, so a
#      short run may leave one of them idle; at least one must be checked.
#
# With FLEET_ARTIFACT_DIR set, all logs and the scraped /debug/ledger
# aggregate are copied there on exit — pass or fail — so CI can upload
# them as artifacts either way.
#
# Usage: scripts/ledger_smoke.sh [duration]   (default 3s)
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-3s}"
MODEL=testdata/bench-cache/compressed.json
BIN="$(mktemp -d)"
LOGS="$(mktemp -d)"
cleanup() {
    local pids
    pids="$(jobs -p)"
    # shellcheck disable=SC2086  # one pid per word, not one argument
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    wait 2>/dev/null || true
    if [ -n "${FLEET_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$FLEET_ARTIFACT_DIR"
        cp -r "$LOGS"/. "$FLEET_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$BIN"
    echo "logs kept in $LOGS"
}
trap cleanup EXIT

R1=127.0.0.1:19301
R2=127.0.0.1:19302
R3=127.0.0.1:19303
FLEET_TCP=127.0.0.1:19304
FLEET_HTTP=127.0.0.1:19305
R1_HTTP=127.0.0.1:19306
R2_HTTP=127.0.0.1:19307
R3_HTTP=127.0.0.1:19308

wait_port() {
    local host="${1%%:*}" port="${1##*:}"
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/$host/$port") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.1
    done
    echo "ledger_smoke: timeout waiting for $1" >&2
    return 1
}

echo "== building (race) =="
go build -race -o "$BIN/ssmdvfsd" ./cmd/ssmdvfsd
go build -race -o "$BIN/dvfsfleet" ./cmd/dvfsfleet
go build -race -o "$BIN/dvfsload" ./cmd/dvfsload
go build -o "$BIN/dvfsstat" ./cmd/dvfsstat
go build -o "$BIN/dvfstop" ./cmd/dvfstop

echo "== starting replicas (ledger on r1/r2, deliberately off on r3) =="
"$BIN/ssmdvfsd" -model "$MODEL" -tcp "$R1" -http "$R1_HTTP" -flightrec 65536 \
    -ledger >"$LOGS/r1.log" 2>&1 &
R1_PID=$!
"$BIN/ssmdvfsd" -model "$MODEL" -tcp "$R2" -http "$R2_HTTP" -flightrec 65536 \
    -ledger >"$LOGS/r2.log" 2>&1 &
R2_PID=$!
# No -ledger: its /debug/ledger 404s, every scrape errors, and its
# decision watermark never advances — the stale alert must fire.
"$BIN/ssmdvfsd" -model "$MODEL" -tcp "$R3" -http "$R3_HTTP" \
    >"$LOGS/r3.log" 2>&1 &
R3_PID=$!
wait_port "$R1"
wait_port "$R2"
wait_port "$R3"

echo "== starting router (ledger plane scraping all three) =="
"$BIN/dvfsfleet" -replicas "$R1,$R2,$R3" -tcp "$FLEET_TCP" -http "$FLEET_HTTP" \
    -replica-http "http://$R1_HTTP,http://$R2_HTTP,http://$R3_HTTP" \
    -scrape 200ms -alerts 'burn>1.5;regress>0.5;stale>1' \
    >"$LOGS/fleet.log" 2>&1 &
FLEET_PID=$!
wait_port "$FLEET_TCP"
wait_port "$FLEET_HTTP"

echo "== driving load ($DURATION) with the ledger exit summary armed =="
# dvfsload exits non-zero on any errored request or a failed -ledger
# fetch, which fails the script via set -e.
"$BIN/dvfsload" -fleet -addr "$FLEET_TCP" -conns 4 -batch 8 \
    -duration "$DURATION" -ledger "http://$FLEET_HTTP" \
    | tee "$LOGS/load.log"
grep -q "fleet efficiency ledger" "$LOGS/load.log" || {
    echo "ledger_smoke: FAIL — dvfsload exit report lacks the fleet efficiency summary" >&2
    exit 1
}

# Give the scrape loop time to pass the stale threshold on r3 (its
# watermark started at the first failed scrape and never advances).
sleep 2

echo "== scraping the merged exposition and aggregate =="
curl -fsS "http://$FLEET_HTTP/metrics.prom" >"$LOGS/fleet-metrics.prom"
curl -fsS "http://$FLEET_HTTP/debug/ledger" >"$LOGS/fleet-ledger.json"
curl -fsS "http://$R1_HTTP/debug/ledger" >"$LOGS/r1-ledger.json"
curl -fsS "http://$R1_HTTP/debug/decisions" >"$LOGS/r1-decisions.jsonl"
"$BIN/dvfsstat" -promlint "$LOGS/fleet-metrics.prom"

echo "== checking ledger gauges =="
grep -E '^(ledger_fleet_|ledger_replicas_ok|alert_firing)' "$LOGS/fleet-metrics.prom" || true
DECISIONS="$(awk '/^ledger_fleet_decisions/ {print int($2)}' "$LOGS/fleet-metrics.prom")"
if [ "${DECISIONS:-0}" -lt 1 ]; then
    echo "ledger_smoke: FAIL — merged ledger holds no decisions" >&2
    exit 1
fi

echo "== checking the deliberately-triggered stale alert =="
STALE="$(awk '/^alert_firing\{rule="stale"\}/ {print int($2)}' "$LOGS/fleet-metrics.prom")"
if [ "${STALE:-0}" -ne 1 ]; then
    echo "ledger_smoke: FAIL — ledger-less replica did not trip alert_firing{rule=\"stale\"}" >&2
    exit 1
fi

echo "== rendering dvfstop frames (router and replica) =="
"$BIN/dvfstop" -once -url "http://$FLEET_HTTP" | tee "$LOGS/dvfstop-fleet.txt"
grep -q "fleet efficiency ledger" "$LOGS/dvfstop-fleet.txt"
grep -q "FIRING" "$LOGS/dvfstop-fleet.txt"
"$BIN/dvfstop" -once -url "http://$R1_HTTP" | tee "$LOGS/dvfstop-replica.txt"
grep -q "replica efficiency ledger" "$LOGS/dvfstop-replica.txt"

echo "== cross-checking each ledgered replica's online ledger against the exact offline replay =="
# Quiesce first so the snapshots and the dumps cover the same decisions.
sleep 0.5
CHECKED=""
for r in "r1 $R1_HTTP" "r2 $R2_HTTP"; do
    set -- $r
    curl -fsS "http://$2/debug/ledger" >"$LOGS/$1-ledger.json"
    # The snapshot's top-level count is its first "decisions" field.
    N="$(grep -o '"decisions": *[0-9]*' "$LOGS/$1-ledger.json" | head -n 1 | grep -o '[0-9]*$' || true)"
    if [ "${N:-0}" -lt 1 ]; then
        echo "$1 served no decisions; not cross-checked"
        continue
    fi
    curl -fsS "http://$2/debug/decisions" >"$LOGS/$1-decisions.jsonl"
    "$BIN/dvfsstat" -ledger "$LOGS/$1-decisions.jsonl" \
        -ledger-against "$LOGS/$1-ledger.json" | tee "$LOGS/$1-crosscheck.log"
    CHECKED="$CHECKED $1"
done
if [ -z "$CHECKED" ]; then
    echo "ledger_smoke: FAIL — no ledgered replica served decisions to cross-check" >&2
    exit 1
fi

echo "== shutting down =="
kill -TERM "$FLEET_PID"
wait "$FLEET_PID" || true
kill -TERM "$R1_PID" "$R2_PID" "$R3_PID"
wait "$R1_PID" "$R2_PID" "$R3_PID" 2>/dev/null || true

echo "ledger_smoke: PASS ($DECISIONS decisions merged; stale alert fired; online = replay on$CHECKED)"
