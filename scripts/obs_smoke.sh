#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability smoke test.
#
# Starts m2mserve with the slow-query log, ring tracing and pprof on,
# drives it with m2mload (reads plus background mutations), and asserts:
#   - GET /metrics serves Prometheus text whose core counters are
#     nonzero and reconcile EXACTLY with GET /v1/stats (queries,
#     mutations, cache hits/misses) — one ledger behind both, checked
#     over the wire;
#   - /v1/stats' latency count equals the query-duration histogram's
#     summed count, and m2mload printed the server-side latency line;
#   - GET /v1/trace serves recorded span trees;
#   - the slow-query log emitted structured per-phase lines;
#   - /debug/pprof/ answers behind -pprof.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18923"
LOG="$(mktemp)"
LOADLOG="$(mktemp)"
METRICS="$(mktemp)"
STATS="$(mktemp)"
trap 'kill $SERVE_PID 2>/dev/null || true; rm -f "$LOG" "$LOADLOG" "$METRICS" "$STATS"' EXIT

go build -o /tmp/m2mserve ./cmd/m2mserve
go build -o /tmp/m2mload ./cmd/m2mload

# Threshold 0ms-adjacent so real queries cross it: every query logs.
/tmp/m2mserve -addr "$ADDR" -slow-query-millis 1 -trace-ring 32 -pprof \
  >"$LOG" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 50); do
  if curl -sf "http://$ADDR/v1/stats" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -sf "http://$ADDR/v1/stats" >/dev/null

LOAD_RC=0
/tmp/m2mload -addr "http://$ADDR" -duration 3s -clients 4 -rows 2000 \
  -timeout 2s -retries 1 -mutate-qps 20 >"$LOADLOG" 2>&1 || LOAD_RC=$?

echo "--- m2mload report ---"; cat "$LOADLOG"

# Traffic has stopped: the exposition and the stats snapshot must now
# describe the same totals exactly.
curl -sf "http://$ADDR/metrics" >"$METRICS"
curl -sf "http://$ADDR/v1/stats" >"$STATS"

metric() { awk -v n="$1" '$1 == n { print $2; exit }' "$METRICS"; }
stat() { grep -o "\"$1\":[0-9]*" "$STATS" | head -1 | cut -d: -f2; }

QUERIES_M="$(metric m2m_queries_total)"
QUERIES_S="$(stat queries)"
MUT_M="$(metric m2m_mutations_total)"
MUT_S="$(stat mutations)"
HITS_M="$(metric m2m_cache_hits_total)"
HITS_S="$(stat hits)"
MISS_M="$(metric m2m_cache_misses_total)"
MISS_S="$(stat misses)"

echo "queries: metrics=$QUERIES_M stats=$QUERIES_S"
echo "mutations: metrics=$MUT_M stats=$MUT_S"
echo "cache: hits metrics=$HITS_M stats=$HITS_S, misses metrics=$MISS_M stats=$MISS_S"

[ -n "$QUERIES_M" ] && [ "$QUERIES_M" -gt 0 ] || { echo "FAIL: m2m_queries_total is zero or missing" >&2; exit 1; }
[ -n "$MUT_M" ] && [ "$MUT_M" -gt 0 ] || { echo "FAIL: m2m_mutations_total is zero or missing" >&2; exit 1; }
[ "$QUERIES_M" = "$QUERIES_S" ] || { echo "FAIL: queries do not reconcile ($QUERIES_M vs $QUERIES_S)" >&2; exit 1; }
[ "$MUT_M" = "$MUT_S" ] || { echo "FAIL: mutations do not reconcile ($MUT_M vs $MUT_S)" >&2; exit 1; }
[ "$HITS_M" = "$HITS_S" ] || { echo "FAIL: cache hits do not reconcile ($HITS_M vs $HITS_S)" >&2; exit 1; }
[ "$MISS_M" = "$MISS_S" ] || { echo "FAIL: cache misses do not reconcile ($MISS_M vs $MISS_S)" >&2; exit 1; }

# The latency histogram made it into the exposition, /v1/stats reads its
# latency from the same histogram, and m2mload reported it.
grep -q '^m2m_query_duration_seconds_bucket' "$METRICS" \
  || { echo "FAIL: no query-duration histogram in /metrics" >&2; exit 1; }
LAT_M="$(awk '$1 ~ /^m2m_query_duration_seconds_count/ { s += $2 } END { printf "%d", s }' "$METRICS")"
LAT_S="$(grep -o '"latency":{"count":[0-9]*' "$STATS" | cut -d: -f3)"
echo "latency count: metrics=$LAT_M stats=$LAT_S"
[ "$LAT_M" = "$LAT_S" ] || { echo "FAIL: latency count does not reconcile ($LAT_M vs $LAT_S)" >&2; exit 1; }
grep -q 'server latency (/v1/stats' "$LOADLOG" \
  || { echo "FAIL: m2mload did not print the server-side percentiles" >&2; exit 1; }

# Ring tracing recorded span trees.
curl -sf "http://$ADDR/v1/trace?n=5" | grep -q '"name":"query"' \
  || { echo "FAIL: /v1/trace has no recorded query spans" >&2; exit 1; }

# The slow-query log emitted structured per-phase lines on stderr.
grep -q '"phaseMillis"' "$LOG" \
  || { echo "FAIL: no slow-query lines with phase breakdowns" >&2; exit 1; }

# pprof answers behind the flag.
curl -sf "http://$ADDR/debug/pprof/" >/dev/null \
  || { echo "FAIL: /debug/pprof/ not mounted" >&2; exit 1; }

if [ "$LOAD_RC" -ne 0 ]; then
  echo "FAIL: m2mload exited $LOAD_RC" >&2
  exit 1
fi

echo "PASS: observability smoke (exposition reconciles with stats)"
