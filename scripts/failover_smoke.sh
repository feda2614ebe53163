#!/usr/bin/env bash
# failover_smoke.sh — sharded-failover smoke test.
#
# Topology: two plain m2mserve backends holding identical generated
# datasets, and a sharded frontend scattering every query over them
# (-backends), with shard retries disabled so a lost backend surfaces
# as degraded coverage instead of silently failing over to the
# survivor. The frontend is put under live m2mload traffic that
# accepts degraded answers (-min-coverage); one backend is killed
# (SIGKILL — a crash, not a drain) mid-run. Asserts:
#   - the frontend survives and keeps answering: the load summary
#     counts degraded results after the kill,
#   - the load generator exits 0 — degraded answers and classified
#     sheds/timeouts are the resilience design working, only
#     internal/invalid errors fail a run,
#   - the frontend's /v1/stats sharding block recorded the degraded
#     gathers (and is still being served — the frontend did not wedge).
set -euo pipefail
cd "$(dirname "$0")/.."

FRONT="127.0.0.1:18920"
BACK1="127.0.0.1:18921"
BACK2="127.0.0.1:18922"
ROWS=2000
SEED=1
FRONTLOG="$(mktemp)"
B1LOG="$(mktemp)"
B2LOG="$(mktemp)"
LOADLOG="$(mktemp)"
trap 'kill $FRONT_PID $B1_PID $B2_PID 2>/dev/null || true
      rm -f "$FRONTLOG" "$B1LOG" "$B2LOG" "$LOADLOG"' EXIT

go build -o /tmp/m2mserve ./cmd/m2mserve
go build -o /tmp/m2mload ./cmd/m2mload

/tmp/m2mserve -addr "$BACK1" >"$B1LOG" 2>&1 &
B1_PID=$!
/tmp/m2mserve -addr "$BACK2" >"$B2LOG" 2>&1 &
B2_PID=$!

wait_up() {
  for _ in $(seq 1 50); do
    if curl -sf "http://$1/v1/stats" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  curl -sf "http://$1/v1/stats" >/dev/null
}
wait_up "$BACK1"
wait_up "$BACK2"

# Register the same generated datasets on both backends: registration
# is the first thing m2mload does, so a 1ms run of it against each
# backend leaves the standard mix there. The frontend gets its copies
# from the measured run's own registration with the same -rows/-seed,
# so all three members hold bit-identical datasets and the frontend's
# fingerprint verification passes.
for b in "$BACK1" "$BACK2"; do
  /tmp/m2mload -addr "http://$b" -rows "$ROWS" -seed "$SEED" -duration 1ms >/dev/null
done

/tmp/m2mserve -addr "$FRONT" -backends "http://$BACK1,http://$BACK2" \
  -shard-retries -1 >"$FRONTLOG" 2>&1 &
FRONT_PID=$!
wait_up "$FRONT"

# Drive traffic for 8s, accepting any answer covering >= 20% of the
# driver rows; SIGKILL one backend at the 3s mark. From then on its
# shard fails every gather, so the frontend serves ~half-coverage
# degraded answers off the survivor.
/tmp/m2mload -addr "http://$FRONT" -duration 8s -clients 4 -rows "$ROWS" \
  -seed "$SEED" -retries 2 -min-coverage 0.2 >"$LOADLOG" 2>&1 &
LOAD_PID=$!

sleep 3
kill -KILL "$B2_PID"

LOAD_RC=0
wait "$LOAD_PID" || LOAD_RC=$?

echo "--- frontend log ---"; cat "$FRONTLOG"
echo "--- m2mload log ---"; cat "$LOADLOG"

if [ "$LOAD_RC" -ne 0 ]; then
  echo "FAIL: m2mload exited $LOAD_RC — a lost backend must degrade, not break" >&2
  exit 1
fi
if ! grep -Eq 'degraded=[1-9]' "$LOADLOG"; then
  echo "FAIL: no degraded results after killing a backend" >&2
  exit 1
fi

# The frontend must still be answering, and its sharding stats must
# have recorded the degraded gathers.
STATS="$(curl -sf "http://$FRONT/v1/stats")" || {
  echo "FAIL: frontend stopped serving /v1/stats" >&2
  exit 1
}
if ! printf '%s' "$STATS" | grep -Eq '"degraded":[1-9]'; then
  echo "FAIL: frontend sharding stats show no degraded gathers: $STATS" >&2
  exit 1
fi

echo "PASS: backend loss degraded coverage without breaking the frontend"
