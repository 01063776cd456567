#!/usr/bin/env bash
# sweepd_smoke.sh — end-to-end smoke test of the sweep daemon.
#
# Stands up a real sweepd process with external worker processes that
# share NO filesystem with the daemon (each journals into its own private
# directory and uploads sealed result bytes in Complete), submits sweeps
# through `vccsweep -server`, and asserts that:
#
#   1. kill -9'ing a worker mid-sweep loses nothing: the rendered CSV is
#      byte-identical to the same sweep run locally (lease reclamation
#      lost nothing, double-counted nothing, and every result crossed the
#      wire through the daemon's content check);
#   2. a second grid (iraw,extrabypass) against the same daemon is also
#      byte-identical to local, and the daemon's sweep status counts the
#      cells it did not lease: the first grid's IRAW cells at 600–700 mV
#      follow their baseline cells (35 of 182 at one seed), and the second
#      grid replays all its IRAW cells plus the Extra-Bypass cells at
#      625–700 mV, which share the baseline cells' canonical keys (119 of
#      182);
#   3. a windowed sweep (-window, warm-state checkpoints on: each
#      worker keeps a private ckpt store beside its private journal) is
#      also byte-identical to its local run;
#   4. a mid-sweep network partition (SIGSTOP a worker past the lease TTL,
#      then SIGCONT) plus another kill -9 still converges byte-identical —
#      the frozen worker abandons its reclaimed cell on thaw and rejoins;
#   5. a -width 3 sweep is byte-identical daemon vs local: the spec's
#      width reaches both the daemon's cell keys and the workers'
#      regenerated configs, so a width-threading bug on either side would
#      fail the content check or change the rendered numbers;
#   6. SIGTERM drains the daemon gracefully: it verifies the journal and
#      exits 0.
#
# Usage: scripts/sweepd_smoke.sh [insts] [seeds]
set -euo pipefail
cd "$(dirname "$0")/.."

INSTS="${1:-20000}"
SEEDS="${2:-1}"
MODES="baseline,iraw"

WORK="$(mktemp -d)"
DAEMON_PID=""
WORKER_PIDS=()
cleanup() {
  for p in "${WORKER_PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "sweepd_smoke: building" >&2
go build -o "$WORK/sweepd" ./cmd/sweepd
go build -o "$WORK/vccsweep" ./cmd/vccsweep

echo "sweepd_smoke: local baseline sweep" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" -csv \
  > "$WORK/local.csv"

echo "sweepd_smoke: starting daemon (external workers only)" >&2
# -addr :0 picks a free port; parse it from the serving line. Short lease
# TTL so the murdered worker's cell requeues quickly.
"$WORK/sweepd" -addr 127.0.0.1:0 -journal "$WORK/jnl" -workers -1 \
  -lease-ttl 2s > "$WORK/daemon.out" 2> "$WORK/daemon.err" &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^sweepd: serving on //p' "$WORK/daemon.out" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "sweepd_smoke: FAIL daemon died at startup" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "sweepd_smoke: FAIL no serving line" >&2; exit 1; }
echo "sweepd_smoke: daemon on $ADDR (pid $DAEMON_PID)" >&2

# Each worker gets an explicitly private journal directory — disjoint
# from the daemon's and from each other's, as if on different machines.
spawn_worker() { # spawn_worker <index>
  local i="$1"
  mkdir -p "$WORK/w$i-jnl"
  "$WORK/sweepd" -worker -join "$ADDR" -name "smoke-$i" -poll 20ms \
    -worker-journal "$WORK/w$i-jnl" \
    2> "$WORK/worker$i.err" &
  WORKER_PIDS+=($!)
  disown $! # keep bash's job reaper from announcing the kill -9
}
spawn_worker 1
spawn_worker 2

echo "sweepd_smoke: submitting sweep through vccsweep -server" >&2
"$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -csv > "$WORK/daemon.csv" 2> "$WORK/client.err" &
CLIENT_PID=$!

# Give the sweep a moment to get cells in flight, then murder one worker.
sleep 1
echo "sweepd_smoke: kill -9 worker ${WORKER_PIDS[0]}" >&2
kill -9 "${WORKER_PIDS[0]}"

if ! wait "$CLIENT_PID"; then
  echo "sweepd_smoke: FAIL client sweep errored" >&2
  cat "$WORK/client.err" >&2
  exit 1
fi

if ! diff -u "$WORK/local.csv" "$WORK/daemon.csv"; then
  echo "sweepd_smoke: FAIL daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: daemon CSV identical to local CSV" >&2

# Sanity: push-down really happened — the dead and live workers' private
# journals hold cells, and they are not the daemon's directory.
for i in 1 2; do
  if ! ls "$WORK/w$i-jnl"/*.cell >/dev/null 2>&1; then
    echo "sweepd_smoke: FAIL worker $i journaled nothing privately (push-down not exercised)" >&2
    exit 1
  fi
done

# Second grid on the same daemon. Each grid has 2 modes × 13 levels per
# trace: 5 IRAW levels (600–700 mV) follow baseline cells in the first, and
# 13 IRAW plus 4 Extra-Bypass levels (625–700 mV) replay in the second.
MODES2="iraw,extrabypass"
echo "sweepd_smoke: local sweep of the second grid ($MODES2)" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES2" -csv \
  > "$WORK/local2.csv"
echo "sweepd_smoke: second grid through vccsweep -server" >&2
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES2" -csv > "$WORK/daemon2.csv" 2> "$WORK/client2.err"; then
  echo "sweepd_smoke: FAIL second-grid client sweep errored" >&2
  cat "$WORK/client2.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local2.csv" "$WORK/daemon2.csv"; then
  echo "sweepd_smoke: FAIL second-grid daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: second-grid daemon CSV identical to local CSV" >&2

check_replayed() { # check_replayed <sweep id> <replayed levels of 26>
  local st replayed total
  [ -n "$1" ] || { echo "sweepd_smoke: FAIL client printed no sweep ID" >&2; exit 1; }
  st="$(curl -fsS "http://$ADDR/api/v1/sweeps/$1")"
  replayed="$(sed -n 's/.*"replayed":\([0-9]*\).*/\1/p' <<< "$st")"
  total="$(sed -n 's/.*"total":\([0-9]*\).*/\1/p' <<< "$st")"
  local want=$((total / 26 * $2))
  if [ "$replayed" != "$want" ]; then
    echo "sweepd_smoke: FAIL $1 replayed ${replayed:-?} of ${total:-?} cells, want $want" >&2
    echo "$st" >&2
    exit 1
  fi
  echo "sweepd_smoke: $1 replayed $replayed of $total cells" >&2
}
# sweep_id prints the sweep ID a vccsweep -server run named on stderr.
sweep_id() { # sweep_id <client stderr file>
  sed -n 's/^vccsweep: sweep //p' "$1" | head -n1
}
check_replayed "$(sweep_id "$WORK/client.err")" 5
check_replayed "$(sweep_id "$WORK/client2.err")" 17

# Windowed sweep: sample windows shard each trace, functional warm-up runs
# through the warm-state checkpoint store (local: in-process shared store;
# daemon workers: each keeps a private ckpt/ beside its private journal).
# Both paths must stitch the same rows.
WINDOW=5000
echo "sweepd_smoke: local windowed sweep (-window $WINDOW)" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -window "$WINDOW" -csv > "$WORK/local_win.csv"
echo "sweepd_smoke: windowed sweep through vccsweep -server" >&2
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -window "$WINDOW" -csv > "$WORK/daemon_win.csv" \
  2> "$WORK/client_win.err"; then
  echo "sweepd_smoke: FAIL windowed client sweep errored" >&2
  cat "$WORK/client_win.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_win.csv" "$WORK/daemon_win.csv"; then
  echo "sweepd_smoke: FAIL windowed daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: windowed daemon CSV identical to local CSV" >&2

# Partition scenario: fresh cells (a different window size keys a new
# grid), two fresh workers. One is SIGSTOPped past the lease TTL — a
# network partition as the daemon sees it: heartbeats stop, the lease is
# reclaimed, the cell requeues. The other is kill -9'ed outright. The
# frozen worker thaws, abandons its reclaimed cell and rejoins; the sweep
# must still converge byte-identical to local.
WINDOW2=4000
echo "sweepd_smoke: local sweep for the partition scenario (-window $WINDOW2)" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -window "$WINDOW2" -csv > "$WORK/local_part.csv"

# Retire the scenario-1 survivor so the partition scenario's fate rests
# entirely on the frozen worker rejoining: once its partner is murdered,
# nobody else can finish the sweep.
kill -9 "${WORKER_PIDS[1]}" 2>/dev/null || true

spawn_worker 3
spawn_worker 4
FROZEN_PID="${WORKER_PIDS[2]}"
DOOMED_PID="${WORKER_PIDS[3]}"

echo "sweepd_smoke: partition sweep through vccsweep -server" >&2
"$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -window "$WINDOW2" -csv > "$WORK/daemon_part.csv" \
  2> "$WORK/client_part.err" &
CLIENT_PID=$!

sleep 1
echo "sweepd_smoke: SIGSTOP worker $FROZEN_PID (partition), kill -9 worker $DOOMED_PID" >&2
kill -STOP "$FROZEN_PID"
kill -9 "$DOOMED_PID"
sleep 3 # > lease TTL: the frozen worker's lease is reclaimed meanwhile
echo "sweepd_smoke: SIGCONT worker $FROZEN_PID (partition heals)" >&2
kill -CONT "$FROZEN_PID"

if ! wait "$CLIENT_PID"; then
  echo "sweepd_smoke: FAIL partition client sweep errored" >&2
  cat "$WORK/client_part.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_part.csv" "$WORK/daemon_part.csv"; then
  echo "sweepd_smoke: FAIL partition sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: partition-survivor CSV identical to local CSV" >&2

# Width scenario: a -width 3 sweep keys an entirely new cell grid (the
# width is part of the full core config, hence of every journal content
# address). The surviving worker regenerates each cell's width-3 config
# from the spec; daemon and local must render the same CSV.
echo "sweepd_smoke: local width-3 sweep" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -width 3 -csv > "$WORK/local_w3.csv"
echo "sweepd_smoke: width-3 sweep through vccsweep -server" >&2
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -width 3 -csv > "$WORK/daemon_w3.csv" \
  2> "$WORK/client_w3.err"; then
  echo "sweepd_smoke: FAIL width-3 client sweep errored" >&2
  cat "$WORK/client_w3.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_w3.csv" "$WORK/daemon_w3.csv"; then
  echo "sweepd_smoke: FAIL width-3 daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: width-3 daemon CSV identical to local CSV" >&2

echo "sweepd_smoke: SIGTERM daemon, expecting graceful drain + exit 0" >&2
kill -TERM "$DAEMON_PID"
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
if [ "$DAEMON_RC" -ne 0 ]; then
  echo "sweepd_smoke: FAIL daemon exited $DAEMON_RC on SIGTERM" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
fi
grep -q "journal verified" "$WORK/daemon.err" || {
  echo "sweepd_smoke: FAIL daemon drained without verifying the journal" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
}
DAEMON_PID=""

echo "sweepd_smoke: PASS (no shared FS; kill -9 + partition mid-sweep; canonical followers and replays; width-3 grid; results identical; clean drain)"
