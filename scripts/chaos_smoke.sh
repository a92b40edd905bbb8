#!/usr/bin/env bash
# End-to-end chaos smoke of the networked serve stack, as run by the CI
# chaos-smoke job:
#
#   phase 0  client deadlines: `result --wait --timeout` against a job
#            that is still sleeping must exit 1 with the typed
#            net-timeout diagnostic — never hang;
#   phase 1  fault-free baseline: four sizings, signatures recorded;
#   phase 2  the same four sizings through `minflo chaosproxy` with a
#            seeded fault schedule (dropped accepts, stalled requests,
#            torn response lines, delayed responses), plus a worker
#            SIGKILLed mid-load — every job must still resolve
#            bit-identically to the baseline;
#   phase 3  a loadgen mix through the same proxy: every accepted job
#            reaches a terminal state;
#   audit    the daemon journal must be clean (every serve-accepted job
#            terminal) and the proxy's report must prove the armed
#            faults actually fired.
#
# Requires a prior `dune build bin/minflo_cli.exe`; override MINFLO to
# point at a different binary.
set -euo pipefail
cd "$(dirname "$0")/.."

MINFLO="${MINFLO:-_build/default/bin/minflo_cli.exe}"
if [ ! -x "$MINFLO" ]; then
  echo "error: $MINFLO not found; run: dune build bin/minflo_cli.exe" >&2
  exit 2
fi

DIR="$(mktemp -d)"
BASE_SOCK="$DIR/base.sock"
BASE_RUN="$DIR/base-run"
SOCK="$DIR/minflo.sock"
RUN="$DIR/run"
PROXY="$DIR/proxy.sock"
REPORT="$DIR/chaos-report.json"
DAEMON_PID=""
PROXY_PID=""
cleanup() {
  [ -n "$PROXY_PID" ] && kill -9 "$PROXY_PID" 2>/dev/null || true
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_ready() { # $1 = socket
  for _ in $(seq 1 150); do
    if "$MINFLO" client health --socket "$1" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "error: daemon on $1 never became healthy" >&2
  exit 1
}

field() {
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' \
    "$1" "$2"
}

# the fields whose equality defines "the same sizing result" — identity
# and provenance fields (id embeds the sleep suffix, resumed records a
# recovery) are excluded by construction
signature() {
  python3 -c '
import json, sys
r = json.loads(sys.argv[1])
keys = ["circuit", "factor", "solver", "area", "area_ratio", "cp",
        "target", "met", "iterations", "saving_pct", "stop"]
print(json.dumps([r.get(k) for k in keys]))' "$1"
}

FACTORS="1.30 1.31 1.32 1.33"

echo "== phase 0: --wait --timeout is a typed deadline, not a hang"
"$MINFLO" serve --socket "$BASE_SOCK" --dir "$BASE_RUN" -j 2 --queue 8 &
DAEMON_PID=$!
wait_ready "$BASE_SOCK"
SLOW_ID="$(field "$("$MINFLO" client submit c17 --socket "$BASE_SOCK" \
  --factor 1.50 --sleep 3.0)" id)"
if OUT="$("$MINFLO" client result "$SLOW_ID" --socket "$BASE_SOCK" \
  --wait --timeout 0.5 2>&1)"; then
  echo "error: deadlined wait on a sleeping job succeeded: $OUT" >&2
  exit 1
fi
echo "$OUT" | grep -q "net-timeout" || {
  echo "error: deadline expiry was not the typed net-timeout: $OUT" >&2
  exit 1
}
# without the deadline the same wait resolves normally
[ "$(field "$("$MINFLO" client result "$SLOW_ID" --socket "$BASE_SOCK" \
  --wait)" state)" = "done" ]
echo "phase 0 ok: deadline expired typed (exit 1), undeadlined wait resolved"

echo "== phase 1: fault-free baseline signatures"
: > "$DIR/baseline.sigs"
for F in $FACTORS; do
  ID="$(field "$("$MINFLO" client submit c17 --socket "$BASE_SOCK" \
    --factor "$F")" id)"
  signature "$("$MINFLO" client result "$ID" --socket "$BASE_SOCK" --wait)" \
    >> "$DIR/baseline.sigs"
done
"$MINFLO" client drain --socket "$BASE_SOCK" >/dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
echo "phase 1 ok: $(wc -l < "$DIR/baseline.sigs") baseline signatures"

echo "== phase 2: same jobs through the chaos proxy + worker SIGKILL"
"$MINFLO" serve --socket "$SOCK" --dir "$RUN" -j 2 --queue 16 \
  --retries 2 --watchdog 30 &
DAEMON_PID=$!
wait_ready "$SOCK"
"$MINFLO" chaosproxy --listen "unix:$PROXY" --upstream "$SOCK" \
  --inject-fault net.accept-drop --inject-fault net.read-stall \
  --inject-fault net.torn-write --inject-fault net.delayed-response \
  --fault-count 2 --fault-seed 42 --delay 0.2 --report "$REPORT" \
  >/dev/null &
PROXY_PID=$!
for _ in $(seq 1 100); do [ -S "$PROXY" ] && break; sleep 0.05; done
[ -S "$PROXY" ] || { echo "error: chaosproxy never listened" >&2; exit 1; }

# the victim job sleeps long enough for its worker to be murdered mid-run.
# It is submitted alone, and its worker is killed before the other three
# are submitted: were they submitted first, the proxied submits could
# outlast its sleep and the kill would miss. Sleeps only perturb the job
# identity, never the sizing result, and the signatures exclude the id,
# so the submit order is free.
spawn_pid() { # $1 = job id: the last worker pid journaled for it, or ""
  python3 - "$RUN/journal.jsonl" "$1" <<'PY'
import json, sys
pid = None
for line in open(sys.argv[1]):
    try:
        ev = json.loads(line)
    except ValueError:
        continue
    if ev.get("event") == "job-spawn" and ev.get("job") == sys.argv[2]:
        pid = ev["pid"]
print(pid if pid is not None else "")
PY
}
VICTIM_ID="$(field "$("$MINFLO" client submit c17 --socket "$PROXY" \
  --factor "${FACTORS%% *}" --sleep 3.0 --retries 6)" id)"
VICTIM_PID=""
for _ in $(seq 1 100); do
  VICTIM_PID="$(spawn_pid "$VICTIM_ID")"
  [ -n "$VICTIM_PID" ] && break
  sleep 0.1
done
[ -n "$VICTIM_PID" ] || { echo "error: no worker pid journaled" >&2; exit 1; }
kill -9 "$VICTIM_PID" 2>/dev/null || true
echo "killed worker $VICTIM_PID of job $VICTIM_ID mid-load"
IDS="$VICTIM_ID"
for F in ${FACTORS#* }; do
  IDS="$IDS $(field "$("$MINFLO" client submit c17 --socket "$PROXY" \
    --factor "$F" --sleep 0.3 --retries 6)" id)"
done

: > "$DIR/chaos.sigs"
for ID in $IDS; do
  R="$("$MINFLO" client result "$ID" --socket "$PROXY" --wait \
    --retries 6 --timeout 30)"
  [ "$(field "$R" state)" = "done" ]
  signature "$R" >> "$DIR/chaos.sigs"
done
diff "$DIR/baseline.sigs" "$DIR/chaos.sigs" || {
  echo "error: chaos results differ from the fault-free baseline" >&2
  exit 1
}
echo "phase 2 ok: all four results bit-identical under chaos"

echo "== phase 3: loadgen mix through the proxy"
SUMMARY="$("$MINFLO" loadgen c17 --socket "$PROXY" -n 3 --lint-bad 1 \
  --tiny-budget 1 --retries 6 --deadline 300)"
echo "$SUMMARY"
python3 - "$SUMMARY" <<'PY'
import json, sys
s = json.loads(sys.argv[1])
assert s["lint_rejected"] == 1, ("lint gate did not fire", s)
assert s["accepted"] == s["done"] + s["failed"] + s["cancelled"], \
    ("accepted job lost behind the proxy", s)
assert s["done"] >= 3, ("well-formed job failed", s)
print("phase 3 ok: %d accepted, %d done through the proxy"
      % (s["accepted"], s["done"]))
PY

"$MINFLO" client drain --socket "$SOCK" >/dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
kill -TERM "$PROXY_PID"
wait "$PROXY_PID" 2>/dev/null || true
PROXY_PID=""

echo "== audit: journal clean, faults actually fired"
python3 - "$RUN/journal.jsonl" "$REPORT" "$VICTIM_ID" <<'PY'
import json, sys
TERMINAL = {"job-result", "job-failed", "job-quarantined",
            "job-lint-quarantined", "job-cancelled"}
accepted, terminal, victim_spawns = set(), set(), 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    try:
        ev = json.loads(line)
    except ValueError:
        continue
    if ev.get("event") == "serve-accepted":
        accepted.add(ev["job"])
    elif ev.get("event") in TERMINAL and "job" in ev:
        terminal.add(ev["job"])
    elif ev.get("event") == "job-spawn" and ev.get("job") == sys.argv[3]:
        victim_spawns += 1
missing = accepted - terminal
assert not missing, "accepted jobs with no terminal event: %s" % missing
assert victim_spawns >= 2, \
    "the murdered worker was never respawned (%d spawns)" % victim_spawns
report = json.load(open(sys.argv[2]))
fired = {k: v for k, v in report.items() if v > 0}
assert fired, "chaosproxy report shows no fault ever fired: %s" % report
print("audit clean: %d accepted jobs all terminal, victim spawned %dx, "
      "faults fired: %s" % (len(accepted), victim_spawns, fired))
PY

echo "chaos smoke: OK"
