#!/usr/bin/env bash
# End-to-end smoke of the serve daemon, as run by the CI serve-smoke job:
#
#   phase 1  loadgen mix through a live daemon — well-formed jobs plus
#            jobs the lint gate must reject and a deliberately tiny
#            budget — asserting every accepted job reaches a terminal
#            state;
#   phase 2  SIGTERM mid-load: the drain must finish in-flight work and
#            exit 0 with a sealed journal;
#   phase 3  SIGKILL mid-flight, restart on the same run directory: no
#            accepted job may be lost, including one the MF201
#            admission gate refused;
#   audit    the journal must be clean — every serve-accepted job has a
#            terminal event.
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
SOCK="$DIR/minflo.sock"
RUN="$DIR/run"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_ready() {
  for _ in $(seq 1 150); do
    if "$MINFLO" client health --socket "$SOCK" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "error: daemon never became healthy" >&2
  exit 1
}

field() {
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' \
    "$1" "$2"
}

echo "== phase 1: loadgen mix (lint-rejected + budget-exhausted jobs)"
"$MINFLO" serve --socket "$SOCK" --dir "$RUN" -j 2 --queue 8 &
DAEMON_PID=$!
wait_ready
SUMMARY="$("$MINFLO" loadgen c17 c432 --socket "$SOCK" -n 4 \
  --lint-bad 2 --tiny-budget 1 --deadline 300)"
echo "$SUMMARY"
python3 - "$SUMMARY" <<'PY'
import json, sys
s = json.loads(sys.argv[1])
assert s["lint_rejected"] == 2, ("lint gate did not fire", s)
assert s["overloaded"] == 0 and s["draining"] == 0, ("unexpected shedding", s)
assert s["accepted"] == s["done"] + s["failed"] + s["cancelled"], \
    ("accepted job lost", s)
# the tiny-budget job may legitimately fail (budget-exhausted before the
# target); every well-formed job must land in "done"
assert s["done"] >= s["accepted"] - 1, ("well-formed job failed", s)
print("phase 1 ok: %d accepted, %d done, %d lint-rejected"
      % (s["accepted"], s["done"], s["lint_rejected"]))
PY

echo "== phase 2: SIGTERM mid-load drains gracefully"
R1="$("$MINFLO" client submit c17 --socket "$SOCK" --factor 1.30 --sleep 1.0)"
R2="$("$MINFLO" client submit c17 --socket "$SOCK" --factor 1.35 --sleep 1.0)"
field "$R1" id >/dev/null && field "$R2" id >/dev/null
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  echo "error: daemon exited nonzero on SIGTERM drain" >&2
  exit 1
fi
DAEMON_PID=""
grep -q "serve-drain-complete" "$RUN/journal.jsonl"
echo "phase 2 ok: drained with in-flight work, journal sealed"

echo "== phase 3: SIGKILL mid-flight, restart, nothing lost"
"$MINFLO" serve --socket "$SOCK" --dir "$RUN" -j 1 --queue 8 &
DAEMON_PID=$!
wait_ready
ID3="$(field "$("$MINFLO" client submit c432 --socket "$SOCK" \
  --factor 0.5 --sleep 2.0)" id)"
ID4="$(field "$("$MINFLO" client submit c17 --socket "$SOCK" \
  --factor 1.40 --sleep 2.0)" id)"
# a factor below c17's static delay floor is refused at admission (MF201)
# yet journaled like any accepted job, so the restart must recover it
R5="$("$MINFLO" client submit c17 --socket "$SOCK" --factor 0.05 || true)"
[ "$(field "$R5" code)" = "infeasible-target" ]
ID5="$(field "$R5" id)"
sleep 0.5 # let the first job reach a worker
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
"$MINFLO" serve --socket "$SOCK" --dir "$RUN" -j 1 --queue 8 &
DAEMON_PID=$!
wait_ready
R3="$("$MINFLO" client result "$ID3" --socket "$SOCK" --wait)"
R4="$("$MINFLO" client result "$ID4" --socket "$SOCK" --wait)"
[ "$(field "$R3" state)" = "done" ]
[ "$(field "$R4" state)" = "done" ]
R5="$("$MINFLO" client result "$ID5" --socket "$SOCK" || true)"
[ "$(field "$R5" state)" = "failed" ]
[ "$(field "$R5" code)" = "infeasible-target" ]
"$MINFLO" client drain --socket "$SOCK" >/dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
echo "phase 3 ok: after SIGKILL + restart, both jobs done, the infeasible one failed"

echo "== journal audit: every accepted job reached a terminal state"
python3 - "$RUN/journal.jsonl" <<'PY'
import json, sys
TERMINAL = {"job-result", "job-failed", "job-quarantined",
            "job-lint-quarantined", "job-infeasible-quarantined",
            "job-cancelled"}
accepted, terminal = set(), set()
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    try:
        ev = json.loads(line)
    except ValueError:
        continue  # torn final line from the SIGKILL: readers skip it
    if ev.get("event") == "serve-accepted":
        accepted.add(ev["job"])
    elif ev.get("event") in TERMINAL and "job" in ev:
        terminal.add(ev["job"])
missing = accepted - terminal
assert not missing, "accepted jobs with no terminal event: %s" % missing
print("audit clean: %d accepted jobs, all terminal" % len(accepted))
PY

echo "serve smoke: OK"
