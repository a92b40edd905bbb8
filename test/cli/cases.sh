#!/usr/bin/env bash
# Fixed CLI invocations on c17/c432, each printed with its stdout, its
# stderr and its exit code. `dune runtest` diffs the output against
# cli.expected; scripts/cli_transcript.sh reuses it to compare two builds.
#
# Usage: bash test/cli/cases.sh PATH/TO/minflo_cli.exe
#
# Every case runs in a fresh temporary directory and names its files
# relatively, so the transcript holds no machine path. Nothing here prints
# a wall time or --help text.
set -u

bin="$1"
case "$bin" in /*) ;; *) bin="$PWD/$bin" ;; esac
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

run() {
  echo "\$ minflo $*"
  "$bin" "$@" >stdout.txt 2>stderr.txt
  code=$?
  cat stdout.txt
  if [ -s stderr.txt ]; then
    echo "-- stderr"
    cat stderr.txt
  fi
  echo "-- exit $code"
  echo
}

# netlists
run stats c17
run stats c432
run stats nosuch
run gen c17
run gen c17 --format verilog
run gen c17 --format dot
run gen c17 -o c17.bench
run verify c17 c17.bench
run gen c17 -o /nonexistent/x.bench
run convert c17 -o c17.v
run verify c17 c17.v
run convert c17 -o c17.dot
run convert c17 -o /nonexistent/x.v
run verify c17 c17
run verify c17 c432

# timing and sizing
run sta c17
run sta c432 -f 0.6
run size c432
run size c432 --tool tilos
run size c17 --tool tilos --check
run size c17 --tool tilos --check --trace t.jsonl
run size c17 -g transistor
run size c432 -g transistor -f 0.6 --check
run size c17 --solver bf
run size c17 --solver bellman-ford
run size c432 -f 0.4 --max-pivots 200
run size c17 --check --solver auto --inject-fault dphase.simplex
run size nosuch
run sweep c17 --factors 0.5,1.0
run power c17

# traces and audits
run size c17 --trace t.jsonl
run audit-run c17 t.jsonl
run audit-run c17 t.jsonl -f 0.6
run audit-run c17 t.jsonl -f 0.6 --format sarif -o /nonexistent/a.sarif
run size c17 --trace full.jsonl --inject-fault io.enospc
run size c17 --trace /nonexistent/t.jsonl
run audit-cert c17
run audit-cert c17 --inject-fault audit.simplex

# lint
run lint c17
run lint c17 --format sarif
run lint c17 -o lint.txt
run lint c17 -o /nonexistent/l.txt
# --fail-on is the one threshold flag: a warning passes by default, fails
# at --fail-on warning, and --strict is no option
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n' >dangling.bench
run lint dangling.bench
run lint dangling.bench --fail-on warning
run lint dangling.bench --strict

# batch, bench, fuzz, replay, client
run batch c17 --factors 0.5,0.6 --solvers simplex,bf --no-isolate
run batch c17 --factors 0.5 --solvers ssp --differential --inject-fault dphase.simplex
run bench --quick -o /nonexistent/b.json
# a bad -o or --check fails before the scaling grid is sized
run bench --scale -o /nonexistent/b.json
run bench --scale --check nosuch.json
printf 'not a baseline' >bad.json
run bench --scale --check bad.json
run fuzz --list-faults
run replay nosuch-dir
run client health --socket nope.sock --retries 1
# a socket in a directory that does not exist: a typed error, not a crash
run serve --socket /nonexistent/dir/x.sock --dir run
