#!/usr/bin/env bash
# Print a transcript of the minflo CLI surface: `--help=plain` for the
# command group and every subcommand, then the fixed invocations of the
# CLI test (test/cli/cases.sh) with their stdout, stderr and exit codes.
#
# Diff the transcripts of two builds to see exactly what a CLI change
# alters:
#
#   scripts/cli_transcript.sh > new.txt
#   scripts/cli_transcript.sh OTHER/_build/default/bin/minflo_cli.exe > old.txt
#   diff old.txt new.txt
#
# The binary defaults to $MINFLO, then to _build/default/bin/minflo_cli.exe
# (run `dune build bin/minflo_cli.exe` first).
set -u
cd "$(dirname "$0")/.."

MINFLO="${1:-${MINFLO:-_build/default/bin/minflo_cli.exe}}"
if [ ! -x "$MINFLO" ]; then
  echo "error: $MINFLO not found; run: dune build bin/minflo_cli.exe" >&2
  exit 2
fi

help() {
  echo "\$ minflo $* --help=plain"
  "$MINFLO" "$@" --help=plain
  echo "-- exit $?"
  echo
}

help
for cmd in gen stats sta size sweep batch bench verify convert power lint \
  audit-cert audit-run fuzz replay serve client loadgen chaosproxy torture; do
  help "$cmd"
done
bash test/cli/cases.sh "$MINFLO"
