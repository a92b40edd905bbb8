#!/usr/bin/env bash
# A/B benchmark protocol: the working tree against a git revision.
#
#   scripts/ab.sh REV [WORKLOAD...]
#
# Builds `git archive REV` and a copy of the working tree (its tracked and
# unignored files) in a temporary directory (dune only, nothing is
# fetched), then, for each workload (default:
# all four of benchmark/run.exe), runs PAIRS alternating pairs of
#   benchmark/run.exe --workload W --seed SEED --seconds 0
# (REV first in odd pairs, the working tree first in even ones). For each
# end-to-end metric it prints both sides' median and quartiles and how many
# pairs the working tree won. Then it runs one traced pass
# (`--trace 1`) per side and diffs every deterministic per-layer metric:
# the counts, the ratios and gc.minor_mb, which two runs of one build
# repeat exactly. A refactor must print no counter diff; a speed change
# names the counters it moves.
#
# Run it from the repository root on an otherwise idle machine; single
# passes on a shared VM spread by +-30 %, which is why the medians and the
# win count, not one run, carry a claim. It writes only under the
# temporary directory, which it removes on exit.
set -euo pipefail

PAIRS=10
SEED=0

if [ $# -lt 1 ]; then
  echo "usage: scripts/ab.sh REV [WORKLOAD...]" >&2
  exit 2
fi
rev=$1
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(table1 adder_deep dag_bulk transistor)
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/minflo-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# Both sides build in sibling directories whose paths have the same
# length: the build path is compiled into the binary, and one source built
# at two path lengths read different gc.major_collections and peak_heap_mb
# (26 against 23 collections, 32.9 against 37.4 MB on transistor; OCaml
# 5.1, a shared 2-vCPU VM).
echo "ab: building $rev in $tmp/base" >&2
mkdir -p "$tmp/base" "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
(cd "$tmp/base" && dune build --root=. benchmark/run.exe 2>&1) >&2
echo "ab: building the working tree in $tmp/tree" >&2
(cd "$root" && git ls-files -z -co --exclude-standard |
  tar -c --null -T - --ignore-failed-read -f - 2>/dev/null) | tar -x -C "$tmp/tree"
(cd "$tmp/tree" && dune build --root=. benchmark/run.exe 2>&1) >&2

base_exe="$tmp/base/_build/default/benchmark/run.exe"
new_exe="$tmp/tree/_build/default/benchmark/run.exe"

# the value of metric $2 in the result line $1
metric() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\),.*/\1/p"
}

# every "name unit value" triple of result line $1
triples() {
  printf '%s\n' "$1" | tr '}' '\n' |
    sed -n 's/.*"\([^"]*\)":{"value":\([^,]*\),"unit":"\([^"]*\)".*/\1 \3 \2/p'
}

# the last line (the JSON result) of one run
run() {
  "$1" --workload "$2" --seed "$SEED" "${@:3}" 2>/dev/null | tail -n 1
}

# median and quartiles of the values on stdin (nearest rank)
stats() {
  sort -g | awk '{ v[NR] = $1 }
    END {
      q1 = v[int((NR + 3) / 4)]; md = v[int((NR + 1) / 2)];
      q3 = v[NR + 1 - int((NR + 3) / 4)];
      printf "%.10g [%.10g, %.10g]", md, q1, q3 }'
}

end_to_end=(size_s setup_s peak_heap_mb area_sum)

for w in "${workloads[@]}"; do
  echo "== $w: $PAIRS alternating pairs, seed $SEED =="
  declare -A base_vals=() new_vals=() wins=()
  for m in "${end_to_end[@]}"; do
    base_vals[$m]=""
    new_vals[$m]=""
    wins[$m]=0
  done
  for ((p = 1; p <= PAIRS; p++)); do
    if ((p % 2)); then
      b=$(run "$base_exe" "$w" --seconds 0)
      n=$(run "$new_exe" "$w" --seconds 0)
    else
      n=$(run "$new_exe" "$w" --seconds 0)
      b=$(run "$base_exe" "$w" --seconds 0)
    fi
    for m in "${end_to_end[@]}"; do
      bv=$(metric "$b" "$m")
      nv=$(metric "$n" "$m")
      base_vals[$m]+="$bv"$'\n'
      new_vals[$m]+="$nv"$'\n'
      # every end-to-end metric is better lower
      if awk -v a="$nv" -v b="$bv" 'BEGIN { exit !(a < b) }'; then
        wins[$m]=$((wins[$m] + 1))
      fi
    done
  done
  printf '  %-14s %-40s %-40s %s\n' metric "$rev median [q1, q3]" \
    "working tree median [q1, q3]" "tree wins"
  for m in "${end_to_end[@]}"; do
    printf '  %-14s %-40s %-40s %d/%d\n' "$m" \
      "$(printf '%s' "${base_vals[$m]}" | stats)" \
      "$(printf '%s' "${new_vals[$m]}" | stats)" "${wins[$m]}" "$PAIRS"
  done
  b=$(run "$base_exe" "$w" --seconds 0 --trace 1)
  n=$(run "$new_exe" "$w" --seconds 0 --trace 1)
  det() {
    triples "$1" | awk '$2 == "count" || $2 == "ratio" || $1 == "gc.minor_mb"'
  }
  diffs=$(join -a 1 -a 2 -e absent -o 0,1.3,2.3 <(det "$b" | awk '{ print $1, $2, $3 }' | sort) \
            <(det "$n" | awk '{ print $1, $2, $3 }' | sort) |
          awk '$2 != $3 { printf "  %-28s %s -> %s\n", $1, $2, $3 }')
  if [ -z "$diffs" ]; then
    echo "  deterministic counters: identical"
  else
    echo "  deterministic counters ($rev -> working tree):"
    printf '%s\n' "$diffs"
  fi
  unset base_vals new_vals wins
done
