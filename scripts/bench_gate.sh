#!/usr/bin/env bash
# bench_gate.sh — fail when a production benchmark got slower relative to
# its frozen reference than it was when the committed baseline was recorded.
#
# Usage: bench_gate.sh COMMITTED.json FRESH.json [MAX_REGRESSION_PCT]
#
# Both files are benchjson documents and may hold several rows per
# benchmark, one per run (`make bench-gate` records the baseline five
# times, concatenates the runs, and leaves the concatenation in place as
# the next committed baseline).
#
# The gate divides, not subtracts: each production benchmark in PAIRS
# below is timed against a frozen reference that runs in the same
# `go test` process (the ComputeAll*/Brandes references right after their
# production benchmark, Rewire/adjset right before sharded1,
# RestoreSpans/mapref right after dense), so both see the same host. Its
# fresh
# ratio is the median over runs of production ns/op / reference ns/op;
# the committed ratio is the same median over COMMITTED.json's runs. A pair whose fresh ratio
# exceeds the committed one by more than MAX_REGRESSION_PCT (default 20)
# fails the gate. Absolute ns/op moves with the host (a shared VM runs
# 1.5-2x slower in stretches), so every other benchmark in both files is
# reported as ungated trajectory: committed ns/op against the fresh median.
#
# The threshold is deliberately loose. Shared CI runners jitter by tens of
# percent run to run; this gate exists to catch the 2x accidental
# regression (a dropped fast path, an O(n^2) slip), not 5% noise.
set -euo pipefail

# Production benchmark and its frozen reference, one pair a line.
PAIRS='BenchmarkComputeAllExact BenchmarkComputeAllExactRef
BenchmarkComputeAllPivot BenchmarkComputeAllPivotRef
BenchmarkBrandesAllSources BenchmarkBrandesAllSourcesRef
BenchmarkRewire/sharded1 BenchmarkRewire/adjset
BenchmarkRestoreSpans/dense BenchmarkRestoreSpans/mapref'

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 COMMITTED.json FRESH.json [MAX_REGRESSION_PCT]" >&2
  exit 2
fi
committed=$1
fresh=$2
max_pct=${3:-20}

for f in "$committed" "$fresh"; do
  if [ ! -f "$f" ]; then
    echo "bench_gate: missing $f" >&2
    exit 2
  fi
done

# ns_per_op of every row named $1 in document $2, in run order.
runs() {
  jq -r --arg n "$1" '.benchmarks[] | select(.name == $n) | .ns_per_op' "$2"
}

# Median of the numbers on stdin; prints nothing for empty input.
median() {
  sort -g | awk '{ a[NR] = $1 } END {
    if (NR == 0) exit
    if (NR % 2) print a[(NR + 1) / 2]; else print (a[NR / 2] + a[NR / 2 + 1]) / 2
  }'
}

# Median over runs of production/reference, pairing run i with run i.
ratio() {
  paste <(runs "$1" "$3") <(runs "$2" "$3") |
    awk -F '\t' '$1 > 0 && $2 > 0 { print $1 / $2 }' | median
}

gated=$(mktemp)
trap 'rm -f "$gated"' EXIT
bad=0
while read -r prod ref; do
  base=$(ratio "$prod" "$ref" "$committed")
  now=$(ratio "$prod" "$ref" "$fresh")
  if [ -z "$base" ] && [ -z "$now" ]; then
    continue # the pair belongs to another baseline file
  fi
  printf '%s\n%s\n' "$prod" "$ref" >> "$gated"
  if [ -z "$base" ] || [ -z "$now" ]; then
    echo "bench_gate: note: $prod/$ref has no ratio on one side (committed '${base}', fresh '${now}')"
    continue
  fi
  if ! awk -v base="$base" -v now="$now" -v max="$max_pct" -v name="$prod / $ref" '
    BEGIN {
      pct = (now - base) * 100.0 / base
      mark = pct > max ? "REGRESSED" : "ok"
      printf "%-60s ratio %.3f -> %.3f  %+7.1f%%  %s\n", name, base, now, pct, mark
      exit pct > max
    }'; then
    bad=1
  fi
done <<< "$PAIRS"

# Ungated trajectory: every other benchmark present on both sides.
names() { jq -r '.benchmarks[].name' "$1" | sort -u; }
comm -12 <(names "$committed") <(names "$fresh") | grep -vxF -f "$gated" |
  while read -r name; do
    base=$(runs "$name" "$committed" | median)
    now=$(runs "$name" "$fresh" | median)
    awk -v base="$base" -v now="$now" -v name="$name" 'BEGIN {
      if (base <= 0) exit
      printf "%-60s %14.0f -> %14.0f ns/op  %+7.1f%%  trajectory (ungated)\n",
        name, base, now, (now - base) * 100.0 / base
    }'
  done || true

if [ "$bad" -ne 0 ]; then
  echo "bench_gate: FAIL — a production/reference ratio regressed over ${max_pct}% against $committed" >&2
  exit 1
fi
echo "bench_gate: PASS — no production/reference ratio regressed over ${max_pct}% against $committed"
