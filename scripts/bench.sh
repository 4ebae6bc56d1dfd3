#!/usr/bin/env bash
# bench.sh — run the in-process kernel perf suite and maintain the
# committed BENCH_<n>.json baseline chain.
#
#   scripts/bench.sh                 run full windows, compare to BENCH_<n>.json,
#                                    fail on >10% regression, else write
#                                    BENCH_<n+1>.json
#   scripts/bench.sh --short         short measurement windows (CI smoke)
#   scripts/bench.sh --no-gate       compare but never fail on regressions
#   scripts/bench.sh --compare-only  measure + compare without writing a new
#                                    baseline file
#
# The first run (no BENCH_*.json yet) records BENCH_0.json with the gate
# off — there is nothing to compare against.
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
gate=1
compare_only=0
for arg in "$@"; do
  case "$arg" in
    --short|-s) short=1 ;;
    --no-gate|-n) gate=0 ;;
    --compare-only|-c) compare_only=1 ;;
    -h|--help)
      sed -n '2,15p' "$0"
      exit 0
      ;;
    *)
      echo "bench.sh: unknown option $arg (try --help)" >&2
      exit 2
      ;;
  esac
done

# Find the newest committed baseline: the highest N in BENCH_N.json.
latest=""
latest_n=-1
for f in BENCH_*.json; do
  [ -e "$f" ] || continue
  n="${f#BENCH_}"
  n="${n%.json}"
  case "$n" in
    *[!0-9]*) continue ;;
  esac
  if [ "$n" -gt "$latest_n" ]; then
    latest_n=$n
    latest=$f
  fi
done

args=()
[ "$short" -eq 1 ] && args+=(-bench-short)

out=""
if [ "$compare_only" -eq 1 ]; then
  out="$(mktemp -t bench.XXXXXX.json)"
  trap 'rm -f "$out"' EXIT
else
  out="BENCH_$((latest_n + 1)).json"
fi
args+=(-bench-out "$out")

if [ -n "$latest" ]; then
  args+=(-bench-compare "$latest")
  [ "$gate" -eq 1 ] && args+=(-bench-gate)
else
  echo "bench.sh: no BENCH_*.json baseline yet; recording the first one (gate off)"
fi

go run ./cmd/benchtab "${args[@]}"

if [ "$compare_only" -eq 0 ]; then
  echo "bench.sh: baseline chain now ends at $out"
fi
