#!/usr/bin/env bash
# Records the benchmark for one change as BENCH_<pr>.json at the
# repository root: the harness's results.json schema ({"runs": [...]},
# one record per run) plus the change's number, the git revision and the
# core count.
#
#   scripts/bench-record.sh <pr> [--smoke] [--out FILE]
#
# For each workload, each run in its own process: three untraced runs,
# one traced run at seed 501 (`--trace 1 --seed 501`) and one traced
# smoke run (`--smoke --trace 1`). `--smoke` makes the untraced runs
# smoke runs too, and one of them, which keeps this script checked in
# CI; `--out` writes FILE instead of BENCH_<pr>.json.
# `benchmark/run.sh --compare A.json B.json` reads two records.
#
# Run it from the repository root. It clears benchmark/out/results.json
# first; nothing under benchmark/ is edited.
set -euo pipefail

usage="usage: scripts/bench-record.sh <pr> [--smoke] [--out FILE]"
pr="${1:?$usage}"
shift
runs=3
smoke=()
out="BENCH_${pr}.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=(--smoke); runs=1; shift ;;
    --out) out="${2:?$usage}"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

cd "$(dirname "${BASH_SOURCE[0]}")/.."
results=benchmark/out/results.json
rm -f "$results"
for workload in hot_read adhoc_query write_mix bulk_load; do
  for _ in $(seq "$runs"); do
    bash benchmark/run.sh --workload "$workload" "${smoke[@]}" >&2
  done
  bash benchmark/run.sh --workload "$workload" --trace 1 --seed 501 "${smoke[@]}" >&2
  bash benchmark/run.sh --workload "$workload" --smoke --trace 1 >&2
done

rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  rev="$rev+dirty"
fi
cores="$(nproc)"
body="$(cat "$results")"
printf '{"pr":%s,"rev":"%s","cores":%s,%s\n' "$pr" "$rev" "$cores" "${body#\{}" > "$out"
echo "wrote $out: $(grep -o '"workload"' "$out" | wc -l) runs" >&2
