#!/usr/bin/env bash
# Records one benchmark trajectory point: runs every workload declared in
# BENCHMARK.json through the benchmark's own command (perfbench, at the
# declared run_seconds, seed 42) and appends one JSON line per workload to
# BENCH_perfbench.json. Each line carries the commit (plus whether the
# tree had uncommitted changes), the date, `nproc`, and perfbench's own
# result line: correct/attempted/failed and every end-to-end metric.
#
# The file is append-only and this script reports; it does not gate. The
# host may be shared, so compare lines from one machine and read one run
# as indicative, not as an A/B result.
#
#   scripts/bench_record.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=42
OUT=BENCH_perfbench.json

# The benchmark's command, run length and workload names, from
# BENCHMARK.json.
read -r -a COMMAND < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(" ".join(b["command"]))')
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

COMMIT=$(git rev-parse HEAD)
DIRTY=false
if ! git diff --quiet HEAD -- 2>/dev/null; then
  DIRTY=true
fi
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)
NPROC=$(nproc)

for workload in $WORKLOADS; do
  echo "bench_record: $workload (${SECONDS_PER_RUN} s, seed $SEED)" >&2
  # perfbench's last stdout line is its JSON result.
  result=$("${COMMAND[@]}" --workload "$workload" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" | tail -n 1)
  case "$result" in
    "{"*) ;;
    *) echo "bench_record: $workload printed no JSON result line" >&2; exit 1 ;;
  esac
  printf '{"commit": "%s", "dirty": %s, "date": "%s", "nproc": %s, "workload": "%s", "seed": %s, "seconds": %s, %s\n' \
    "$COMMIT" "$DIRTY" "$DATE" "$NPROC" "$workload" "$SEED" "$SECONDS_PER_RUN" \
    "${result#\{}" >> "$OUT"
  tail -n 1 "$OUT"
done
