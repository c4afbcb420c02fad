#!/usr/bin/env bash
# Tier-1 gate plus style/lint checks. Run from the repo root.
#
# The workspace builds fully offline: the only non-crates.io dependency is
# the vendored std-only `proptest` shim under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

# Prefer offline mode when the registry is unreachable; drop the flag if a
# populated cargo cache is available and you want index freshness checks.
CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "== cargo build --release =="
cargo build --workspace --release $CARGO_FLAGS

echo "== cargo test -q =="
# --workspace matters: the root manifest is both a package and a workspace,
# so a bare `cargo test` would only cover the root `greencell` crate.
cargo test -q --workspace $CARGO_FLAGS

echo "== chaos tests (fault injection) =="
cargo test -p greencell-sim --test chaos -q $CARGO_FLAGS

echo "== s1 kernel equivalence gate =="
# The incremental S1 power-control kernel must match the cold-start
# reference bit-for-bit: golden fingerprints over the seed scenario plus
# fault scenarios, and property tests probing random instances.
cargo test -p greencell-sim --test s1_kernel_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_s1_kernel -q $CARGO_FLAGS

echo "== s4 kernel equivalence gate =="
# The warm-started S4 energy kernel must match the cold-bisection oracle
# bit-for-bit: golden fingerprints plus an in-process lockstep over the
# scenario battery (faults, degradation policies, policy axes, V = 0),
# and lockstep property tests dragging stale warm state across random
# instances.
cargo test -p greencell-sim --test s4_kernel_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_s4_kernel -q $CARGO_FLAGS

echo "== s3 kernel equivalence gate =="
# The sparse S3 routing kernel must match the frozen dense scan
# (route_flows_reference) plan for plan: lockstep property tests over
# random backlogs, link queues and caps (zero caps, masked nodes, sessions
# without an admission, shared destinations, exact coefficient ties), and
# the pipeline oracle, which routes through the dense scan. The sparse
# queue banks must replay a naive dense model of Eqs. (15)/(28), Lyapunov
# sum bit for bit, also after a mid-sequence restore. The queue crate's
# tests run in release too, where its out-of-range ids must still panic.
cargo test -p greencell-core --test prop_s3_kernel -q $CARGO_FLAGS
cargo test -p greencell-sim --test pipeline_equivalence -q $CARGO_FLAGS
cargo test -p greencell-queue --test prop_queue -q $CARGO_FLAGS
cargo test -p greencell-queue --release -q $CARGO_FLAGS

echo "== pipeline equivalence gate =="
# The staged S1–S4 pipeline driver must match the frozen pre-refactor
# oracle bit-for-bit: seed scenarios, all four fault scenarios, both
# degradation policies, every policy axis, a mask-toggle lockstep that
# walks the cached routing caps through every invalidation (fault-mask
# changes, a repeated mask, an arena reset), plus a property test over
# random controller configurations. The zero-alloc audit pins the
# steady-state arena discipline.
cargo test -p greencell-sim --test pipeline_equivalence -q $CARGO_FLAGS
cargo test -p greencell-core --test prop_pipeline_config -q $CARGO_FLAGS
cargo test -p greencell-core --test s1_zero_alloc -q $CARGO_FLAGS

echo "== snapshot equivalence gate =="
# Crash-safe restore: snapshot at any slot boundary, round-trip through
# the on-disk image, restore, and replay — SlotReports, RunMetrics, and
# watchdog verdicts must be bit-identical to the uninterrupted run across
# all four fault archetypes and both schedulers, and corrupt/mismatched
# snapshot files must surface as typed errors. Fuzzed images (truncated,
# bit-flipped, lines swapped) of all three codec containers — snapshot,
# sweep manifest, sweep result — must be rejected with a typed error or
# decode equal, never panic.
cargo test -p greencell-sim --test snapshot_equivalence -q $CARGO_FLAGS
cargo test -p greencell-sim --test codec_fuzz -q $CARGO_FLAGS

echo "== networkstate equivalence gate =="
# Dynamic network-state layer: inert policies (never-triggering sleep,
# zero-efficiency cooperation) must replay the static default controller
# bit-for-bit across every fault archetype and on the sharded city path;
# an aggressive sleep policy must re-decompose clusters and stay
# worker-count invariant.
cargo test -p greencell-sim --test networkstate_equivalence -q $CARGO_FLAGS

echo "== policy ablation gate =="
# ROADMAP-mandated ablation: at equal V, energy cooperation strictly
# reduces grid draw on a renewable-imbalanced run, BS sleeping strictly
# reduces it at low load with service continuing, and both policies stay
# watchdog-stable under all four fault archetypes.
cargo test -p greencell-sim --test policy_ablation -q $CARGO_FLAGS

echo "== sweep resume gate =="
# Resumable in-process sweeps over the distributed work dir: interrupt
# after k points, resume at any thread count, byte-compare the
# deterministic stability report against a one-shot sweep; a bit-flipped,
# torn or stale result file is quarantined to p<i>.json.corrupt and only
# its point is recomputed.
cargo test -p greencell-sim --test sweep_resume -q $CARGO_FLAGS

echo "== distributed sweep gate =="
# Multi-process work-stealing driver: the merged stability report must be
# byte-identical to the in-process engine at 1 and 3 worker processes,
# including after a worker is killed mid-sweep (its stale claim is stolen
# and the point recomputed); claim races admit exactly one owner and
# corrupt results are quarantined, requeued, and never re-read.
cargo test -p greencell-sim --test distrib_equivalence -q $CARGO_FLAGS

echo "== adaptive frontier gate =="
# The adaptive V-frontier search must reproduce a dense fixed-grid
# frontier within its max-gap tolerance using at most half the points,
# stay deterministic, and produce byte-identical maps through the
# in-process and distributed evaluation engines.
cargo test -p greencell-sim --test frontier -q $CARGO_FLAGS

echo "== city equivalence gate =="
# The sharded city path (grid index + interference pruning + per-cluster
# solves) must match the dense single-controller path bit-for-bit when the
# cutoff is disabled — also when replaying the dense run's observations
# under all four fault archetypes, in lockstep with the frozen oracle —
# a pruned city under base-station outages must be worker-count
# invariant, and pruning may only zero gains that sit below the thermal
# noise floor (property-tested over random shadowed layouts).
cargo test -p greencell-sim --test city_equivalence -q $CARGO_FLAGS
cargo test -p greencell-phy --test prop_pruning -q $CARGO_FLAGS

echo "== city determinism gate =="
# City runs (reports and final backlog) are bit-identical across worker
# counts, including an uneven split (3 workers over 5 partitions) and more
# workers than partitions, and seeds reproduce byte-identical layouts; the
# steady-state city slot allocates nothing, also when a base-station
# outage toggles every slot and forces routing-cap rebuilds.
cargo test -p greencell-sim --test city_determinism -q $CARGO_FLAGS
cargo test -p greencell-sim --test city_zero_alloc -q $CARGO_FLAGS

echo "== serve smoke gate =="
# Fuzzed observation lines (truncated, characters flipped or inserted,
# fields dropped or repeated, arrays of the wrong length, edge-value
# numbers, bytes that are not UTF-8) must each come out as one reject
# event or one stepped slot, never a panic. Then end-to-end service
# posture through the release binary: pipe a short observation feed
# (including a malformed line) through `greencell serve` twice against
# the same state dir; the second session must restore from the snapshot
# the first one wrote.
cargo test -p greencell-sim --test serve_fuzz -q $CARGO_FLAGS
SERVE_DIR=$(mktemp -d)
printf '%s\n' \
  '{"renewable_w":[2.0,1.0,0.0,3.0,1.0],"grid":[true,true,false,true,true],"demand":[2,1]}' \
  'not json' \
  '{"renewable_w":[1.0,0.0,2.0,1.0,0.0],"grid":[true,true,true,true,false],"demand":[1,2]}' \
  '{"cmd":"snapshot"}' \
  '{"cmd":"stop"}' \
  | ./target/release/greencell serve --tiny --users 4 --sessions 2 \
      --state-dir "$SERVE_DIR" --status-every 1 --snapshot-every 0 \
      > "$SERVE_DIR/events1.jsonl"
grep -q '"event":"snapshot"' "$SERVE_DIR/events1.jsonl"
grep -q '"event":"reject"' "$SERVE_DIR/events1.jsonl"
printf '%s\n' '{"cmd":"status"}' '{"cmd":"stop"}' \
  | ./target/release/greencell serve --tiny --users 4 --sessions 2 \
      --state-dir "$SERVE_DIR" \
      > "$SERVE_DIR/events2.jsonl"
grep -q '"event":"start","slot":2,"restored":true' "$SERVE_DIR/events2.jsonl"
rm -rf "$SERVE_DIR"
echo "serve smoke: restore-on-startup verified"

echo "== frontier run-smoke (release binary) =="
# One-command frontier map on the tiny scenario through the release
# binary, evaluated by 2 worker processes (the sweep_worker sibling built
# above): the run must converge and emit both artifacts.
FRONTIER_DIR=$(mktemp -d)
./target/release/greencell frontier --tiny --horizon 10 \
  --v-min 1e4 --v-max 1e6 --max-gap 0.6 --budget 10 --init-points 3 \
  --procs 2 --out "$FRONTIER_DIR" >/dev/null
test -s "$FRONTIER_DIR/frontier.json"
test -s "$FRONTIER_DIR/frontier.csv"
grep -q '"converged": true' "$FRONTIER_DIR/frontier.json"
rm -rf "$FRONTIER_DIR"
echo "frontier smoke: converged map written"

echo "== figure regeneration gate (release binary) =="
# The committed results/ are what `greencell` prints and writes today:
# regenerate every figure, the structural sweeps and the fault sweep into
# a scratch dir and byte-compare stdout and every CSV/JSON. Telemetry
# files hold wall-clock times and are not compared.
FIG_DIR=$(mktemp -d)
GC=./target/release/greencell
for fig in fig2a fig2bc fig2de fig2f; do
  "$GC" "$fig" --out "$FIG_DIR" > "$FIG_DIR/$fig.txt"
  cmp "$FIG_DIR/$fig.txt" "results/$fig.txt"
done
for csv in fig2a fig2b fig2c fig2d fig2e; do
  cmp "$FIG_DIR/$csv.csv" "results/$csv.csv"
done
"$GC" sweeps --horizon 60 > "$FIG_DIR/sweeps.txt"
cmp "$FIG_DIR/sweeps.txt" results/sweeps.txt
# Exits 2 if any fault scenario's watchdog verdict is divergent.
"$GC" fault-sweep --out "$FIG_DIR" >/dev/null
cmp "$FIG_DIR/fault_sweep_stability.json" results/fault_sweep_stability.json
rm -rf "$FIG_DIR"
echo "figure gate: results/ reproduced byte for byte"

echo "== trace determinism gate =="
# Short paper-scenario traced run. `greencell trace` re-parses the
# chrome-trace JSON with the workspace's strict parser and byte-compares
# the deterministic trace section across 1 vs 4 workers (non-zero exit on
# any difference); the deterministic dump and the time-series CSV must
# also match the committed ones. The chrome trace holds wall-clock times.
TRACE_DIR=$(mktemp -d)
"$GC" trace --horizon 20 --out "$TRACE_DIR" >/dev/null
cmp "$TRACE_DIR/trace_paper_deterministic.json" results/trace_paper_deterministic.json
cmp "$TRACE_DIR/trace_paper_timeseries.csv" results/trace_paper_timeseries.csv
rm -rf "$TRACE_DIR"

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q $CARGO_FLAGS

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace $CARGO_FLAGS -- -D warnings

echo "== cargo clippy (no unwrap in core/sim/trace/phy library code) =="
# Library and binary targets only: test code may unwrap freely, the
# controller/simulator/tracing/power-control production path must not.
# greencell-core's audit covers every module on the per-slot control path:
# controller, pipeline (stage registry + fallback ladder), s1–s4, dpp
# (drift constants), netstate (the sleep/cooperation machine), and
# lower_bound (the relaxed P̄3 controller).
cargo clippy -p greencell-core -p greencell-sim -p greencell-trace \
  -p greencell-phy --lib --bins $CARGO_FLAGS -- \
  -D warnings -D clippy::unwrap_used

echo "ci: all checks passed"
