#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
# Formatting gate: every flexcl package (their targets include the root
# tests/ and examples/) follows the root rustfmt.toml. vendor/ and
# perfbench/ are not checked.
cargo fmt --check -p flexcl-baselines -p flexcl-bench -p flexcl-core -p flexcl-dram \
  -p flexcl-frontend -p flexcl-interp -p flexcl-ir -p flexcl-kernels -p flexcl-obs \
  -p flexcl-sched -p flexcl-serve -p flexcl-sim
cargo build --release
cargo test -q
# The benchmark is its own cargo package (not a workspace member), so a
# public-API break would otherwise only surface when the benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Robustness gates: the estimation pipeline must stay panic-free on
# input-dependent paths, and the DSE sweep must survive injected faults
# with bit-identical surviving points.
cargo clippy -p flexcl-core -p flexcl-interp -- -D warnings -W clippy::unwrap_used
cargo test -q -p flexcl-core --test fault_injection
# Every smoke file below lives in one temporary directory, removed on exit.
SMOKE="$(mktemp -d -t tier1_smoke.XXXXXX)"
trap 'rm -rf "$SMOKE"' EXIT
# Sweep-throughput smoke and scaling gate: a model-only vadd sweep over
# the fine grid (≥10⁵ points) must complete, its BENCH_dse.json must
# carry the full schema (chunk size, steal count, repetitions, host
# cores, finite positive configs-per-second), and threads=8 throughput
# must beat threads=1 — the --check skips the scaling comparison with a
# notice when the measuring host has a single core, where a parallel
# speedup is physically impossible. The smoke also carries one cold vadd
# row (fresh analysis cache per repetition); --check fails when that row
# is missing, hit the cache, or its analysis stages (profile + group +
# replay) sum to more than its elapsed time.
BENCH_SMOKE="$SMOKE/bench_dse.json"
cargo run --release -q -p flexcl-bench --bin dse -- \
  --bench-only --grid fine --kernels vadd --reps 3 --out "$BENCH_SMOKE"
cargo run --release -q -p flexcl-bench --bin dse -- \
  --check "$BENCH_SMOKE" --require-scaling
# Accuracy smoke: model-vs-sim triage over one wavefront kernel (nw has
# memory-silent groups, exercising the heaviest-group floor and the
# stratified profile). Fails if the kernel's mean |error| drifts past 10%
# (steady-state ≈ 4%); --check validates the BENCH_accuracy.json schema.
BENCH_ACC="$SMOKE/bench_accuracy.json"
cargo run --release -q -p flexcl-bench --bin triage -- \
  --kernels nw --out "$BENCH_ACC" --max-mean-err 10 --no-csv
cargo run --release -q -p flexcl-bench --bin triage -- --check "$BENCH_ACC"
# New-axis accuracy smoke: jacobi2d's triage sweep includes the
# coarsening/temporal-blocking probes (DESIGN.md §15), so this gates the
# new axes' model-vs-sim error within the same bound and requires the
# blocked probes to actually win in the simulator (steady-state mean
# ≈ 0.8%). The identity half of the contract (cf=1/tb=1 bit-identical
# to the pre-axis model) and the enlarged-grid determinism run in
# `cargo test` above (identity_golden, new_axes, chunk_determinism).
BENCH_AXES="$SMOKE/bench_axes.json"
AXES_OUT="$SMOKE/bench_axes_out.txt"
cargo run --release -q -p flexcl-bench --bin triage -- \
  --kernels jacobi2d --out "$BENCH_AXES" --max-mean-err 10 --no-csv \
  > "$AXES_OUT"
grep -q 'polybench/jacobi2d.*, win' "$AXES_OUT"
cargo run --release -q -p flexcl-bench --bin triage -- --check "$BENCH_AXES"
# Serving smoke: the estimation server must answer a good request with a
# typed ok, a malformed frame with a typed rejection (not a crash), and
# a past-deadline request with a typed deadline error — then shut down
# cleanly and report its counters. jsonl transport, no network needed.
# A trailing {"metrics":"json"} introspection frame must report counters
# exactly matching the three smoke responses above (introspection itself
# is not counted as traffic), every data-plane response must carry a
# server-assigned request_id, and the request must leave a single rooted
# trace tree in the --trace-out sink.
SERVE_CACHE="$SMOKE/serve_cache"
mkdir "$SERVE_CACHE"
SERVE_OUT="$SMOKE/serve_out.jsonl"
SERVE_TRACE="$SMOKE/serve_trace.jsonl"
BENCH_SERVE="$SMOKE/bench_serve.json"
BENCH_OBS="$SMOKE/bench_obs.json"
printf '%s\n' \
  '{"id":"good","src":"__kernel void vadd(__global float* a, __global float* b, __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }","global":4096}' \
  '{"id":"bad"' \
  '{"id":"late","src":"__kernel void vadd(__global float* a, __global float* b, __global float* c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }","global":4096,"deadline_ms":0}' \
  '{"metrics":"json"}' \
  | cargo run --release -q -p flexcl-serve --bin serve -- --stdin --cache-dir "$SERVE_CACHE" --trace-out "$SERVE_TRACE" > "$SERVE_OUT"
grep -q '"id":"good".*"status":"ok"' "$SERVE_OUT"
grep -q '"status":"error","kind":"malformed"' "$SERVE_OUT"
grep -q '"id":"late".*"kind":"deadline"' "$SERVE_OUT"
grep -q '"id":"good".*"request_id":"' "$SERVE_OUT"
grep -q '"serve.received":3' "$SERVE_OUT"
grep -q '"serve.completed":1' "$SERVE_OUT"
grep -q '"serve.malformed":1' "$SERVE_OUT"
grep -q '"serve.deadline_expired":1' "$SERVE_OUT"
grep -q '"serve.cache_misses":1' "$SERVE_OUT"
grep -q '"name":"serve.request"' "$SERVE_TRACE"
grep -q '"name":"dse.sweep"' "$SERVE_TRACE"
# one root per data-plane frame (good, bad, late) — and nothing orphaned
test "$(grep -c '"parent":0' "$SERVE_TRACE")" -eq 3
test "$(grep -c '"parent":0.*"name":"serve.request"' "$SERVE_TRACE")" -eq 3
# Epoll transport smoke: a real TCP round-trip through the event loop —
# an ok response over length-prefixed framing, a malformed frame
# answered in band, idle connections reaped, and SO_REUSEPORT listener
# sharding — plus the coalescing gate (identical in-flight requests must
# actually share one sweep). Both run as integration tests.
cargo test -q -p flexcl-serve --test epoll_transport
cargo test -q -p flexcl-serve --test coalescing
# Serving throughput + overload + coalesce gate: steady cache-warm
# traffic must sustain ≥5k req/s (2× the pre-event-loop 2.5k baseline),
# the steady row must show real persistent-cache hits, the coalesce row
# must show identical in-flight requests sharing sweeps, and the
# overload phase (2× more concurrent clients than queue slots, sustained
# 16 requests/client with retry_after_ms back-off honored) must show
# admission control actually working: nonzero shed, degraded and
# deadline counters while requests still complete. Schema checked the
# same way as the other BENCH files.
cargo run --release -q -p flexcl-bench --bin serve_bench -- \
  --steady-requests 4000 --out "$BENCH_SERVE"
cargo run --release -q -p flexcl-bench --bin serve_bench -- \
  --check "$BENCH_SERVE" --require-overload --require-coalesce \
  --require-warm-hits --min-rps 5000
# Observability overhead gate: paired off/on fine-grid sweeps must show
# ≤5% traced overhead (quietest pair), the derived compiled-in-but-
# disabled cost must stay ≤1%, and the serve row must show live p50/p99
# with tracing on. Schema-checked like the other BENCH files.
cargo run --release -q -p flexcl-bench --bin obs_bench -- \
  --reps 3 --serve-requests 1000 --out "$BENCH_OBS"
cargo run --release -q -p flexcl-bench --bin obs_bench -- \
  --check "$BENCH_OBS" --max-overhead-pct 5 --max-disabled-pct 1
