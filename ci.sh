#!/usr/bin/env bash
# Repo CI gate: release build, full test suite, lints, formatting.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> kernel-bench smoke (quick mode)"
# Bounded-shape sweep: catches kernel bench bit-rot and BENCH_kernels.json
# format drift without paying for the full sweep.
SMOKE_OUT="$PWD/target/BENCH_kernels_smoke.json"
STRONGHOLD_KBENCH_QUICK=1 BENCH_KERNELS_OUT="$SMOKE_OUT" cargo bench --bench kernels
test -s "$SMOKE_OUT"
grep -q '"mode": "quick"' "$SMOKE_OUT"
grep -q '"gflops_new"' "$SMOKE_OUT"
grep -q '"gflops_seed"' "$SMOKE_OUT"
# The shapes the runtime issues (M = 127 / 15 linears, per-head products),
# one-thread and all-cores rows with the parallel verdict.
grep -q '"runtime_shapes"' "$SMOKE_OUT"
grep -q '"shape": "qkv_m127_fwd"' "$SMOKE_OUT"
grep -q '"shape": "fc2_m15_dw"' "$SMOKE_OUT"
grep -q '"parallel_speedup"' "$SMOKE_OUT"
grep -q '"parallel_never_slower"' "$SMOKE_OUT"

echo "==> op-bench smoke (quick mode)"
# Bounded non-GEMM op sweep: catches ops bench bit-rot and BENCH_ops.json
# format drift without paying for the full sweep.
OPS_SMOKE_OUT="$PWD/target/BENCH_ops_smoke.json"
STRONGHOLD_OBENCH_QUICK=1 BENCH_OPS_OUT="$OPS_SMOKE_OUT" cargo bench --bench ops
test -s "$OPS_SMOKE_OUT"
grep -q '"mode": "quick"' "$OPS_SMOKE_OUT"
grep -q '"ns_new"' "$OPS_SMOKE_OUT"
grep -q '"ns_seed"' "$OPS_SMOKE_OUT"

echo "==> runtime-bench smoke (quick mode)"
# Bounded step-latency sweep: catches runtime bench bit-rot and
# BENCH_runtime.json format drift without paying for the full sweep.
RUNTIME_SMOKE_OUT="$PWD/target/BENCH_runtime_smoke.json"
STRONGHOLD_RBENCH_QUICK=1 BENCH_RUNTIME_OUT="$RUNTIME_SMOKE_OUT" cargo bench --bench runtime
test -s "$RUNTIME_SMOKE_OUT"
grep -q '"mode": "quick"' "$RUNTIME_SMOKE_OUT"
grep -q '"ns_per_step"' "$RUNTIME_SMOKE_OUT"
grep -q '"variant": "post"' "$RUNTIME_SMOKE_OUT"
# Autotuner smoke: the closed-loop controller must have run (rows carry its
# eval/resize counts) and, in quick mode, emitted live autotune.* gauges —
# the bench prints the gauge readback as gauge_window=N.
grep -q '"variant": "autotuned"' "$RUNTIME_SMOKE_OUT"
grep -q '"autotune_evals"' "$RUNTIME_SMOKE_OUT"
grep -q '"autotune_resizes"' "$RUNTIME_SMOKE_OUT"
RUNTIME_SMOKE_EVALS=$(grep -o '"autotune_evals": [0-9]*' "$RUNTIME_SMOKE_OUT" | head -1 | grep -o '[0-9]*')
test "$RUNTIME_SMOKE_EVALS" -gt 0
# Mixed-precision smoke: the bf16 sweep rows must have run, and the bench's
# own zero-tolerance cross-check (each bf16 row's H2D/D2H bytes exactly half
# its FP32 twin's at the same window/variant) must have passed.
grep -q '"precision": "bf16"' "$RUNTIME_SMOKE_OUT"
grep -q '"h2d_bytes_per_step"' "$RUNTIME_SMOKE_OUT"
grep -q '"precision_summary"' "$RUNTIME_SMOKE_OUT"
grep -q '"core_starved"' "$RUNTIME_SMOKE_OUT"
grep -q '"bf16_h2d_exactly_half": true' "$RUNTIME_SMOKE_OUT"
# Spill-tier smoke: the file-backed tier must actually have run — rows at
# two spill-worker configs with nonzero per-step spill traffic, each
# carrying the machine context (cores/core_starved) — and the bench's own
# zero-tolerance byte accounting (measured spill.* counters == tier-plan
# formulas x steps) must have passed.
grep -q '"variant": "spill"' "$RUNTIME_SMOKE_OUT"
grep -q '"spill_workers": 1' "$RUNTIME_SMOKE_OUT"
grep -q '"spill_workers": 2' "$RUNTIME_SMOKE_OUT"
grep -q '"spilled_layers"' "$RUNTIME_SMOKE_OUT"
SPILL_BYTES=$(grep -o '"spill_bytes_per_step": [0-9]*' "$RUNTIME_SMOKE_OUT" | head -1 | grep -o '[0-9]*')
test "$SPILL_BYTES" -gt 0
grep -q '"spill_bytes_exact": true' "$RUNTIME_SMOKE_OUT"
if grep -q '"spill_bytes_exact": false' "$RUNTIME_SMOKE_OUT"; then
  echo "spill byte accounting violated" >&2
  exit 1
fi

echo "==> dp-bench smoke (quick mode)"
# Bounded weak-scaling sweep: catches dp bench bit-rot and BENCH_dp.json
# format drift without paying for the full sweep. On a 1-core CI box the
# file records core_starved: true; the smoke only checks the format.
DP_SMOKE_OUT="$PWD/target/BENCH_dp_smoke.json"
STRONGHOLD_DPBENCH_QUICK=1 BENCH_DP_OUT="$DP_SMOKE_OUT" cargo bench --bench dp
test -s "$DP_SMOKE_OUT"
grep -q '"mode": "quick"' "$DP_SMOKE_OUT"
grep -q '"cores"' "$DP_SMOKE_OUT"
grep -q '"weak_scaling_efficiency"' "$DP_SMOKE_OUT"
grep -q '"allreduce_bytes_per_step"' "$DP_SMOKE_OUT"

echo "==> serving-bench smoke (quick mode)"
# Bounded continuous-vs-static serving sweep: catches serving bench bit-rot
# and BENCH_serving.json format drift, and enforces the bench's own
# machine-checked verdicts — continuous batching must out-serve padded
# static batching at every concurrency level (best-of-3 walls, identical
# greedy token streams), and latency percentiles must be ordered.
SERVING_SMOKE_OUT="$PWD/target/BENCH_serving_smoke.json"
STRONGHOLD_SBENCH_QUICK=1 BENCH_SERVING_OUT="$SERVING_SMOKE_OUT" cargo bench --bench serving
test -s "$SERVING_SMOKE_OUT"
grep -q '"mode": "quick"' "$SERVING_SMOKE_OUT"
grep -q '"engine": "static"' "$SERVING_SMOKE_OUT"
grep -q '"engine": "continuous"' "$SERVING_SMOKE_OUT"
grep -q '"p50_latency_ns"' "$SERVING_SMOKE_OUT"
grep -q '"p99_latency_ns"' "$SERVING_SMOKE_OUT"
grep -q '"core_starved"' "$SERVING_SMOKE_OUT"
SERVING_TOKENS=$(grep -o '"tokens": [0-9]*' "$SERVING_SMOKE_OUT" | head -1 | grep -o '[0-9]*')
test "$SERVING_TOKENS" -gt 0
grep -q '"p50_le_p99": true' "$SERVING_SMOKE_OUT"
grep -q '"continuous_beats_static": true' "$SERVING_SMOKE_OUT"
if grep -q '"continuous_beats_static": false' "$SERVING_SMOKE_OUT"; then
  echo "continuous batching lost to static batching" >&2
  exit 1
fi

# The exact GEMM-call pin of the selectively-batched round lives in its own
# test binary (matmul::stats is process-global); run it by name so a
# filtered or partial test run cannot skip it.
cargo test -q -p stronghold-integration-tests --test serve_gemm_calls

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
