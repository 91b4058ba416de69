#!/usr/bin/env bash
# Repo CI gate: release build, full test suite, lints, formatting.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> one layer stream (structural guard)"
# A store layer becomes a loaded shell in host/stream.rs only (the resident
# trainer's optimizer write-back and the profiler's H2D timing are the other
# two callers of `load_flat_params`), and the shell channels are built
# there only: a second hand-copied pipeline fails here.
loads=$(grep -rl 'load_flat_params' crates/core/src | LC_ALL=C sort | tr '\n' ' ')
channels=$(grep -rl 'bounded::<(usize, Block)>' crates/core/src | tr '\n' ' ')
if [ "$loads" != "crates/core/src/host/profiler.rs crates/core/src/host/resident.rs crates/core/src/host/stream.rs " ] ||
    [ "$channels" != "crates/core/src/host/stream.rs " ]; then
    echo "layer-stream code outside host/stream.rs: load_flat_params in [$loads], shell channels in [$channels]"
    exit 1
fi
# Half conversion on a step path exists once, in `tensor` (the fused
# round-copy behind `load_flat_params_as` / `flatten_into_as`): the packed
# pack / unpack / round-through forms are the oracle and may appear in
# `core` only inside its `#[cfg(test)]` modules.
packed=$(find crates/core/src -name '*.rs' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /pack_from|unpack_into|round_through/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$packed" ]; then
    echo "packed half conversion on a core step path:"
    echo "$packed"
    exit 1
fi
# The trainer is the engine: `HostOffloadTrainer` / `HostResidentTrainer`
# are aliases of `Engine<B>`, so the step and checkpoint entry points are
# defined in host/engine.rs only (the data-parallel trainer adds its own
# group-level `train_step`). A wrapper struct holding one engine to forward
# to it fails here.
steps=$(grep -rl 'pub fn train_step' crates/core/src/host | LC_ALL=C sort | tr '\n' ' ')
saves=$(grep -rl 'pub fn save_training_state' crates/core/src/host | tr '\n' ' ')
wrappers=$(grep -rn 'engine: Engine<' crates/core/src/host || true)
if [ "$steps" != "crates/core/src/host/data_parallel.rs crates/core/src/host/engine.rs " ] ||
    [ "$saves" != "crates/core/src/host/engine.rs " ] || [ -n "$wrappers" ]; then
    echo "trainer wrapper re-grown: train_step in [$steps], save_training_state in [$saves], engine fields: [$wrappers]"
    exit 1
fi

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
# The two bandwidth inputs of a streamed step's time floor.
grep -q '"op": "adam_bw_floor"' "$OPS_SMOKE_OUT"
grep -q '"op": "round_copy_bf16"' "$OPS_SMOKE_OUT"
grep -q '"gbps"' "$OPS_SMOKE_OUT"

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

echo "==> strongbench smoke (benchmark/check.sh)"
# The end-to-end harness itself: its unit tests, two --quick runs of every
# workload with their output checks (losses bit-equal to the resident
# trainer, spill bytes equal to the tier plan, serve streams equal to the
# static baseline), and `compare`. Writes only under benchmark/target/.
benchmark/check.sh

# The exact GEMM-call pin of the selectively-batched round lives in its own
# test binary (matmul::stats is process-global); run it by name so a
# filtered or partial test run cannot skip it.
cargo test -q -p stronghold-integration-tests --test serve_gemm_calls
# Same for the half-precision pass count (`ops::stats` is process-global).
cargo test -q -p stronghold-integration-tests --test half_pass_count

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
