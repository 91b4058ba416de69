#!/usr/bin/env bash
# Repo CI gate: release build, full test suite, lints, formatting.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> one layer stream (structural guard)"
# A store layer becomes a loaded shell in host/stream.rs only (the resident
# trainer's optimizer write-back is the other caller of `load_flat_params`),
# and the shell channels are built there only: a second hand-copied
# pipeline fails here.
loads=$(grep -rl 'load_flat_params' crates/core/src | LC_ALL=C sort | tr '\n' ' ')
channels=$(grep -rl 'bounded::<(usize, Block)>' crates/core/src | tr '\n' ' ')
if [ "$loads" != "crates/core/src/host/resident.rs crates/core/src/host/stream.rs " ] ||
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
# The spill tier holds no more than its plan: swap-file I/O is positional
# and zero-copy (the two slice casts in nvme.rs are the only `unsafe` in
# core, and no file sits behind a lock), a spilled layer is read straight
# into its reader's memory and updated on the optimizer actor that steps
# it, so the tier's own code (tier.rs, nvme.rs, outside tests) starts no
# thread — no actor, spawn or channel — and keeps no buffer pool.
unsafe_in=$(grep -rlw 'unsafe' crates/core/src | LC_ALL=C sort | tr '\n' ' ')
spill_engine=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*\/\// { next }
    /(^|[^A-Za-z0-9_])(Actor|spawn|thread|bounded|unbounded|Sender|Receiver)([^A-Za-z0-9_]|$)|Vec<Vec<f32>>/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/core/src/tier.rs crates/core/src/nvme.rs)
locked_file=$(grep -rn 'Mutex<\(std::fs::\)\?File>' crates/core/src || true)
if [ "$unsafe_in" != "crates/core/src/nvme.rs " ] || [ -n "$spill_engine" ] || [ -n "$locked_file" ]; then
    echo "spill tier copies or serialises again: unsafe in [$unsafe_in], Mutex<File> [$locked_file]"
    [ -z "$spill_engine" ] || printf 'spill-tier threads or buffer pools:\n%s\n' "$spill_engine"
    exit 1
fi
# The keystream's wide refill is the ChaCha8 shim's only `unsafe`: each
# `#[target_feature]` tier is an `unsafe fn` (the attribute on the line
# above it), called once, from the `refill_*` wrapper that checks the CPU
# feature first. Any other `unsafe` in shims/rand_chacha fails here.
chacha_unsafe=$(awk '
    /^[ \t]*\/\// { next }
    match($0, /^[ \t]*(pub(\([a-z]+\))? )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/) {
        fn = substr($0, RSTART, RLENGTH)
        sub(/.* /, "", fn)
    }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        line = $0
        sub(/^[ \t]*/, "", line)
        if (line ~ /^unsafe fn /) line = (prev ~ /^[ \t]*#\[target_feature\(/) ? "target_feature fn" : "fn"
        print fn ": " line
    }
    NF { prev = $0 }
' shims/rand_chacha/src/*.rs | LC_ALL=C sort)
expected_chacha_unsafe=$(LC_ALL=C sort <<'EOF'
blocks_avx2: target_feature fn
blocks_avx512: target_feature fn
refill_avx2: unsafe { blocks_avx2(input, first, out) };
refill_avx512: unsafe { blocks_avx512(input, first, out) };
EOF
)
if [ "$chacha_unsafe" != "$expected_chacha_unsafe" ]; then
    echo "unsafe in shims/rand_chacha outside the target_feature refill wrappers (< allowed, > found):"
    diff <(echo "$expected_chacha_unsafe") <(echo "$chacha_unsafe") || true
    exit 1
fi
# Gradient memory is constant, not proportional to the model's depth: the
# windowed backend's block gradients are the two-accumulator ring and the
# fold partials (plus the one accumulator an offload job carries), and those
# two are the only block-shaped `zero_grads()` allocation sites — the
# shell's are resident-group shaped. A per-layer accumulator vector or a
# per-sample scratch fails here.
offloaded=crates/core/src/host/offloaded.rs
grad_fields=$(grep -E '^    [a-z_]+: (Vec<)?BlockGrads' "$offloaded" | tr -d ' ,' | LC_ALL=C sort | tr '\n' ' ')
grad_allocs=$(grep -n 'zero_grads()' "$offloaded" | grep -v \
    -e 'let grad_ring = (0\.\.GRAD_RING)\.map(|_| stream\.zero_grads())\.collect();' \
    -e 'self\.bp_fold_slots\.push(self\.stream\.zero_grads())' \
    -e 'self\.shell\.zero_grads()' || true)
if [ "$grad_fields" != "bp_fold_slots:Vec<BlockGrads> grad_ring:Vec<BlockGrads> grads:BlockGrads " ] ||
    [ -n "$grad_allocs" ]; then
    echo "gradient buffers scale with depth again: BlockGrads fields [$grad_fields], other zero_grads() sites [$grad_allocs]"
    exit 1
fi
# One update routine: every optimizer update, resident or spilled, from a
# host copy or a lent ring accumulator, steps its layer chunk by chunk
# through `LayerStore::step_chunk`, so the non-test code of optimpool.rs
# calls `adam::fused_step` from exactly one site and never steps a slot
# through `AdamState::step`. A second whole-layer path fails here.
optimpool=crates/core/src/optimpool.rs
update_sites=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    /fused_step\(/ { fused++ }
    /\.step\(/ { print FILENAME ":" FNR ": " $0 }
    END { print "fused_step sites: " fused + 0 }
' "$optimpool")
if [ "$update_sites" != "fused_step sites: 1" ]; then
    echo "a second optimizer update path in $optimpool:"
    echo "$update_sites"
    exit 1
fi
# Every thread the crates start is accounted for: the non-test `spawn(` and
# `thread::scope` sites in crates/*/src, keyed by file, enclosing fn and
# kind (one line per site, duplicates counted), must equal the list below.
# Each entry has one tag: `persistent` (started once, lives as long as its
# owner: the `core::actor` threads — the prefetcher, the D2H engine and
# the optimizer actors — and the kernel pool's helpers, which live as
# long as the process) or
# `item-11` (spawned per step: the data-parallel replica fork, which ROADMAP
# item 11(c) moves onto a parked crew, emptying these entries). A new
# per-pass or per-step fan-out fails here.
allowed_spawns=$(LC_ALL=C sort <<'EOF'
crates/core/src/host/data_parallel.rs train_step scope item-11
crates/core/src/host/data_parallel.rs train_step spawn item-11
crates/core/src/actor.rs start spawn persistent
crates/tensor/src/pool.rs ensure_helpers spawn persistent
EOF
)
untagged_spawns=$(echo "$allowed_spawns" | grep -vE '^[^ ]+ [A-Za-z0-9_]+ (scope|spawn) (persistent|item-11)$' || true)
spawns=$(find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_tests = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*\/\// { next }
    match($0, /^[ \t]*(pub(\([a-z]+\))? )?(const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) {
        fn = substr($0, RSTART, RLENGTH)
        sub(/.* /, "", fn)
    }
    /thread::scope/ { print FILENAME " " fn " scope" }
    /(^|[^A-Za-z0-9_])spawn\(/ { print FILENAME " " fn " spawn" }
' | LC_ALL=C sort)
expected_spawns=$(echo "$allowed_spawns" | sed 's/ [^ ]*$//')
if [ "$spawns" != "$expected_spawns" ] || [ -n "$untagged_spawns" ]; then
    echo "thread spawn sites differ from the allowlist in ci.sh (< allowed, > found):"
    diff <(echo "$expected_spawns") <(echo "$spawns") || true
    [ -z "$untagged_spawns" ] || printf 'entries without one persistent / item-11 tag:\n%s\n' "$untagged_spawns"
    exit 1
fi
# The runtime's long-lived threads share one lifecycle: outside test code,
# `thread::Builder` (a named thread) and `catch_unwind` (a job's panic
# caught for its owner) appear in crates/core/src in actor.rs only. A
# hand-rolled worker loop beside the actor fails here.
own_loops=$(find crates/core/src -name '*.rs' ! -path crates/core/src/actor.rs -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*\/\// { next }
    /thread::Builder|catch_unwind/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$own_loops" ]; then
    echo "thread lifecycle outside core::actor:"
    echo "$own_loops"
    exit 1
fi
# Every simulated method is a plan: a schedule is a `sim::plan::Plan` and
# `sim::plan::price` is its one pricer. Outside crates/sim/src/plan.rs no
# source names the old resource servers (`FifoResource`, `WorkerPool`), and
# outside test code none records a timeline segment itself
# (`.record(Lane::`). A hand-driven schedule beside the pricer fails here.
hand_schedules=$(find crates tests benchmark/src examples -name '*.rs' ! -path crates/sim/src/plan.rs -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    /^[ \t]*\/\// { next }
    /FifoResource|WorkerPool/ || (!in_tests && /\.record\(Lane::/) { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$hand_schedules" ]; then
    echo "schedule driven outside sim::plan:"
    echo "$hand_schedules"
    exit 1
fi
# Every shim has a dependent: each package under shims/ must be named in the
# manifest of a non-shim workspace member or of benchmark/Cargo.toml (as a
# dependency or dev-dependency). A shim that nothing, or only another shim,
# uses fails here.
dead_shims=""
for manifest in shims/*/Cargo.toml; do
    name=$(awk -F'"' '/^name = / { print $2; exit }' "$manifest")
    if ! grep -qE "^$name = " crates/*/Cargo.toml tests/Cargo.toml benchmark/Cargo.toml; then
        dead_shims="$dead_shims $name"
    fi
done
if [ -n "$dead_shims" ]; then
    echo "shims no non-shim manifest depends on: [$dead_shims]"
    exit 1
fi
# Every runtime input is accounted for: the `pub` fields of the config
# structs below, found in crates/*/src, must equal the list (one
# `Struct field tag` line each). Each entry has one tag: `caller` (the
# crates' sources, their benches, the benchmark harness or the examples set
# it outside `Default` and tests) or `test-only` (only tests set it). A new
# field fails here until it is listed.
allowed_fields=$(LC_ALL=C sort <<'EOF'
DataParallelConfig bucket_bytes test-only
DataParallelConfig host caller
DataParallelConfig replicas caller
EngineOptions adam caller
EngineOptions clip_norm caller
EngineOptions precision caller
EngineOptions schedule caller
HostOffloadConfig adam caller
HostOffloadConfig clip_norm caller
HostOffloadConfig device_capacity test-only
HostOffloadConfig host_capacity caller
HostOffloadConfig optimizer_workers caller
HostOffloadConfig precision caller
HostOffloadConfig schedule caller
HostOffloadConfig window caller
OffloadOptions cold_tier caller
OffloadOptions concurrent_optimizers caller
OffloadOptions pooled_allocator caller
OffloadOptions streams caller
OffloadOptions window caller
ServeConfig device_capacity test-only
ServeConfig max_seq test-only
ServeConfig precision test-only
ServeConfig slots caller
ServeConfig temperature test-only
ServeConfig window caller
Stronghold cold_tier caller
Stronghold window caller
EOF
)
untagged_fields=$(echo "$allowed_fields" | grep -vE '^[A-Za-z0-9_]+ [a-z0-9_]+ (caller|test-only)$' || true)
fields=$(find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    BEGIN {
        n = split("HostOffloadConfig ServeConfig DataParallelConfig EngineOptions OffloadOptions Stronghold", names, " ")
        for (i = 1; i <= n; i++) config[names[i]]
    }
    FNR == 1 { s = "" }
    /^pub struct [A-Za-z0-9_]+ \{/ { s = ($3 in config) ? $3 : ""; next }
    /^}/ { s = "" }
    s != "" && match($0, /^    pub [a-z0-9_]+:/) { print s " " substr($0, RSTART + 8, RLENGTH - 9) }
' | LC_ALL=C sort)
expected_fields=$(echo "$allowed_fields" | sed 's/ [^ ]*$//')
if [ "$fields" != "$expected_fields" ] || [ -n "$untagged_fields" ]; then
    echo "config fields differ from the list in ci.sh (< listed, > found):"
    diff <(echo "$expected_fields") <(echo "$fields") || true
    [ -z "$untagged_fields" ] || printf 'entries without one caller / test-only tag:\n%s\n' "$untagged_fields"
    exit 1
fi
# A serving round packs nothing: the decode attention reads the KV cache's
# panel images, so the per-call-packing `_stable` products never see cached
# keys or values in attention.rs.
stable_attn=$(grep -n 'matmul_n[nt]_stable' crates/tensor/src/attention.rs || true)
if [ -n "$stable_attn" ]; then
    echo "attention packs cached K/V per call again: [$stable_attn]"
    exit 1
fi
# The caller set of the two reachability guards below: the crates' sources,
# their benches, the benchmark harness and the examples. Tests are not
# callers.
caller_set="crates/*/src crates/bench/benches benchmark/src examples"
# Every public module has a caller: for each `pub mod NAME;` in a crate's
# lib.rs or a nested mod.rs, some other file of the caller set names
# `NAME::`, `::NAME` or an item that file re-exports from NAME. A module
# that only its own tests reach fails here.
unreachable=""
for lib in crates/*/src/lib.rs $(find crates/*/src -mindepth 2 -name mod.rs | LC_ALL=C sort); do
    src=$(dirname "$lib")
    for name in $(sed -n 's/^pub mod \([a-z0-9_]*\);$/\1/p' "$lib"); do
        pattern="\\b$name::|::$name\\b"
        for item in $(sed -n "s/^pub use $name::{*\\([^};]*\\)}*;\$/\\1/p" "$lib" | tr -d ','); do
            pattern="$pattern|\\b$item\\b"
        done
        # shellcheck disable=SC2086 # the caller set is a list of globs
        callers=$(grep -rlE --include='*.rs' "$pattern" $caller_set |
            grep -vxF -e "$lib" -e "$src/$name.rs" | grep -v "^$src/$name/" || true)
        if [ -z "$callers" ]; then
            unreachable="$unreachable $src/$name"
        fi
    done
done
if [ -n "$unreachable" ]; then
    echo "public modules nothing outside their own file reaches: [$unreachable]"
    exit 1
fi
# Every public item has a caller: each `pub fn|struct|enum|const|static|
# trait|type NAME` defined outside `#[cfg(test)]` in crates/*/src must be
# named as a word on some line of the caller set that is not a comment, not
# `#[cfg(test)]` code, not a `pub use` re-export and not NAME's own
# definition. (A `#[cfg(test)]` at column 0 opens a file's test code, which
# runs to the end of the file.) The check is by name, so an item that shares
# its name with a live one passes. The deliberate exceptions are listed
# below with one tag each — `test-hook` (an accessor the integration tests
# observe through) or `oracle` (a reference implementation tests compare
# against) — and the found set must equal the list, so a stale entry fails
# too. An input kept for future work is not an exception: it comes back
# with its caller.
allowed_items=$(LC_ALL=C sort <<'EOF'
all_finite test-hook
allreduce_reference oracle
arena_usage test-hook
at_mut test-hook
block_backward oracle
block_forward_decode oracle
collective_calls test-hook
dp_traffic_bytes test-hook
from_millis test-hook
from_state_blob test-hook
kv_arena_bytes test-hook
max_abs_diff test-hook
nbytes test-hook
resident_bytes test-hook
round_through oracle
spill_traffic test-hook
EOF
)
untagged=$(echo "$allowed_items" | grep -vE '^[A-Za-z0-9_]+ (test-hook|oracle)$' || true)
# shellcheck disable=SC2086 # the caller set is a list of globs
uncalled=$(find $caller_set -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_tests = 0; in_reexport = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*\/\// { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        name = ""
        if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub (const |unsafe )*(fn|struct|enum|const|static|trait|type) [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", name)
            if (!(name in defined)) defined[name] = FILENAME ":" FNR
        }
        if (line ~ /^[ \t]*pub use /) in_reexport = 1
        if (!in_reexport) {
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, words, " ")
            for (i = 1; i <= n; i++) if (words[i] != name) named[words[i]] = 1
        }
        if (in_reexport && $0 ~ /;/) in_reexport = 0
    }
    END { for (d in defined) if (!(d in named)) print d " " defined[d] }
' | LC_ALL=C sort)
not_allowed=$(awk 'NR == FNR { ok[$1]; next } NF && !($1 in ok)' <(echo "$allowed_items") <(echo "$uncalled"))
stale=$(awk 'NR == FNR { found[$1]; next } NF && !($1 in found) { print $1 }' <(echo "$uncalled") <(echo "$allowed_items"))
if [ -n "$not_allowed$stale$untagged" ]; then
    [ -z "$not_allowed" ] || printf 'public items nothing but their definition and tests name:\n%s\n' "$not_allowed"
    [ -z "$stale" ] || printf 'allowlist entries whose item is named again or gone:\n%s\n' "$stale"
    [ -z "$untagged" ] || printf 'allowlist entries without one test-hook / oracle tag:\n%s\n' "$untagged"
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
# The serving decode linears, packed per call and pre-packed.
grep -q '"decode_shapes"' "$SMOKE_OUT"
grep -q '"shape": "fc2_m16_decode"' "$SMOKE_OUT"
grep -q '"us_packed"' "$SMOKE_OUT"
# One head's serving attention, row at a time with per-call packing against
# the panel-layout KV cache.
grep -q '"decode_attention"' "$SMOKE_OUT"
grep -q '"shape": "attn_r56_p128"' "$SMOKE_OUT"
grep -q '"us_panels"' "$SMOKE_OUT"

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
# Model construction's cost per parameter, on all pool threads and on one.
grep -q '"op": "init_normal"' "$OPS_SMOKE_OUT"
grep -q '"op": "init_normal_1t"' "$OPS_SMOKE_OUT"
grep -q '"ns_per_elem"' "$OPS_SMOKE_OUT"

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
