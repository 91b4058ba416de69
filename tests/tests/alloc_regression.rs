//! Allocation-regression guard for the zero-allocation step loop.
//!
//! A counting global allocator measures how many heap allocations one
//! `train_step` performs. The first steps are allowed to allocate freely
//! (scratch pools, staging buffers and the gradient accumulator ring grow
//! to their steady-state sizes), but after warm-up the per-step
//! allocation count must stop growing: a later window of steps may not
//! allocate more than an earlier one (where worker-thread timing makes
//! single windows noisy, the quietest of three later ones — see
//! `early_and_late`), and the absolute per-step count must stay far below
//! one-allocation-per-tensor territory.
//!
//! The counter tallies every thread, so the offloaded trainer's
//! prefetcher and optimizer-pool threads are included. A second counter
//! tracks live heap bytes, which pins what a windowed run — spilled or not
//! — *holds*, not only how often it allocates, and a third the highest the
//! second has been, which pins what building a trainer holds at its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use stronghold_collective::order::FoldPlan;
use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostOffloadTrainer,
    HostResidentTrainer,
};
use stronghold_core::schedule::LrSchedule;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::{tiny, ModelConfig};
use stronghold_tensor::Precision;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated, process-wide (requested sizes, not the
/// allocator's rounding).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most `LIVE` has been since [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts one allocation that grew the live heap by `bytes`.
fn grow(bytes: i64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates allocation to `System` unchanged; the counters are a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        grow(l.size() as i64);
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        grow(l.size() as i64);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        grow(n as i64 - l.size() as i64);
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(p, l) }
    }
}

fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the peak at the live heap now, which it returns.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter tallies every thread of the process, so tests that measure
/// it must not overlap: each takes this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the guarded unit has no state to
    // corrupt, so later tests still run.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation counts of one early run of `window` and of the quietest of
/// three later runs. Growth per step raises every later window; a one-off
/// whose timing depends on the schedule (a worker finding a free list
/// momentarily empty grows it by one buffer, for good) lands in one window
/// and cannot raise the minimum.
fn early_and_late(mut window: impl FnMut()) -> (u64, u64) {
    let early = allocs_during(&mut window);
    let late = (0..3).map(|_| allocs_during(&mut window)).min();
    (early, late.expect("three late windows"))
}

fn adam() -> AdamParams {
    AdamParams {
        lr: 1e-3,
        ..AdamParams::default()
    }
}

/// Per-step (or per-round) allocation ceiling after warm-up: `measured`,
/// what a warm step of that test allocates (a debug build on a 2-core
/// x86-64 box), plus a quarter of it and 8 more. A trainer that allocated
/// one buffer per tensor per step would be far above every cap for the
/// tiny configs (dozens of tensors × batch × layers). What a warm step
/// still allocates is the step's own bookkeeping — the resident trainer,
/// which runs no pipeline thread, allocates 66 a step — and, in the
/// data-parallel step, its per-step replica threads. Span names cost
/// nothing here: telemetry is off, and a disabled span renders no name.
fn steady_state_cap(measured: u64) -> u64 {
    measured + measured / 4 + 8
}

#[test]
fn resident_step_allocations_stop_growing() {
    let _serial = serial();
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 41);
    let mut t = HostResidentTrainer::new(cfg, 7, adam());
    for _ in 0..3 {
        t.train_step(&batch);
    }
    let early = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
    });
    let late = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
    });
    assert!(
        late <= early,
        "per-step allocations grew after warm-up: early window {early}, late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(66),
        "resident steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// Steady state of the offloaded trainer at `window` / `precision` with
/// streaming dispatch (no clipping).
fn offloaded_allocations_stop_growing(window: usize, precision: Precision) {
    let _serial = serial();
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 42);
    let mut t = HostOffloadTrainer::new(
        cfg,
        7,
        HostOffloadConfig {
            window,
            precision,
            optimizer_workers: 2,
            adam: adam(),
            ..HostOffloadConfig::default()
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    // Flush at every window boundary so no in-flight optimizer-pool work
    // straddles a measurement window; the worker threads allocate queue
    // nodes whose timing is otherwise nondeterministic (±a few allocs).
    t.flush();
    let (early, late) = early_and_late(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    assert!(
        late <= early + 4,
        "per-step allocations grew after warm-up: early window {early}, late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(92),
        "offloaded steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

#[test]
fn offloaded_step_allocations_stop_growing() {
    offloaded_allocations_stop_growing(2, Precision::F32);
}

/// The half mode rounds inside the shell load and as each optimizer actor
/// reads a piece of a lent gradient into its staging, so it settles at the
/// same incidental level: no staging buffer regrown, no buffer reallocated
/// per layer. (Its own test, hence its own thread: a second trainer on a thread
/// whose scratch pool the first one ordered shifts the count by a few.)
#[test]
fn offloaded_bf16_step_allocations_stop_growing() {
    offloaded_allocations_stop_growing(1, Precision::Bf16);
}

/// The tiny configs above never reach the kernels' fan-out thresholds, so
/// they cannot see what a parallel dispatch allocates. At hidden 256 /
/// seq 128 every linear product and the per-head attention loops go
/// through the fork-join pool, whose helpers are persistent threads with
/// their own warm pack scratch and tensor pools: a dispatch may allocate
/// nothing on any thread, so the step's count stays at the same incidental
/// level as the small shapes (starting threads and packing into fresh
/// buffers on every dispatch cost ~45 allocations per kernel round below
/// and put this step at ~615, ten times its cap).
#[test]
fn pooled_kernel_step_allocations_stop_growing() {
    let _serial = serial();
    let cfg = ModelConfig::new(2, 256, 8)
        .with_seq(128)
        .with_vocab(512)
        .with_batch(2);
    let batch = batch_for(&cfg, 47);
    let mut t = HostOffloadTrainer::new(
        cfg,
        7,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: adam(),
            ..HostOffloadConfig::default()
        },
    );
    // Pin the width so the pool engages whatever the machine: the helpers
    // start on the first dispatch, inside the warm-up.
    stronghold_tensor::pool::with_threads(2, || {
        for _ in 0..2 {
            t.train_step(&batch);
        }
        t.flush();
        let mut step = || {
            allocs_during(|| {
                t.train_step(&batch);
                t.flush();
            })
        };
        let early = step();
        let late = step();
        assert!(
            late <= early + 8,
            "per-step allocations grew after warm-up: early step {early}, late step {late}"
        );
        assert!(
            late <= steady_state_cap(60),
            "steady-state step above the fan-out thresholds allocates too much: {late} allocs"
        );
    });

    // The kernels alone: once both threads' scratch is warm, a product over
    // `PAR_FLOPS_THRESHOLD` allocates nothing, and neither does an attention
    // forward — the list holding its per-head probabilities comes back
    // through `recycle` (a few stragglers are tolerated — which thread first
    // runs which task is up to the schedule).
    use stronghold_tensor::attention::Attention;
    use stronghold_tensor::init::{normal, seeded_rng};
    use stronghold_tensor::matmul::matmul_nt_into;
    use stronghold_tensor::{scratch, Tensor};
    let mut rng = seeded_rng(48);
    let x = normal([127, 256], 1.0, &mut rng);
    let w = normal([768, 256], 1.0, &mut rng);
    let attn = Attention::new(256, 8, &mut rng);
    let mut grads = attn.zero_grads();
    let mut y = Tensor::zeros([127, 768]);
    let mut kernels = |rounds: usize| {
        for _ in 0..rounds {
            matmul_nt_into(&x, &w, &mut y);
            let (out, cache) = attn.forward(&x);
            scratch::give(attn.backward(&x, &x, &cache, &mut grads));
            scratch::give(out);
            cache.recycle();
        }
    };
    stronghold_tensor::pool::with_threads(2, || {
        kernels(6);
        let steady = allocs_during(|| kernels(10));
        assert!(
            steady <= 6,
            "pooled kernels allocated {steady} times over 10 warm rounds"
        );
    });
}

/// With the file spill tier active, the steady-state step must stay
/// allocation-bounded too: the prefetcher reads spilled layers straight
/// into its shells, swap-file I/O reads and writes the caller's slices in
/// place, and each optimizer actor pages spilled updates through one
/// staging triple — so after warm-up a spilled step allocates no more than
/// the window before it, with no slack, and no more than an unspilled one.
#[test]
fn spilled_step_allocations_stop_growing() {
    let _serial = serial();
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 46);
    let mut t = HostOffloadTrainer::new(
        cfg,
        7,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: adam(),
            // Room for one resident layer: 3 of 4 layers live on the file.
            host_capacity: Some(12 * cfg.block_params()),
            ..HostOffloadConfig::default()
        },
    );
    assert_eq!(t.spilled_layers(), 3, "the spill tier must be active");
    for _ in 0..3 {
        t.train_step(&batch);
    }
    t.flush();
    let (early, late) = early_and_late(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    assert!(
        late <= early,
        "per-step allocations grew with the spill tier active: early window {early}, \
         late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(92),
        "spilled steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// The live-heap contracts' shape: blocks large enough that one
/// block-sized buffer, `4·S` (0.8 MB here), is most of
/// [`LIVE_HEAP_CONSTANT`] and two of them exceed it, so a gradient term
/// that scales with depth again cannot hide inside it (a trainer holding
/// one accumulator per layer, a per-sample scratch and a fold slot, or an
/// optimizer pool holding a layer-sized gradient buffer per actor again,
/// overruns both bounds), and a sequence short enough that debug builds
/// run it quickly.
fn live_heap_cfg(batch: usize) -> ModelConfig {
    ModelConfig::new(4, 128, 4)
        .with_seq(4)
        .with_vocab(32)
        .with_batch(batch)
}

/// Everything the plans do not size: the model shell (embedding, final LN)
/// and its gradient scratches, the compute thread's tensor scratch pool (at
/// most 64 pooled tensors, ≤ 6 KiB each at this shape), kernel pack
/// buffers, channels and thread handles. The runs keep 0.47–1.31 MB of the
/// bound spare on a 2-core x86-64 box (set-up 0.91–1.04 MB): at the
/// tightest, less than one block-sized buffer (0.8 MB; 3.2 MB in the
/// set-up test).
const LIVE_HEAP_CONSTANT: i64 = 1 << 20;

/// Optimizer actors of the live-heap runs.
const OPTIMIZER_WORKERS: usize = 2;

/// Block-sized gradient accumulators in the windowed backend's ring.
const GRAD_RING: usize = 2;

/// A live-heap run's configuration at `precision` / `window`.
fn live_heap_config(precision: Precision, window: usize) -> HostOffloadConfig {
    HostOffloadConfig {
        window,
        precision,
        optimizer_workers: OPTIMIZER_WORKERS,
        adam: adam(),
        ..HostOffloadConfig::default()
    }
}

/// What the windowed backend's gradients hold, in bytes of a block-sized
/// buffer `layer`: the accumulator ring, [`GRAD_RING`], and the fold
/// tree's partials beyond its root, `depth(b) − 1` — at any depth.
fn gradient_term(layer: i64, batch: usize) -> (&'static str, i64) {
    ring_gradient_term(GRAD_RING, layer, batch)
}

/// [`gradient_term`] for a ring of `ring` accumulators.
fn ring_gradient_term(ring: usize, layer: i64, batch: usize) -> (&'static str, i64) {
    let depth = FoldPlan::new(batch).depth();
    (
        "gradients: the ring, fold partials depth(b) − 1",
        (ring + depth - 1) as i64 * layer,
    )
}

/// Floats of a lent gradient an optimizer actor stages at once.
const GRAD_PIECE: i64 = 1 << 14;

/// What the optimizer holds of the gradients: the trainer's sink delivers
/// each at once, so its updates read the ring accumulators in place and the
/// pool allocates no layer-sized gradient buffer; each actor stages one
/// piece of a gradient at a time (every live-heap block is longer than a
/// piece).
fn grad_staging_term() -> (&'static str, i64) {
    (
        "gradient staging, one piece per optimizer actor",
        OPTIMIZER_WORKERS as i64 * 4 * GRAD_PIECE,
    )
}

/// Runs `step` — one training step and a flush — and checks the live heap
/// at the post-`flush()` step boundary — where nothing is in flight, so
/// live heap is the run's standing state — against the sum of `terms`
/// (counted from `base`, the level before the trainer was built), and that
/// it stops growing once warm.
fn assert_live_heap_within(tag: &str, mut step: impl FnMut(), base: i64, terms: &[(&str, i64)]) {
    let mut peak = 0i64;
    // Live-heap growth over four steps.
    let mut window = || {
        let before = live_bytes();
        for _ in 0..4 {
            step();
            peak = peak.max(live_bytes() - base);
        }
        live_bytes() - before
    };
    // Warm-up until a window leaves the heap no larger: the scratch pool
    // fills its slots at a rate that depends on the batch and on what ran
    // on this thread before. A leak never gets quiet and runs out the cap.
    for _ in 0..16 {
        if window() <= 0 {
            break;
        }
    }
    // Three late windows. A leak grows every one of them; a buffer the
    // schedule first needs late lands in one.
    let growth = [window(), window(), window()];
    let bound: i64 = terms.iter().map(|(_, b)| b).sum();
    assert!(
        peak <= bound,
        "{tag}: live heap peaked at {peak} B, over the plan's {bound} B: {terms:?}"
    );
    assert!(
        growth.iter().min() <= Some(&0),
        "{tag}: live heap grew in every late window: {growth:?} B"
    );
}

/// What an unspilled windowed run holds must follow from its plan too:
/// the resident image, the gradient ring and fold partials, the optimizer
/// actors' gradient staging and the window's shells, plus the stated
/// constant — no gradient term grows with depth. At every precision ×
/// window × a batch of three (two fold partials beside the ring accumulator
/// at the root) and of one (the ring accumulator is the whole fold).
#[test]
fn windowed_live_heap_is_bounded_by_the_plan() {
    let _serial = serial();
    for precision in [Precision::F32, Precision::Bf16] {
        for window in [1, 2] {
            // Batch 3 first: its busier steps fill this thread's scratch
            // pool sooner.
            for b in [3, 1] {
                let tag = format!("{} window {window} batch {b}", precision.name());
                let cfg = live_heap_cfg(b);
                let batch = batch_for(&cfg, 50);
                let base = live_bytes();
                let mut t = HostOffloadTrainer::new(cfg, 7, live_heap_config(precision, window));
                assert_eq!(t.spilled_layers(), 0, "{tag}: nothing spills");
                let layer = 4 * cfg.block_params() as i64;
                let m = t.window() as i64;
                let terms = [
                    ("resident image", t.tier_plan().resident_bytes() as i64),
                    gradient_term(layer, b),
                    grad_staging_term(),
                    ("device shells, m + 1", (m + 1) * layer),
                    ("constant", LIVE_HEAP_CONSTANT),
                ];
                let step = || {
                    t.train_step(&batch);
                    t.flush();
                };
                assert_live_heap_within(&tag, step, base, &terms);
            }
        }
    }
}

/// A trainer that holds gradients keeps its ring to the closed form of its
/// config, and nothing beside it: a clipped trainer holds `max(2, layers)`
/// accumulators (every gradient waits for the step's norm, and each is
/// scaled in place — no flat copy), and a data-parallel rank
/// `2 + max(optimizer_workers, parked)` (its bucket all-reduces the
/// accumulators in place). Beside the windowed run's other terms, each
/// rank's communicator slot holds one contribution (the larger of a bucket
/// and the resident groups), and each rank has its own shell, scratches and
/// threads, so the constant counts once per rank. The clipped f32 run keeps
/// 0.61 MB of its bound spare and the ranks 0.22 MB (0.90 MB at bf16
/// clipped; a debug build on a 2-core x86-64 box), so there one more
/// block-sized buffer (0.8 MB) — the flat copy the clipped path made of
/// each gradient, or a rank's pool buffer beside its ring — overruns it.
#[test]
fn held_and_parked_live_heap_is_bounded_by_the_plan() {
    let _serial = serial();
    for precision in [Precision::F32, Precision::Bf16] {
        let tag = format!("{} clipped", precision.name());
        let cfg = live_heap_cfg(1);
        let batch = batch_for(&cfg, 51);
        let base = live_bytes();
        let hocfg = HostOffloadConfig {
            clip_norm: Some(0.05),
            ..live_heap_config(precision, 2)
        };
        let mut t = HostOffloadTrainer::new(cfg, 7, hocfg);
        let layer = 4 * cfg.block_params() as i64;
        let terms = [
            ("resident image", t.tier_plan().resident_bytes() as i64),
            ring_gradient_term(cfg.layers, layer, 1),
            grad_staging_term(),
            ("device shells, m + 1", (t.window() as i64 + 1) * layer),
            ("constant", LIVE_HEAP_CONSTANT),
        ];
        let step = || {
            t.train_step(&batch);
            t.flush();
        };
        assert_live_heap_within(&tag, step, base, &terms);
        drop(t);

        let tag = format!("{} data-parallel, one-layer buckets", precision.name());
        let (replicas, parked) = (2, 1);
        let cfg = live_heap_cfg(replicas);
        let batch = batch_for(&cfg, 52);
        let base = live_bytes();
        let dp = DataParallelConfig {
            replicas,
            bucket_bytes: layer as usize,
            host: live_heap_config(precision, 2),
        };
        let mut t = DataParallelTrainer::new(cfg, 7, dp);
        let rank = t.replica(0);
        let resident_groups = 4 * (rank.grad_elements() as i64 - cfg.layers as i64 * layer / 4);
        let per_rank = [
            ("resident image", rank.tier_plan().resident_bytes() as i64),
            ring_gradient_term(GRAD_RING + OPTIMIZER_WORKERS.max(parked), layer, 1),
            grad_staging_term(),
            ("device shells, m + 1", (rank.window() as i64 + 1) * layer),
            ("communicator slot", layer.max(resident_groups)),
            ("constant", LIVE_HEAP_CONSTANT),
        ];
        let terms: Vec<(&str, i64)> = per_rank
            .iter()
            .map(|&(name, bytes)| (name, replicas as i64 * bytes))
            .collect();
        let step = || {
            t.train_step(&batch);
            t.flush();
        };
        assert_live_heap_within(&tag, step, base, &terms);
    }
}

/// What a spilled run holds must follow from its plan, not from how long it
/// has run: within the sum of the terms DESIGN.md's "Tiered storage" table
/// lists — a spilled layer is read straight into a device shell, so no
/// host buffer holds a spilled layer's image, and a buffer pool of layer
/// images (let alone one that keeps every buffer it ever allocated) crosses
/// the bound — and no growth once warm. At every precision × window.
#[test]
fn spilled_live_heap_is_bounded_by_the_plan() {
    let _serial = serial();
    // Floats per staging buffer of a spilled update (the store's chunk).
    const CHUNK: u64 = 1 << 18;
    const SPILLED: usize = 3;
    for precision in [Precision::F32, Precision::Bf16] {
        for window in [1, 2] {
            let tag = format!("{} window {window}", precision.name());
            let cfg = live_heap_cfg(1);
            let batch = batch_for(&cfg, 49);
            let base = live_bytes();
            let resident = (cfg.layers - SPILLED) as u64;
            let hocfg = HostOffloadConfig {
                host_capacity: Some(12 * resident * cfg.block_params()),
                ..live_heap_config(precision, window)
            };
            let mut t = HostOffloadTrainer::new(cfg, 7, hocfg);
            assert_eq!(
                t.spilled_layers(),
                SPILLED,
                "{tag}: the spill tier must be active"
            );
            let layer = 4 * cfg.block_params() as i64;
            let m = t.window() as i64;
            let terms = [
                ("resident image", t.tier_plan().resident_bytes() as i64),
                gradient_term(layer, batch.len()),
                grad_staging_term(),
                ("device shells, m + 1", (m + 1) * layer),
                (
                    "update staging, 3 chunks per optimizer actor",
                    OPTIMIZER_WORKERS as i64 * 3 * 4 * cfg.block_params().min(CHUNK) as i64,
                ),
                (
                    "the prefetcher's half staging, one chunk",
                    if precision.is_half() {
                        4 * cfg.block_params().min(CHUNK) as i64
                    } else {
                        0
                    },
                ),
                ("constant", LIVE_HEAP_CONSTANT),
            ];
            let step = || {
                t.train_step(&batch);
                t.flush();
            };
            assert_live_heap_within(&tag, step, base, &terms);
        }
    }
}

/// Set-up holds the model once: building a trainer takes each block
/// straight from its tensors into the store and drops it there, so no flat
/// image of a layer is ever allocated. The peak live heap while a trainer
/// is built — the model's construction included — is the larger of two
/// phases, plus the stated constant:
///
/// * filling the store: the model image (4 bytes a parameter) and what is
///   in flight — with every layer spilled, the one chunk of zeros the
///   moments are written from; with none, the layer being copied into its
///   chunks beside the first block, which stays as the stream's shell
///   template (the resident layers' moments come once the blocks are
///   gone);
/// * the built trainer: the shell's embedding and head, the plan's
///   resident image (parameters and moments), the device shells and the
///   gradient ring (the optimizer allocates no gradient buffer).
///
/// A layer here is three chunks and a bit, so a flat image of one block
/// outweighs the chunk of zeros by more than the constant. With every
/// layer spilled the fill phase is the peak and the bound bites: a set-up
/// that flattens a block to store it holds one flat image more and fails
/// here (one that flattened every block before dropping any would hold a
/// second image of the blocks). Unspilled, the built trainer's shells and
/// ring outweigh the set-up's transient, and the bound pins its standing
/// state.
#[test]
fn set_up_holds_the_model_once() {
    let _serial = serial();
    // Floats per chunk of the store.
    const CHUNK: i64 = 1 << 18;
    let cfg = ModelConfig::new(8, 256, 4)
        .with_seq(4)
        .with_vocab(32)
        .with_batch(1);
    let layer = 4 * cfg.block_params() as i64;
    let blocks = cfg.layers as i64 * layer;
    let model = 4 * cfg.total_params() as i64;
    for (tag, host_capacity) in [("spilled", Some(0)), ("unspilled", None)] {
        let base = reset_peak();
        let t = HostOffloadTrainer::new(
            cfg,
            7,
            HostOffloadConfig {
                host_capacity,
                ..live_heap_config(Precision::F32, 2)
            },
        );
        let peak = PEAK.load(Ordering::Relaxed) - base;
        let m = t.window() as i64;
        let resident = t.tier_plan().resident_bytes() as i64;
        let in_flight = if t.spilled_layers() == cfg.layers {
            ("the chunk of zeros", 4 * CHUNK.min(layer / 4))
        } else {
            ("the shell template and the layer being copied", 2 * layer)
        };
        let fill = [("model image", model), in_flight];
        let built = [
            ("embedding and head", model - blocks),
            ("resident image", resident),
            ("device shells, m + 1", (m + 1) * layer),
            ("gradient ring", GRAD_RING as i64 * layer),
        ];
        let sum = |terms: &[(&str, i64)]| terms.iter().map(|(_, b)| b).sum::<i64>();
        let bound = sum(&fill).max(sum(&built)) + LIVE_HEAP_CONSTANT;
        assert!(
            peak <= bound,
            "{tag}: set-up peaked at {peak} B, over {bound} B: filling {fill:?}, built {built:?}, \
             constant {LIVE_HEAP_CONSTANT}"
        );
        drop(t);
    }
}

/// A warm trainer's live heap does not creep with run length: a bf16
/// trainer at window 1 and a spilled f32 trainer at window 2 (the shapes of
/// strongbench's `train-stream` and `train-spill`, scaled down), stepped
/// back to back through eight batches with one flush at the end of each
/// stretch, hold no more at step 40 than at step 10. A per-step grower of a
/// few bytes would show here as 30 steps' worth — so would an activation
/// the step gives to the compute thread's scratch pool without having
/// rented it there (the embedding output), which grows the pool by one
/// tensor a step up to its 64-slot cap.
#[test]
fn warm_live_heap_holds_from_step_10_to_step_40() {
    let _serial = serial();
    let cfg = live_heap_cfg(1);
    let batches: Vec<_> = (0..8).map(|i| batch_for(&cfg, 70 + i)).collect();
    let spilled = HostOffloadConfig {
        host_capacity: Some(12 * cfg.block_params()),
        ..live_heap_config(Precision::F32, 2)
    };
    for (tag, hocfg) in [
        ("bf16", live_heap_config(Precision::Bf16, 1)),
        ("spilled", spilled),
    ] {
        let mut t = HostOffloadTrainer::new(cfg, 7, hocfg);
        let mut steps = 0;
        let mut live_after = |t: &mut HostOffloadTrainer, n: usize| {
            while steps < n {
                t.train_step(&batches[steps % batches.len()]);
                steps += 1;
            }
            t.flush();
            live_bytes()
        };
        let at_10 = live_after(&mut t, 10);
        let at_40 = live_after(&mut t, 40);
        assert!(
            at_40 <= at_10,
            "{tag}: live heap grew by {} B from step 10 to step 40",
            at_40 - at_10
        );
    }
}

/// The data-parallel step must reach the same steady state: replica
/// engines, fold slots, the accumulator rings (a bucket all-reduces them in
/// place) and the communicator's rendezvous slots all grow once during
/// warm-up, after which a step allocates only incidentals (the two scoped
/// replica threads, queue nodes): a flush names its span only with
/// telemetry on and hands the collective its parts without a list. The counter tallies every thread,
/// so both replicas' offload/optimizer workers and the collective are
/// included.
#[test]
fn data_parallel_step_allocations_stop_growing() {
    let _serial = serial();
    let cfg = tiny(4).with_batch(8);
    let batch = batch_for(&cfg, 44);
    let mut t = DataParallelTrainer::new(
        cfg,
        7,
        DataParallelConfig {
            replicas: 2,
            host: HostOffloadConfig {
                window: 2,
                optimizer_workers: 2,
                adam: adam(),
                ..HostOffloadConfig::default()
            },
            ..DataParallelConfig::default()
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    t.flush();
    let early = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    let late = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    assert!(
        late <= early + 8,
        "per-step allocations grew after warm-up: early window {early}, late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(513),
        "data-parallel steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// The serving engine's steady-state decode round must be allocation-
/// bounded too: KV appends write into storage preallocated at engine
/// construction, the round's packed workspace is reused, and
/// the `m+1` parameter shells circulate without reallocation: a warm
/// decode round allocates nothing at all, and a later window of decode
/// rounds may not allocate more than an earlier one.
#[test]
fn serving_decode_round_allocations_stop_growing() {
    let _serial = serial();
    use stronghold_core::serve::{GenRequest, ServeConfig, ServeEngine};
    let mut eng = ServeEngine::new(
        tiny(4),
        7,
        ServeConfig {
            window: 2,
            slots: 2,
            ..ServeConfig::default()
        },
    );
    // Two long decodes keep both slots active through every measured
    // round: 1 prefill round + 12 decode rounds per request.
    for i in 0..2u64 {
        eng.submit(GenRequest {
            id: i,
            prompt: vec![3 + i as u32, 5],
            max_new_tokens: 13,
            seed: 99 + i,
        });
    }
    for _ in 0..4 {
        assert!(eng.step().is_empty(), "nothing may finish during warm-up");
    }
    let early = allocs_during(|| {
        for _ in 0..3 {
            assert!(eng.step().is_empty());
        }
    });
    let late = allocs_during(|| {
        for _ in 0..3 {
            assert!(eng.step().is_empty());
        }
    });
    assert!(
        late <= early + 8,
        "per-round allocations grew in steady-state decode: early window {early}, \
         late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(0),
        "serving steady-state decode round allocates too much: {} allocs/round",
        late / 3
    );

    // Mixed rounds: beside two long decodes a third slot admits a fresh
    // prompt every other round (prefill + 2 decodes, then 3 decodes). The
    // packed workspace grew to the mixed shape during warm-up, so a later
    // window may not allocate more than an earlier one.
    let mut eng = ServeEngine::new(
        tiny(4),
        7,
        ServeConfig {
            window: 2,
            slots: 3,
            ..ServeConfig::default()
        },
    );
    for i in 0..2u64 {
        eng.submit(GenRequest {
            id: i,
            prompt: vec![3 + i as u32, 5],
            max_new_tokens: 13,
            seed: 99 + i,
        });
    }
    let mixed_window = |eng: &mut ServeEngine| {
        for id in 0..2u64 {
            eng.submit(GenRequest {
                id: 10 + id,
                prompt: vec![7, 1, 4, 2],
                max_new_tokens: 2,
                seed: id,
            });
            assert!(eng.step().is_empty(), "prefill beside two decodes");
            assert_eq!(eng.step().len(), 1, "the short request finishes");
        }
    };
    mixed_window(&mut eng);
    let early = allocs_during(|| mixed_window(&mut eng));
    let late = allocs_during(|| mixed_window(&mut eng));
    assert!(
        late <= early + 8,
        "per-round allocations grew in steady-state mixed rounds: early window {early}, \
         late window {late}"
    );
}

/// The engine's policy path (global-norm clip + LR schedule) must not break
/// the zero-allocation contract: the norm accumulator is stack-only, clip
/// scaling is in place, and the schedule is arithmetic.
#[test]
fn engine_policy_path_allocations_stop_growing() {
    let _serial = serial();
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 43);
    let mut t = HostOffloadTrainer::new(
        cfg,
        7,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: adam(),
            schedule: Some(LrSchedule::CosineWithWarmup {
                peak: 1e-3,
                floor: 1e-4,
                warmup: 2,
                total: 32,
            }),
            clip_norm: Some(0.5),
            ..HostOffloadConfig::default()
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    // Flush so no in-flight optimizer-pool work straddles a window
    // boundary; the pool's worker threads allocate queue nodes whose
    // timing is otherwise nondeterministic (±a few allocs per window).
    t.flush();
    let early = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    let late = allocs_during(|| {
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.flush();
    });
    assert!(
        late <= early + 4,
        "clip/schedule path allocations grew after warm-up: \
         early window {early}, late window {late}"
    );
    assert!(
        late / 3 <= steady_state_cap(92),
        "clip/schedule steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}
