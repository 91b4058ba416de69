//! Allocation-regression guard for the zero-allocation step loop.
//!
//! A counting global allocator measures how many heap allocations one
//! `train_step` performs. The first steps are allowed to allocate freely
//! (scratch pools, staging buffers and per-layer gradient accumulators
//! grow to their steady-state sizes), but after warm-up the per-step
//! allocation count must stop growing: a later window of steps may not
//! allocate more than an earlier one (where worker-thread timing makes
//! single windows noisy, the quietest of three later ones — see
//! `early_and_late`), and the absolute per-step count must stay far below
//! one-allocation-per-tensor territory.
//!
//! The counter tallies every thread, so the offloaded trainer's
//! prefetcher and optimizer-pool threads are included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

// SAFETY: delegates allocation to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
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

/// Per-step allocation ceiling after warm-up. A trainer that allocated
/// one buffer per tensor per step would be far above this for the tiny
/// config (dozens of tensors × batch × layers); the reused-workspace
/// loop needs only incidental allocations (thread spawns, queue nodes).
const STEADY_STATE_CAP: u64 = 600;

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
        late / 3 <= STEADY_STATE_CAP,
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
        late / 3 <= STEADY_STATE_CAP,
        "offloaded steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

#[test]
fn offloaded_step_allocations_stop_growing() {
    offloaded_allocations_stop_growing(2, Precision::F32);
}

/// The half mode rounds inside the shell load and flattens each gradient
/// straight into a recycled optimizer buffer, so it settles at the same
/// incidental level: no staging buffer regrown, no buffer reallocated per
/// layer. (Its own test, hence its own thread: a second trainer on a thread
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
/// and put this step at ~615, over the cap).
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
    let two_wide = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    two_wide.install(|| {
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
            late <= STEADY_STATE_CAP / 2,
            "steady-state step above the fan-out thresholds allocates too much: {late} allocs"
        );
    });

    // The kernels alone: once both threads' scratch is warm, a product over
    // `PAR_FLOPS_THRESHOLD` allocates nothing and an attention forward only
    // the `Vec` that holds its per-head probabilities (a few stragglers are
    // tolerated — which thread first runs which task is up to the
    // schedule).
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
    two_wide.install(|| {
        kernels(6);
        let steady = allocs_during(|| kernels(10));
        assert!(
            steady <= 10 + 6,
            "pooled kernels allocated {steady} times over 10 warm rounds"
        );
    });
}

/// With the file spill tier active (PR 9), the steady-state step must stay
/// allocation-bounded too: fill buffers and byte scratch recycle through
/// the `TierStore` free lists, slot installs are `mem::replace` swaps, and
/// the swap-file I/O reuses one scratch per worker — so after warm-up a
/// spilled step allocates no more than the window before it.
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
            spill_workers: 2,
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
        late <= early + 8,
        "per-step allocations grew with the spill tier active: early window {early}, \
         late window {late}"
    );
    assert!(
        late / 3 <= STEADY_STATE_CAP,
        "spilled steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// The data-parallel step must reach the same steady state: replica
/// engines, fold slots, bucket buffers (recycled through the optimizer
/// pool's free list) and the communicator's rendezvous slots all grow once
/// during warm-up, after which a step allocates only incidentals (the two
/// scoped replica threads, queue nodes). The counter tallies every thread,
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
        late / 3 <= 2 * STEADY_STATE_CAP,
        "data-parallel steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// A live autotune controller at a fixed point must not break the
/// zero-allocation contract: evaluation is `Copy`-only arithmetic against
/// pre-registered gauges, so a step that proposes no resize allocates
/// exactly what an untuned step does. The config pins every knob (window
/// at its ceiling, one worker per pool, an infinite grow threshold) so no
/// resize can fire — resizes themselves are exempt from the contract.
#[test]
fn autotuner_at_fixed_point_allocations_stop_growing() {
    let _serial = serial();
    use stronghold_core::host::AutotuneConfig;
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 45);
    let mut t = HostOffloadTrainer::new(
        cfg,
        7,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 1,
            offload_workers: 1,
            compute_workers: 1,
            adam: adam(),
            autotune: Some(AutotuneConfig {
                m_max: 2,
                max_offload_workers: 1,
                max_compute_workers: 1,
                max_optimizer_workers: 1,
                grow_ratio: f64::INFINITY,
                shrink_ratio: 0.0,
                ..AutotuneConfig::default()
            }),
            ..HostOffloadConfig::default()
        },
    );
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
    let ctrl = t.autotune().expect("controller must be live");
    assert_eq!(ctrl.evaluations(), 15, "controller must run every step");
    assert_eq!(ctrl.resizes(), 0, "pinned config must never resize");
    assert!(
        late <= early + 4,
        "per-step allocations grew with the autotuner live: early window {early}, \
         late window {late}"
    );
    assert!(
        late / 3 <= STEADY_STATE_CAP,
        "autotuned steady-state step allocates too much: {} allocs/step",
        late / 3
    );
}

/// The serving engine's steady-state decode round must be allocation-
/// bounded too: KV appends write into storage preallocated at engine
/// construction, the round's packed workspace is reused, and
/// the `m+1` parameter shells circulate without reallocation. Per-round
/// incidentals (the prefetcher thread spawn, channel nodes, span labels)
/// are constant, so a later window of decode rounds may not allocate more
/// than an earlier one.
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
            compute_workers: 1,
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
        late / 3 <= STEADY_STATE_CAP,
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

/// The engine's policy path (global-norm clip + LR schedule + hook
/// dispatch) must not break the zero-allocation contract: the norm
/// accumulator is stack-only, clip scaling is in place, the schedule is
/// arithmetic, and hook dispatch is a map lookup.
#[test]
fn engine_policy_path_allocations_stop_growing() {
    let _serial = serial();
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 43);
    let build = || {
        HostOffloadTrainer::new(
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
        )
    };

    // Hooks disabled entirely (empty registry).
    let mut bare = build();
    // Hooks enabled but empty-bodied: firing must be allocation-free too.
    let mut hooked = build();
    for l in 0..cfg.layers {
        use stronghold_core::hooks::HookPoint;
        for point in [
            HookPoint::PreForward,
            HookPoint::PostForward,
            HookPoint::PreBackward,
            HookPoint::PostBackward,
        ] {
            hooked.hooks_mut().register(l, point, |_| {});
        }
    }
    hooked.hooks_mut().register_post_step(|_| {});

    for t in [&mut bare, &mut hooked] {
        for _ in 0..3 {
            t.train_step(&batch);
        }
    }
    for (name, t) in [("no-hooks", &mut bare), ("empty-hooks", &mut hooked)] {
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
            "{name}: clip/schedule/hook path allocations grew after warm-up: \
             early window {early}, late window {late}"
        );
        assert!(
            late / 3 <= STEADY_STATE_CAP,
            "{name}: clip/schedule/hook steady-state step allocates too much: {} allocs/step",
            late / 3
        );
    }
}
