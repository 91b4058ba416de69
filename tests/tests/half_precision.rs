//! Mixed-precision offload suite: half-precision device residency and
//! transfers with FP32 CPU masters (the ZeRO-Offload-style split grafted
//! onto STRONGHOLD's working window).
//!
//! The contract under test, per mode:
//!
//! - `F32` — bit-identical to the resident reference (the existing
//!   equivalence matrix, re-asserted here under an explicit capacity
//!   budget).
//! - `Bf16`/`F16` — H2D and D2H traffic **exactly** halved (zero
//!   tolerance), the same device-capacity budget admits a window twice as
//!   deep, parameters stay within the divergence bound stated in
//!   DESIGN.md, and the trajectory is deterministic: window, worker
//!   counts and dispatch mode don't matter, checkpoints round-trip
//!   bit-exact FP32 masters across precision modes.

use bytes::Bytes;
use stronghold_core::adam::AdamParams;
use stronghold_core::analytic::solve_window;
use stronghold_core::host::profiler::measure_host_profile_with_precision;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostOffloadTrainer,
    HostResidentTrainer, ParamBackend,
};
use stronghold_integration_tests::batch_for;
use stronghold_model::config::{tiny, ModelConfig};
use stronghold_tensor::Precision;

const SEED: u64 = 21;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

fn hocfg(precision: Precision, window: usize) -> HostOffloadConfig {
    HostOffloadConfig {
        window,
        optimizer_workers: 2,
        adam: adam(),
        precision,
        ..HostOffloadConfig::default()
    }
}

/// Runs `steps` training steps with `workers` offload and compute threads
/// and returns the cumulative transfer counters `(h2d_bytes, d2h_bytes)`.
fn transfer_bytes(precision: Precision, window: usize, workers: usize) -> (u64, u64) {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 55);
    let mut t = HostOffloadTrainer::new(
        cfg,
        SEED,
        HostOffloadConfig {
            offload_workers: workers,
            compute_workers: workers,
            ..hocfg(precision, window)
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    t.flush();
    (t.device().h2d_bytes(), t.device().d2h_bytes())
}

/// The headline claim, zero tolerance: at the same window, bf16 and f16
/// move **exactly** half the bytes FP32 moves, in both directions, for
/// every window (up to the fully resident one) and both the single-threaded
/// and the parallel pipeline shape.
#[test]
fn half_modes_move_exactly_half_the_bytes() {
    for window in [1usize, 2, 4] {
        for workers in [1usize, 2] {
            let (h32, d32) = transfer_bytes(Precision::F32, window, workers);
            assert!(h32 > 0 && d32 > 0, "FP32 baseline moved no bytes");
            for precision in [Precision::Bf16, Precision::F16] {
                let (hh, dh) = transfer_bytes(precision, window, workers);
                assert_eq!(
                    2 * hh,
                    h32,
                    "{} h2d not exactly half of FP32 (window={window}, workers={workers})",
                    precision.name()
                );
                assert_eq!(
                    2 * dh,
                    d32,
                    "{} d2h not exactly half of FP32 (window={window}, workers={workers})",
                    precision.name()
                );
            }
        }
    }
}

/// A fixed device-capacity budget admits twice the window under a half
/// mode: `tune_limits().window.max` doubles (+1 slot accounting), and the
/// arena footprint of any given window halves.
#[test]
fn fixed_capacity_budget_doubles_half_mode_window() {
    let cfg = tiny(8);
    let block_bytes_f32 = cfg.block_params() as u64 * 4;
    // Budget with room for 4 FP32 slots: window_max = 4 - 1 = 3 at FP32,
    // 8/block halves → ⌊8⌋ - 1 = 7 at bf16.
    let budget = 4 * block_bytes_f32;
    let build = |precision| {
        HostOffloadTrainer::new(
            cfg,
            SEED,
            HostOffloadConfig {
                device_capacity: Some(budget),
                ..hocfg(precision, 2)
            },
        )
    };
    let f32_t = build(Precision::F32);
    let bf16_t = build(Precision::Bf16);
    let f32_max = f32_t.tune_limits().expect("limits").window.1;
    let bf16_max = bf16_t.tune_limits().expect("limits").window.1;
    assert_eq!(f32_max, 3, "FP32 window bound under the budget");
    assert_eq!(bf16_max, 7, "bf16 window bound under the same budget");
    assert_eq!(
        bf16_t.arena_usage(4),
        f32_t.arena_usage(4) / 2,
        "half-width slots halve the arena footprint of a window"
    );
    // The capacity itself is pinned to the budget, not resized to the
    // configured window.
    assert_eq!(f32_t.device().capacity(), budget);
    assert_eq!(bf16_t.device().capacity(), budget);
}

/// The analytic solver sees the same doubling: a profile measured at half
/// precision reports half-width `s_fp`, so `m_mem_max` under a fixed
/// capacity comes out (roughly) twice the FP32 bound.
#[test]
fn solver_m_mem_max_doubles_at_half_precision() {
    let cfg = tiny(8);
    let batch = batch_for(&cfg, 56);
    let capacity = 4 * cfg.block_params() as u64 * 4;
    let m_mem_max = |precision| {
        let p = measure_host_profile_with_precision(&cfg, SEED, &batch, 1, precision);
        let bytes = cfg.block_params() as u64 * precision.param_bytes();
        solve_window(&p, |m| (m as u64 + 1) * bytes, capacity)
            .expect("solvable")
            .m_mem_max
    };
    let f32_max = m_mem_max(Precision::F32);
    let bf16_max = m_mem_max(Precision::Bf16);
    assert!(
        bf16_max >= 2 * f32_max,
        "bf16 m_mem_max {bf16_max} should at least double FP32's {f32_max}"
    );
}

/// FP32 mode with an explicit capacity budget is still bit-identical to
/// the resident reference — the budget only bounds the window, it never
/// enters the numerics.
#[test]
fn f32_with_capacity_budget_stays_bit_identical_to_resident() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 57);
    let mut resident = HostResidentTrainer::new(cfg, SEED, adam());
    let mut offloaded = HostOffloadTrainer::new(
        cfg,
        SEED,
        HostOffloadConfig {
            device_capacity: Some(8 * cfg.block_params() as u64 * 4),
            ..hocfg(Precision::F32, 2)
        },
    );
    for step in 0..4 {
        let lr = resident.train_step(&batch);
        let lo = offloaded.train_step(&batch);
        assert_eq!(lr.to_bits(), lo.to_bits(), "loss diverged at step {step}");
    }
    offloaded.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            offloaded.block_params(i),
            resident.block_params(i),
            "block {i} diverged"
        );
    }
}

/// Half-mode divergence bound (stated in DESIGN.md): after `S` steps with
/// learning rate `lr` and no clipping, every parameter satisfies
/// `|θ_half − θ_f32| ≤ 2·S·lr` — each trajectory's per-step Adam update
/// is magnitude-bounded near `lr`, so the trajectories can separate by at
/// most both update budgets. The divergence must also be *nonzero*
/// (rounding actually happened) and finite.
#[test]
fn half_mode_divergence_is_bounded_and_nonzero() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 58);
    let steps = 5usize;
    let lr = adam().lr;
    let run = |precision| {
        let mut t = HostOffloadTrainer::new(cfg, SEED, hocfg(precision, 2));
        for _ in 0..steps {
            t.train_step(&batch);
        }
        t.flush();
        (0..cfg.layers)
            .map(|i| t.block_params(i))
            .collect::<Vec<_>>()
    };
    let reference = run(Precision::F32);
    for precision in [Precision::Bf16, Precision::F16] {
        let half = run(precision);
        let bound = 2.0 * steps as f32 * lr;
        let mut max_abs = 0f32;
        for (i, (a, b)) in half.iter().zip(&reference).enumerate() {
            for (x, y) in a.iter().zip(b) {
                let d = (x - y).abs();
                assert!(d.is_finite(), "{} block {i} non-finite", precision.name());
                assert!(
                    d <= bound,
                    "{} block {i}: |Δθ| = {d} exceeds 2·S·lr = {bound}",
                    precision.name()
                );
                max_abs = max_abs.max(d);
            }
        }
        assert!(
            max_abs > 0.0,
            "{} trajectory identical to FP32 — rounding never happened",
            precision.name()
        );
    }
}

/// Worker counts, dispatch mode, and window size are invisible to the
/// half-mode trajectory, exactly as they are to FP32.
#[test]
fn bf16_trajectory_invariant_to_pipeline_shape() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 60);
    let run = |window: usize, offload_workers: usize, compute_workers: usize, streaming: bool| {
        let mut t = HostOffloadTrainer::new(
            cfg,
            SEED,
            HostOffloadConfig {
                offload_workers,
                compute_workers,
                // Deferred dispatch is selected by a within-budget clip
                // threshold (`clip_scale` exactly 1.0, bits untouched).
                clip_norm: if streaming { None } else { Some(f32::MAX) },
                ..hocfg(Precision::Bf16, window)
            },
        );
        let losses: Vec<u32> = (0..3).map(|_| t.train_step(&batch).to_bits()).collect();
        t.flush();
        let params: Vec<Vec<f32>> = (0..cfg.layers).map(|i| t.block_params(i)).collect();
        (losses, params)
    };
    let reference = run(2, 1, 1, false);
    for window in [1usize, 2, 4] {
        for offload_workers in [1usize, 2] {
            for compute_workers in [1usize, 2] {
                for streaming in [false, true] {
                    assert_eq!(
                        reference,
                        run(window, offload_workers, compute_workers, streaming),
                        "window={window} offload_workers={offload_workers} \
                         compute_workers={compute_workers} streaming={streaming}"
                    );
                }
            }
        }
    }
}

/// f16 smoke: trains to finite losses and halves traffic (the byte claim
/// is asserted exactly in `half_modes_move_exactly_half_the_bytes`).
#[test]
fn f16_trains_finite() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 61);
    let mut t = HostOffloadTrainer::new(cfg, SEED, hocfg(Precision::F16, 2));
    let mut prev = f32::INFINITY;
    for _ in 0..5 {
        let loss = t.train_step(&batch);
        assert!(loss.is_finite());
        prev = loss;
    }
    assert!(prev.is_finite());
}

/// Checkpoints always serialize the FP32 masters: a state saved under
/// bf16 resumes under FP32 with bit-exact parameters (and vice versa),
/// and resuming under bf16 continues the bf16 trajectory bit-identically.
#[test]
fn cross_precision_checkpoint_round_trip() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 62);

    // Uninterrupted bf16 run: 4 steps.
    let mut full = HostOffloadTrainer::new(cfg, SEED, hocfg(Precision::Bf16, 2));
    let full_losses: Vec<u32> = (0..4).map(|_| full.train_step(&batch).to_bits()).collect();
    full.flush();

    // Interrupted run: 2 steps, save, resume twice.
    let mut half = HostOffloadTrainer::new(cfg, SEED, hocfg(Precision::Bf16, 2));
    for (s, expect) in full_losses.iter().take(2).enumerate() {
        assert_eq!(half.train_step(&batch).to_bits(), *expect, "step {s}");
    }
    half.flush();
    let blob = half.save_training_state();

    // Resume under FP32: the masters come back bit-exact.
    let resumed_f32 =
        HostOffloadTrainer::load_training_state(blob.clone(), cfg, hocfg(Precision::F32, 2))
            .expect("bf16 checkpoint loads under f32 (masters present)");
    for i in 0..cfg.layers {
        assert_eq!(
            resumed_f32.block_params(i),
            half.block_params(i),
            "masters not bit-exact across precision at block {i}"
        );
    }

    // Resume under bf16: the continuation retraces the uninterrupted run.
    let mut resumed = HostOffloadTrainer::load_training_state(blob, cfg, hocfg(Precision::Bf16, 2))
        .expect("bf16 checkpoint loads under bf16");
    for (s, expect) in full_losses.iter().enumerate().skip(2) {
        assert_eq!(
            resumed.train_step(&batch).to_bits(),
            *expect,
            "resumed step {s} diverged from the uninterrupted run"
        );
    }
    resumed.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            resumed.block_params(i),
            full.block_params(i),
            "resumed block {i} diverged"
        );
    }
}

/// Precision-conflict policy: a checkpoint is rejected only when its
/// recorded precision conflicts with the trainer's *and* the
/// FP32-masters flag is absent — masters-present blobs (everything this
/// runtime saves) cross-load freely.
#[test]
fn precision_conflict_rejected_only_without_masters() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 63);
    let mut t = HostOffloadTrainer::new(cfg, SEED, hocfg(Precision::Bf16, 2));
    t.train_step(&batch);
    t.flush();
    let blob = t.save_training_state();
    // SHTS v2 layout: magic u32 | version u8 | precision u8 | flags u8 | …
    assert_eq!(blob[4], 2, "state version");
    assert_eq!(blob[5], Precision::Bf16.tag(), "recorded precision");
    assert_eq!(blob[6], 1, "FP32-masters flag set on every save");

    // Masters present → cross-precision load succeeds (also covered by
    // the round-trip test; asserted here for the policy's sake).
    assert!(
        HostOffloadTrainer::load_training_state(blob.clone(), cfg, hocfg(Precision::F32, 2))
            .is_ok()
    );

    // Strip the masters flag: now the bf16-tagged blob must be refused by
    // an FP32 trainer…
    let mut raw = blob.to_vec();
    raw[6] = 0;
    let stripped = Bytes::from(raw.clone());
    let msg = match HostOffloadTrainer::load_training_state(
        stripped.clone(),
        cfg,
        hocfg(Precision::F32, 2),
    ) {
        Ok(_) => panic!("masters-absent precision conflict must be rejected"),
        Err(err) => format!("{err}"),
    };
    assert!(
        msg.contains("precision mismatch"),
        "unexpected error: {msg}"
    );
    // …but still accepted by a matching bf16 trainer.
    assert!(
        HostOffloadTrainer::load_training_state(stripped, cfg, hocfg(Precision::Bf16, 2)).is_ok()
    );

    // Unknown flag bits and unknown precision tags are hard errors.
    let mut bad_flags = blob.to_vec();
    bad_flags[6] = 0x80;
    assert!(
        HostOffloadTrainer::load_training_state(
            Bytes::from(bad_flags),
            cfg,
            hocfg(Precision::Bf16, 2)
        )
        .is_err(),
        "unknown flag bits must be rejected"
    );
    let mut bad_tag = blob.to_vec();
    bad_tag[5] = 9;
    assert!(
        HostOffloadTrainer::load_training_state(
            Bytes::from(bad_tag),
            cfg,
            hocfg(Precision::Bf16, 2)
        )
        .is_err(),
        "unknown precision tag must be rejected"
    );
}

fn dp_config(replicas: usize, precision: Precision, bucket_bytes: usize) -> DataParallelConfig {
    DataParallelConfig {
        replicas,
        bucket_bytes,
        host: HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            offload_workers: 1,
            compute_workers: 1,
            adam: adam(),
            precision,
            ..HostOffloadConfig::default()
        },
    }
}

/// Data parallelism under bf16: each replica rounds its gradient shard
/// through the packed half format at D2H, then the all-reduce combines
/// the rounded shards in FP32 — so the trajectory is deterministic
/// (repeat runs bitwise equal), replicas stay in lockstep, and bucket
/// boundaries are invisible (rounding happens per layer, before
/// bucketing).
#[test]
fn dp_bf16_is_deterministic_and_bucket_invariant() {
    let cfg: ModelConfig = tiny(4).with_batch(8);
    let batch = batch_for(&cfg, 64);
    let layer_bytes = cfg.block_params() as usize * 4;
    let run = |bucket_bytes: usize| {
        let mut t =
            DataParallelTrainer::new(cfg, SEED, dp_config(2, Precision::Bf16, bucket_bytes));
        let losses: Vec<u32> = (0..3).map(|_| t.train_step(&batch).to_bits()).collect();
        t.flush();
        for i in 0..cfg.layers {
            assert_eq!(
                t.replica(1).block_params(i),
                t.replica(0).block_params(i),
                "replicas out of lockstep at block {i}"
            );
        }
        let params: Vec<Vec<f32>> = (0..cfg.layers)
            .map(|i| t.replica(0).block_params(i))
            .collect();
        (losses, params)
    };
    let reference = run(layer_bytes);
    assert_eq!(reference, run(layer_bytes), "repeat run diverged");
    assert_eq!(
        reference,
        run(usize::MAX),
        "bucket boundaries leaked into the numerics"
    );
}
