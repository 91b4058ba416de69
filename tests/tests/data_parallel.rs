//! Data-parallel equivalence suite: N-replica training over the windowed
//! backend must be **bit-identical** to a single-replica resident run on
//! the same global batch, for every combination of replica count, window
//! size, dispatch mode, and gradient-bucket size.
//!
//! This is the §III-F claim made falsifiable: the canonical reduction tree
//! (`stronghold_collective::order`) makes each replica's shard fold a
//! subtree of the global-batch fold, and the bucketed all-reduce combines
//! the shard partials with the same tree over the rank index — so the
//! entire matrix below collapses onto one reference trajectory.

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostResidentTrainer,
};
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::{tiny, ModelConfig};

const SEED: u64 = 7;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

fn cfg() -> ModelConfig {
    tiny(4).with_batch(8)
}

/// Reference trajectory: per-step losses and final block parameters of a
/// single-replica resident trainer over the global batch.
fn resident_reference(steps: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let cfg = cfg();
    let batch = batch_for(&cfg, 71);
    let mut t = HostResidentTrainer::new(cfg, SEED, adam());
    let losses = (0..steps).map(|_| t.train_step(&batch)).collect();
    let params = (0..cfg.layers).map(|i| t.block_params(i)).collect();
    (losses, params)
}

/// `streaming: false` holds every gradient to the end of the step the only
/// way there is — through clipping — with a within-budget threshold, so
/// `clip_scale` is exactly 1.0 and the gradient bits are never touched.
fn dp_config(
    replicas: usize,
    window: usize,
    streaming: bool,
    bucket_bytes: usize,
) -> DataParallelConfig {
    DataParallelConfig {
        replicas,
        bucket_bytes,
        host: HostOffloadConfig {
            window,
            optimizer_workers: 2,
            adam: adam(),
            schedule: None,
            clip_norm: if streaming { None } else { Some(f32::MAX) },
            ..HostOffloadConfig::default()
        },
    }
}

/// The full stress matrix: replicas {1, 2, 4} × window {1, 2} × dispatch
/// {deferred, streaming} × bucket {one layer, four layers, whole model},
/// plus one cell under an explicit per-replica `device_capacity` (the
/// embedded [`HostOffloadConfig`] passes it through to every replica).
/// Every cell must reproduce the resident reference bit-for-bit — losses
/// per step and every block parameter — and all replicas must stay in
/// lockstep.
#[test]
fn dp_matrix_matches_single_replica_resident_bitwise() {
    let cfg = cfg();
    let batch = batch_for(&cfg, 71);
    let steps = 3;
    let (ref_losses, ref_params) = resident_reference(steps);
    let layer_bytes = cfg.block_params() as usize * 4;

    let mut cells = Vec::new();
    for replicas in [1usize, 2, 4] {
        for window in [1usize, 2] {
            for streaming in [false, true] {
                for bucket_bytes in [layer_bytes, 4 * layer_bytes, usize::MAX] {
                    cells.push(dp_config(replicas, window, streaming, bucket_bytes));
                }
            }
        }
    }
    // A 3-slot arena budget admits exactly the configured window of 2.
    let budgeted = dp_config(2, 2, true, layer_bytes);
    cells.push(DataParallelConfig {
        host: HostOffloadConfig {
            device_capacity: Some(3 * layer_bytes as u64),
            ..budgeted.host
        },
        ..budgeted
    });

    for dp in cells {
        let cell = format!(
            "replicas={} window={} streaming={} bucket_bytes={} device_capacity={:?}",
            dp.replicas,
            dp.host.window,
            dp.host.clip_norm.is_none(),
            dp.bucket_bytes,
            dp.host.device_capacity
        );
        let mut t = DataParallelTrainer::new(cfg, SEED, dp.clone());
        for (s, expect) in ref_losses.iter().enumerate() {
            let loss = t.train_step(&batch);
            assert_eq!(
                loss.to_bits(),
                expect.to_bits(),
                "{cell}: loss diverged at step {s} ({loss} vs {expect})"
            );
        }
        t.flush();
        for (i, expect) in ref_params.iter().enumerate() {
            assert_eq!(
                &t.replica(0).block_params(i),
                expect,
                "{cell}: block {i} params diverged"
            );
            for r in 1..dp.replicas {
                assert_eq!(
                    t.replica(r).block_params(i),
                    t.replica(0).block_params(i),
                    "{cell}: replica {r} out of lockstep at block {i}"
                );
            }
        }
        if let Some(budget) = dp.host.device_capacity {
            for r in 0..dp.replicas {
                assert_eq!(t.replica(r).window(), dp.host.window, "{cell}: replica {r}");
                assert!(
                    t.replica(r).device().peak() <= budget,
                    "{cell}: replica {r} device peak over its arena budget"
                );
            }
        }
    }
}

/// A rank's sink parks a whole bucket before delivering any of it, so the
/// rank's accumulator ring holds a bucket's worth beyond its two, not one
/// per actor: with a single actor, a whole-model bucket and a one-layer
/// bucket both finish three streamed steps (a ring of three could not fill
/// a four-layer bucket) and land on the resident reference bit for bit,
/// and `grad.accumulators` reads `2 + max(optimizer_workers, layers per
/// bucket)`.
#[test]
fn dp_with_one_optimizer_actor_cannot_deadlock() {
    use std::sync::mpsc;
    use std::time::Duration;
    let cfg = cfg();
    let steps = 3;
    let (ref_losses, ref_params) = resident_reference(steps);
    let layer_bytes = cfg.block_params() as usize * 4;
    for bucket_bytes in [usize::MAX, layer_bytes] {
        let mut dp = dp_config(2, 2, true, bucket_bytes);
        dp.host.optimizer_workers = 1;
        let (done, finished) = mpsc::channel();
        let tel = Telemetry::enabled();
        let recorded = tel.clone();
        std::thread::spawn(move || {
            let batch = batch_for(&cfg, 71);
            let mut t = DataParallelTrainer::with_telemetry(cfg, SEED, dp, recorded);
            let losses: Vec<f32> = (0..steps).map(|_| t.train_step(&batch)).collect();
            t.flush();
            let params: Vec<Vec<f32>> = (0..cfg.layers)
                .map(|i| t.replica(0).block_params(i))
                .collect();
            let _ = done.send((losses, params));
        });
        let (losses, params) = finished
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("bucket_bytes {bucket_bytes}: the data-parallel step hung"));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&losses),
            bits(&ref_losses),
            "bucket_bytes {bucket_bytes}"
        );
        assert_eq!(params, ref_params, "bucket_bytes {bucket_bytes}");
        let per_bucket = if bucket_bytes == layer_bytes {
            1
        } else {
            cfg.layers
        };
        let ring = tel.gauge("grad.accumulators");
        assert_eq!(
            (ring.get(), ring.peak()),
            (2 + per_bucket as i64, 2 + per_bucket as i64),
            "bucket_bytes {bucket_bytes}: ring of 2 + max(1 actor, {per_bucket} parked)"
        );
    }
}

/// Thread-interleaving determinism at the trainer level: the most
/// concurrent cell (4 replicas, streaming dispatch, layer-sized buckets,
/// the replicas' D2H engines racing the bucket cursor) repeated from
/// scratch must retrace itself exactly.
#[test]
fn dp_repeat_runs_are_bit_identical() {
    let cfg = cfg();
    let batch = batch_for(&cfg, 72);
    let layer_bytes = cfg.block_params() as usize * 4;
    let run = || {
        let mut t = DataParallelTrainer::new(cfg, 11, dp_config(4, 2, true, layer_bytes));
        let losses: Vec<u32> = (0..4).map(|_| t.train_step(&batch).to_bits()).collect();
        t.flush();
        let params: Vec<Vec<f32>> = (0..cfg.layers)
            .map(|i| t.replica(0).block_params(i))
            .collect();
        (losses, params)
    };
    let a = run();
    for rep in 0..3 {
        assert_eq!(a, run(), "repeat run {rep} diverged");
    }
}

/// Evaluation and checkpointing route through replica 0 and agree with the
/// resident trainer's view of the same parameters.
#[test]
fn dp_eval_and_state_follow_replica_zero() {
    let cfg = cfg();
    let batch = batch_for(&cfg, 73);
    let mut dp = DataParallelTrainer::new(cfg, SEED, dp_config(2, 2, true, usize::MAX));
    let mut single = HostResidentTrainer::new(cfg, SEED, adam());
    for _ in 0..2 {
        dp.train_step(&batch);
        single.train_step(&batch);
    }
    assert_eq!(dp.replica(0).eval_loss(&batch), single.eval_loss(&batch));
    // The saved state is byte-equal to the single-replica trainer's: same
    // step counter, same parameters, same Adam moments.
    assert_eq!(
        dp.replica(0).save_training_state().as_ref(),
        single.save_training_state().as_ref(),
        "training-state blobs diverged"
    );
}
