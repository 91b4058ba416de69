//! The shared training engine, exercised end-to-end on every backend:
//! LR schedules, global-norm clipping and the universal
//! checkpoint/resume format must behave identically whether parameters are
//! resident or windowed through the device, on one compute worker or
//! several sharing the one parameter copy (§IV-A).

use stronghold_core::adam::AdamParams;
use stronghold_core::error::RuntimeError;
use stronghold_core::host::{
    Engine, EngineOptions, HostOffloadConfig, HostOffloadTrainer, HostResidentTrainer, ParamBackend,
};
use stronghold_core::schedule::LrSchedule;
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::tiny;

/// A schedule with warm-up so the step counter visibly matters: resuming at
/// the wrong step would pick the wrong LR and break bit-exactness.
fn schedule() -> LrSchedule {
    LrSchedule::CosineWithWarmup {
        peak: 3e-3,
        floor: 3e-4,
        warmup: 3,
        total: 12,
    }
}

fn opts() -> EngineOptions {
    EngineOptions {
        adam: AdamParams::default(),
        schedule: Some(schedule()),
        clip_norm: Some(0.75),
        ..EngineOptions::default()
    }
}

fn hocfg() -> HostOffloadConfig {
    HostOffloadConfig {
        window: 2,
        optimizer_workers: 3,
        adam: AdamParams::default(),
        schedule: Some(schedule()),
        clip_norm: Some(0.75),
        ..HostOffloadConfig::default()
    }
}

#[test]
fn policy_is_identical_across_backends() {
    // With a schedule *and* clipping active, every backend shape must still
    // produce bit-identical parameters — the policy lives in one place.
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 200);

    let mut resident = HostResidentTrainer::with_options(cfg, 8, opts());
    let mut offloaded = HostOffloadTrainer::new(cfg, 8, hocfg());

    for step in 0..6 {
        let lr = resident.train_step(&batch);
        let lo = offloaded.train_step(&batch);
        assert_eq!(lr, lo, "resident vs offloaded loss at step {step}");
    }
    offloaded.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            resident.block_params(i),
            offloaded.block_params(i),
            "resident vs offloaded block {i}"
        );
    }
}

/// Save at step 3, restore, train 3 more == uninterrupted 6 steps — one
/// body for every backend, since every trainer is an `Engine<B>`.
fn checkpoint_roundtrip<B: ParamBackend>(
    make: impl Fn() -> Engine<B>,
    load: impl Fn(bytes::Bytes) -> Engine<B>,
    batch_seed: u64,
    what: &str,
) {
    let mut straight = make();
    let cfg = straight.config();
    let batch = batch_for(&cfg, batch_seed);
    for _ in 0..6 {
        straight.train_step(&batch);
    }
    straight.flush();

    let mut first = make();
    for _ in 0..3 {
        first.train_step(&batch);
    }
    let mut resumed = load(first.save_training_state());
    assert_eq!(resumed.steps(), 3, "step counter travels with the blob");
    for _ in 0..3 {
        resumed.train_step(&batch);
    }
    resumed.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            straight.block_params(i),
            resumed.block_params(i),
            "block {i}, {what}"
        );
    }
}

#[test]
fn checkpoint_roundtrip_resident() {
    let cfg = tiny(3);
    checkpoint_roundtrip(
        || HostResidentTrainer::with_options(cfg, 4, opts()),
        |blob| HostResidentTrainer::load_training_state(blob, cfg, opts()).unwrap(),
        201,
        "resident",
    );
}

#[test]
fn checkpoint_roundtrip_offloaded() {
    let cfg = tiny(3);
    checkpoint_roundtrip(
        || HostOffloadTrainer::new(cfg, 5, hocfg()),
        |blob| HostOffloadTrainer::load_training_state(blob, cfg, hocfg()).unwrap(),
        202,
        "offloaded",
    );
}

#[test]
fn checkpoint_is_universal_across_backends() {
    // A blob saved by the offloaded trainer resumes bit-exactly on the
    // resident trainer and on a fresh offloaded one: one format.
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 204);

    let mut reference = HostResidentTrainer::with_options(cfg, 7, opts());
    for _ in 0..6 {
        reference.train_step(&batch);
    }

    let mut saver = HostOffloadTrainer::new(cfg, 7, hocfg());
    for _ in 0..3 {
        saver.train_step(&batch);
    }
    let blob = saver.save_training_state();

    let mut as_resident =
        HostResidentTrainer::load_training_state(blob.clone(), cfg, opts()).unwrap();
    let mut as_offloaded = HostOffloadTrainer::load_training_state(blob, cfg, hocfg()).unwrap();
    for _ in 0..3 {
        as_resident.train_step(&batch);
        as_offloaded.train_step(&batch);
    }
    as_offloaded.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            reference.block_params(i),
            as_resident.block_params(i),
            "offloaded blob -> resident, block {i}"
        );
        assert_eq!(
            reference.block_params(i),
            as_offloaded.block_params(i),
            "offloaded blob -> offloaded, block {i}"
        );
    }
}

#[test]
fn version_byte_flip_is_rejected() {
    // Offset 4 is the format-version byte (after the 4-byte magic).
    let cfg = tiny(1);
    let t = HostResidentTrainer::with_options(cfg, 1, opts());
    let mut raw = t.save_training_state().to_vec();
    raw[4] ^= 0x7F;
    let err = HostResidentTrainer::load_training_state(bytes::Bytes::from(raw), cfg, opts())
        .err()
        .expect("must fail");
    assert!(
        matches!(err, RuntimeError::Checkpoint(ref m) if m.contains("version")),
        "{err}"
    );
}

#[test]
fn truncated_blob_is_rejected() {
    let cfg = tiny(1);
    let t = HostOffloadTrainer::new(cfg, 2, hocfg());
    let raw = t.save_training_state().to_vec();
    let cut = raw.len() - 9;
    let err = HostOffloadTrainer::load_training_state(
        bytes::Bytes::from(raw[..cut].to_vec()),
        cfg,
        hocfg(),
    )
    .err()
    .expect("must fail");
    assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
}

#[test]
fn config_mismatch_is_rejected() {
    let cfg = tiny(2);
    let other = tiny(3);
    let t = HostResidentTrainer::with_options(cfg, 3, opts());
    let blob = t.save_training_state();
    let err = HostResidentTrainer::load_training_state(blob, other, opts())
        .err()
        .expect("must fail");
    assert!(
        matches!(err, RuntimeError::Checkpoint(ref m) if m.contains("config mismatch")),
        "{err}"
    );
}

#[test]
fn lr_gauge_follows_schedule() {
    // The engine publishes the scheduled LR (fixed-point ×1e6) and a
    // positive gradient norm each step.
    let cfg = tiny(2);
    let batch = batch_for(&cfg, 208);
    let tel = Telemetry::enabled();
    let mut t = HostOffloadTrainer::with_telemetry(cfg, 12, hocfg(), tel.clone());
    let s = schedule();
    for step in 0..5u64 {
        t.train_step(&batch);
        let want = (s.at(step) as f64 * 1e6).round() as i64;
        assert_eq!(tel.gauge("step.lr").get(), want, "lr gauge at step {step}");
        assert!(
            tel.gauge("step.grad_norm").get() > 0,
            "grad norm gauge at step {step}"
        );
    }
}

#[test]
fn clipping_changes_training_and_unclipped_is_untouched() {
    // Sanity that the clip path is actually live: aggressive clipping must
    // alter the trajectory, and clip_norm: None must match the historical
    // (pre-engine) unclipped behaviour bit-for-bit across backends.
    let cfg = tiny(2);
    let batch = batch_for(&cfg, 209);
    let run = |clip: Option<f32>| {
        let mut t = HostResidentTrainer::with_options(
            cfg,
            13,
            EngineOptions {
                adam: AdamParams::default(),
                schedule: None,
                clip_norm: clip,
                ..EngineOptions::default()
            },
        );
        for _ in 0..3 {
            t.train_step(&batch);
        }
        t.block_params(0)
    };
    let unclipped = run(None);
    let clipped = run(Some(1e-3));
    assert_ne!(unclipped, clipped, "aggressive clipping must bite");
    assert_eq!(run(None), unclipped, "unclipped path is deterministic");
}
