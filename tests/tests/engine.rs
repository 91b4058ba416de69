//! The shared training engine, exercised end-to-end on every backend:
//! LR schedules, global-norm clipping, hooks, and the universal
//! checkpoint/resume format must behave identically whether parameters are
//! resident or windowed through the device, on one compute worker or
//! several sharing the one parameter copy (§IV-A).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stronghold_core::adam::AdamParams;
use stronghold_core::error::RuntimeError;
use stronghold_core::hooks::HookPoint;
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

/// §IV-A's multi-stream configuration: `k` compute workers over the one
/// copy of the parameters, gradients folded down the canonical tree.
fn multi_worker(k: usize) -> HostOffloadConfig {
    HostOffloadConfig {
        compute_workers: k,
        ..hocfg()
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
    let mut two_workers = HostOffloadTrainer::new(cfg, 8, multi_worker(2));

    for step in 0..6 {
        let lr = resident.train_step(&batch);
        let lo = offloaded.train_step(&batch);
        let lm = two_workers.train_step(&batch);
        assert_eq!(lr, lo, "resident vs offloaded loss at step {step}");
        assert_eq!(lo, lm, "one vs two compute workers, loss at step {step}");
    }
    offloaded.flush();
    two_workers.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            resident.block_params(i),
            offloaded.block_params(i),
            "resident vs offloaded block {i}"
        );
        assert_eq!(
            offloaded.block_params(i),
            two_workers.block_params(i),
            "one vs two compute workers, block {i}"
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
    for hocfg in [hocfg(), multi_worker(2)] {
        checkpoint_roundtrip(
            || HostOffloadTrainer::new(cfg, 5, hocfg),
            |blob| HostOffloadTrainer::load_training_state(blob, cfg, hocfg).unwrap(),
            202,
            &format!("{} compute workers", hocfg.compute_workers),
        );
    }
}

#[test]
fn checkpoint_is_universal_across_backends() {
    // A blob saved by the offloaded trainer resumes bit-exactly on the
    // resident trainer and on a multi-worker offloaded one: one format.
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
    let mut as_two_workers =
        HostOffloadTrainer::load_training_state(blob, cfg, multi_worker(2)).unwrap();
    for _ in 0..3 {
        as_resident.train_step(&batch);
        as_two_workers.train_step(&batch);
    }
    as_two_workers.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            reference.block_params(i),
            as_resident.block_params(i),
            "offloaded blob -> resident, block {i}"
        );
        assert_eq!(
            reference.block_params(i),
            as_two_workers.block_params(i),
            "offloaded blob -> multi-worker offloaded, block {i}"
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

/// Hook-firing contract on one trainer: per step, each of the four per-layer
/// points fires once per layer, and `PostStep` fires exactly once.
fn assert_hook_counts(counts: &[Arc<AtomicU64>; 5], layers: u64, steps: u64) {
    let [pre_f, post_f, pre_b, post_b, post_step] = counts;
    assert_eq!(pre_f.load(Ordering::SeqCst), layers * steps, "PreForward");
    assert_eq!(post_f.load(Ordering::SeqCst), layers * steps, "PostForward");
    assert_eq!(pre_b.load(Ordering::SeqCst), layers * steps, "PreBackward");
    assert_eq!(
        post_b.load(Ordering::SeqCst),
        layers * steps,
        "PostBackward"
    );
    assert_eq!(post_step.load(Ordering::SeqCst), steps, "PostStep");
}

fn counters() -> [Arc<AtomicU64>; 5] {
    std::array::from_fn(|_| Arc::new(AtomicU64::new(0)))
}

fn register_all(
    hooks: &mut stronghold_core::hooks::HookRegistry,
    layers: usize,
    counts: &[Arc<AtomicU64>; 5],
) {
    let points = [
        HookPoint::PreForward,
        HookPoint::PostForward,
        HookPoint::PreBackward,
        HookPoint::PostBackward,
    ];
    for (point, count) in points.into_iter().zip(counts.iter()) {
        for l in 0..layers {
            let c = Arc::clone(count);
            hooks.register(l, point, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
    }
    let c = Arc::clone(&counts[4]);
    hooks.register_post_step(move |_| {
        c.fetch_add(1, Ordering::SeqCst);
    });
}

fn hooks_fire<B: ParamBackend>(mut t: Engine<B>, batch_seed: u64) {
    let cfg = t.config();
    let batch = batch_for(&cfg, batch_seed);
    let counts = counters();
    register_all(t.hooks_mut(), cfg.layers, &counts);
    for _ in 0..4 {
        t.train_step(&batch);
    }
    assert_hook_counts(&counts, cfg.layers as u64, 4);
    assert_eq!(
        t.hooks().invocations(),
        (4 * cfg.layers as u64 + 1) * 4,
        "registry invocation total"
    );
}

#[test]
fn hooks_fire_on_resident_backend() {
    hooks_fire(HostResidentTrainer::with_options(tiny(3), 9, opts()), 205);
}

#[test]
fn hooks_fire_on_offloaded_backend() {
    for hocfg in [hocfg(), multi_worker(2)] {
        hooks_fire(HostOffloadTrainer::new(tiny(3), 10, hocfg), 206);
    }
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
