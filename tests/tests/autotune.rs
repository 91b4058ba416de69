//! Closed-loop autotuner acceptance: mid-run window/worker resizes are
//! bit-invisible (forced schedules and the live controller both match
//! resident training exactly, checkpoints byte-equal), the `autotune.*`
//! gauges mirror the knobs in force, and the host-measured calibration
//! predicts a *fresh* run's step time within a stated error bound.

use stronghold_core::adam::AdamParams;
use stronghold_core::host::autotune::calibrate_host;
use stronghold_core::host::{
    AutotuneConfig, DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostOffloadTrainer,
    HostResidentTrainer, Tuning,
};
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::tiny;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

/// An aggressive controller config for tests: immediate commits (patience
/// 1), a single settling step per window probe, and a zero grow threshold
/// so any measured stall moves a knob. Real runs use the calmer defaults.
fn eager() -> AutotuneConfig {
    AutotuneConfig {
        grow_ratio: 0.0,
        shrink_ratio: 0.0,
        patience: 1,
        settle_evals: 1,
        ..AutotuneConfig::default()
    }
}

/// ISSUE acceptance: a hostile schedule of mid-run resizes — every knob
/// moves, window shrinks to 1 and grows to fully resident — must leave the
/// trained parameters bit-identical to resident training and the saved
/// training state byte-equal.
#[test]
fn forced_resize_schedule_stays_bit_identical_to_resident() {
    let cfg = tiny(6);
    let batch = batch_for(&cfg, 107);
    let mut resident = HostResidentTrainer::new(cfg, 23, adam());
    let mut t = HostOffloadTrainer::new(
        cfg,
        23,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: adam(),
            ..HostOffloadConfig::default()
        },
    );
    // (window, offload, compute, optimizer) applied after each step.
    let schedule: &[(usize, usize, usize, usize)] = &[
        (4, 2, 2, 3),
        (1, 0, 1, 1),
        (6, 1, 2, 4),
        (3, 2, 1, 2),
        (2, 1, 1, 1),
    ];
    for (step, &(w, ow, cw, opt)) in schedule.iter().enumerate() {
        let lr = resident.train_step(&batch);
        let lo = t.train_step(&batch);
        assert_eq!(lr, lo, "loss diverged at step {step}");
        t.force_tuning(Tuning {
            window: w,
            offload_workers: ow,
            compute_workers: cw,
            optimizer_workers: opt,
            spill_workers: 0,
        });
        assert_eq!(t.window(), w, "window not applied after step {step}");
    }
    // One more step at the final shape.
    assert_eq!(
        resident.train_step(&batch),
        t.train_step(&batch),
        "loss diverged after the last resize"
    );
    t.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            t.block_params(i),
            resident.block_params(i),
            "block {i} parameters diverged"
        );
    }
    assert_eq!(
        t.save_training_state().as_ref(),
        resident.save_training_state().as_ref(),
        "checkpoints must be byte-equal"
    );
}

/// The live controller — evaluating every step, resizing whenever it likes
/// — must also be bit-invisible, and its gauges must mirror the knobs in
/// force on the backend.
#[test]
fn live_autotuner_is_bit_invisible_and_mirrors_gauges() {
    let cfg = tiny(5);
    let batch = batch_for(&cfg, 108);
    let steps = 10;
    let mut resident = HostResidentTrainer::new(cfg, 31, adam());
    let tel = Telemetry::enabled();
    let mut t = HostOffloadTrainer::with_telemetry(
        cfg,
        31,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: adam(),
            autotune: Some(eager()),
            ..HostOffloadConfig::default()
        },
        tel.clone(),
    );
    for step in 0..steps {
        let lr = resident.train_step(&batch);
        let lo = t.train_step(&batch);
        assert_eq!(lr, lo, "loss diverged at step {step}");
    }
    t.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            t.block_params(i),
            resident.block_params(i),
            "block {i} parameters diverged under live autotuning"
        );
    }
    let ctrl = t.autotune().expect("controller must be live");
    assert_eq!(ctrl.evaluations(), steps, "one evaluation per step");
    assert_eq!(tel.counter("autotune.evals").get(), steps);
    let cur = ctrl.current();
    assert_eq!(
        tel.gauge("autotune.window").get(),
        cur.window as i64,
        "window gauge must mirror the knob"
    );
    assert_eq!(
        tel.gauge("autotune.offload_workers").get(),
        cur.offload_workers as i64
    );
    assert_eq!(
        tel.gauge("autotune.compute_workers").get(),
        cur.compute_workers as i64
    );
    assert_eq!(
        tel.gauge("autotune.optimizer_workers").get(),
        cur.optimizer_workers as i64
    );
    assert_eq!(t.window(), cur.window, "backend window matches controller");
    let b = ctrl.bounds();
    assert!(cur.window >= b.window.0 && cur.window <= b.window.1.max(b.window.0));
}

/// Calibration acceptance: distill telemetry-enabled training steps into a
/// [`stronghold_sim::calibration::HostCalibration`], then predict the step
/// time of *other* steps on the same shape. The prediction must land within
/// 25% of their measured mean step time.
///
/// Calibration and measurement take alternate steps of one run, so a slow
/// stretch of the box (other tests of this binary run concurrently) lands
/// on both halves instead of on one of two back-to-back runs.
#[test]
fn calibrated_prediction_lands_within_25_percent_of_a_fresh_run() {
    use stronghold_sim::calibration::HostCalibration;
    let cfg = tiny(6);
    let batch = batch_for(&cfg, 109);
    let hocfg = HostOffloadConfig {
        window: 2,
        optimizer_workers: 2,
        adam: adam(),
        ..HostOffloadConfig::default()
    };
    let tel = Telemetry::enabled();
    let mut t = HostOffloadTrainer::with_telemetry(cfg, 41, hocfg, tel.clone());
    // Warm the pipeline (thread-local scratch pools, channel buffers)
    // outside every measured step.
    for _ in 0..2 {
        t.train_step(&batch);
    }
    t.flush();
    // Each step runs to a flushed boundary, so its telemetry totals are
    // complete when read.
    let step = |t: &mut HostOffloadTrainer| {
        let t0 = std::time::Instant::now();
        t.train_step(&batch);
        t.flush();
        t0.elapsed().as_nanos() as u64
    };
    let mut cal = HostCalibration::default();
    let mut measured_ns = 0;
    let pairs = 10;
    for pair in 0..pairs {
        // Measured step: wall time only. It goes second in even pairs and
        // first in odd ones, so neither half always follows the other.
        if pair % 2 == 1 {
            measured_ns += step(&mut t);
        }
        // Calibration step: its telemetry deltas.
        let before = calibrate_host(&tel, t.device(), 1, 0);
        cal.wall_ns += step(&mut t);
        let after = calibrate_host(&tel, t.device(), 1, 0);
        cal.steps += 1;
        cal.compute_ns += after.compute_ns - before.compute_ns;
        cal.h2d_bytes += after.h2d_bytes - before.h2d_bytes;
        cal.h2d_busy_ns += after.h2d_busy_ns - before.h2d_busy_ns;
        cal.d2h_bytes += after.d2h_bytes - before.d2h_bytes;
        cal.d2h_busy_ns += after.d2h_busy_ns - before.d2h_busy_ns;
        cal.overlap_ns += after.overlap_ns.saturating_sub(before.overlap_ns);
        if pair % 2 == 0 {
            measured_ns += step(&mut t);
        }
    }
    let predicted = cal.predict_step_ns();
    let measured = measured_ns as f64 / pairs as f64;
    let err = (predicted - measured).abs() / measured;
    assert!(
        err <= 0.25,
        "calibrated prediction off by {:.1}% (predicted {predicted:.0} ns, interleaved steps \
         measured {measured:.0} ns)",
        err * 100.0
    );
}

/// §IV-A's multi-stream shape — two compute workers over one copy of the
/// parameters — under the live controller, which may move every knob
/// including the worker count: tuned training matches an untuned run
/// bitwise.
#[test]
fn two_worker_autotune_matches_the_untuned_run() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 110);
    let run = |autotune: Option<AutotuneConfig>| {
        let mut t = HostOffloadTrainer::new(
            cfg,
            7,
            HostOffloadConfig {
                compute_workers: 2,
                optimizer_workers: 2,
                adam: adam(),
                autotune,
                ..HostOffloadConfig::default()
            },
        );
        let losses: Vec<f32> = (0..5).map(|_| t.train_step(&batch)).collect();
        let evals = t.autotune().map(|c| c.evaluations());
        (losses, t.save_training_state(), evals)
    };
    let (l0, m0, _) = run(None);
    let (l1, m1, evals) = run(Some(eager()));
    assert_eq!(evals, Some(5), "controller live, one evaluation per step");
    assert_eq!(l0, l1, "losses diverged under autotuning");
    assert_eq!(m0.as_ref(), m1.as_ref(), "states diverged under autotuning");
}

/// Data parallelism runs ONE controller for the whole replica group; every
/// proposal is applied to all ranks, so the group stays in SPMD lockstep
/// and tuned 2-replica training matches untuned 1-replica training bitwise.
#[test]
fn data_parallel_autotune_keeps_replicas_in_lockstep() {
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 111);
    let mut single = DataParallelTrainer::new(
        cfg,
        51,
        DataParallelConfig {
            replicas: 1,
            host: HostOffloadConfig {
                adam: adam(),
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        },
    );
    let mut tuned = DataParallelTrainer::new(
        cfg,
        51,
        DataParallelConfig {
            replicas: 2,
            host: HostOffloadConfig {
                adam: adam(),
                autotune: Some(eager()),
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        },
    );
    for step in 0..6 {
        let a = single.train_step(&batch);
        let b = tuned.train_step(&batch);
        assert_eq!(a, b, "loss diverged at step {step}");
    }
    single.flush();
    tuned.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            single.replica(0).block_params(i),
            tuned.replica(0).block_params(i),
            "block {i} diverged from the single-replica reference"
        );
        assert_eq!(
            tuned.replica(0).block_params(i),
            tuned.replica(1).block_params(i),
            "replicas out of lockstep at block {i}"
        );
    }
    let ctrl = tuned.autotune().expect("trainer-level controller");
    assert_eq!(ctrl.evaluations(), 6, "one evaluation per global step");
    assert_eq!(tuned.replica(0).window(), ctrl.current().window);
}
