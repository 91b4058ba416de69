//! PR 9 acceptance: the file-backed spill tier beneath host RAM is
//! *bit-invisible*. A model whose FP32 masters + Adam state exceed the
//! configured `host_capacity` trains end-to-end with the over-budget layers
//! living on an [`NvmeStore`](stronghold_core::nvme::NvmeStore) swap file,
//! and produces bit-identical parameters, losses, and byte-equal SHTS
//! checkpoints versus the all-resident trainer — across windows, host
//! budgets, and device precisions. Spill traffic is
//! metered with zero tolerance against the closed-form per-step formulas,
//! and one run's measured spill bandwidths predict a fresh run's spill busy
//! time within a stated bound (the §III-G calibration loop).

use stronghold_core::adam::AdamParams;
use stronghold_core::host::profiler::calibrate_host;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostOffloadTrainer,
    HostResidentTrainer, Tier,
};
use stronghold_core::telemetry::Telemetry;
use stronghold_core::tier::RESIDENT_BYTES_PER_PARAM;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::tiny;
use stronghold_tensor::Precision;

const SEED: u64 = 77;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

/// A `host_capacity` with room for exactly `resident` RAM-tier layers of
/// this config (12 bytes per parameter: FP32 master + Adam m + v).
fn capacity_for(cfg: &stronghold_model::config::ModelConfig, resident: usize) -> u64 {
    resident as u64 * RESIDENT_BYTES_PER_PARAM * cfg.block_params()
}

fn spill_cfg(window: usize, capacity: u64) -> HostOffloadConfig {
    HostOffloadConfig {
        window,
        optimizer_workers: 2,
        adam: adam(),
        host_capacity: Some(capacity),
        ..HostOffloadConfig::default()
    }
}

/// The headline: a model whose full optimizer state does NOT fit in the
/// host-RAM budget trains bit-identically to resident training, the
/// cost-aware plan spills the deepest layers first, and the resident image
/// honours the budget.
#[test]
fn over_budget_model_trains_bit_identically_to_resident() {
    let cfg = tiny(6);
    let batch = batch_for(&cfg, 120);
    let budget = capacity_for(&cfg, 2); // 4 of 6 layers must spill
    let mut resident = HostResidentTrainer::new(cfg, SEED, adam());
    let mut spilled = HostOffloadTrainer::new(cfg, SEED, spill_cfg(2, budget));

    assert_eq!(
        spilled.spilled_layers(),
        4,
        "budget admits 2 resident layers"
    );
    let plan = spilled.tier_plan().clone();
    assert_eq!(
        plan.tiers()[..2],
        [Tier::Ram, Tier::Ram],
        "shallow layers stay"
    );
    assert!(
        plan.tiers()[2..].iter().all(|t| *t == Tier::File),
        "deepest layers spill first (cost-ascending order)"
    );
    assert!(
        plan.resident_bytes() <= budget,
        "resident image {} over budget {budget}",
        plan.resident_bytes()
    );

    for step in 0..5 {
        let lr = resident.train_step(&batch);
        let lo = spilled.train_step(&batch);
        assert_eq!(lr, lo, "loss diverged at step {step}");
    }
    spilled.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            spilled.block_params(i),
            resident.block_params(i),
            "block {i} parameters diverged"
        );
    }
    assert_eq!(
        spilled.save_training_state().as_ref(),
        resident.save_training_state().as_ref(),
        "SHTS checkpoints must be byte-equal (spilled Adam state included)"
    );
    let (read, written) = spilled.spill_traffic();
    assert!(read > 0 && written > 0, "the spill tier must actually run");
}

/// Stress matrix: window × host budget (partial, and zero — every layer
/// spills) × precision. Every spilled run is bitwise equal to its
/// unspilled twin (and, at FP32, to the resident reference), with
/// byte-equal checkpoints — placement is not part of the math.
#[test]
fn spill_matrix_is_bit_invisible() {
    let cfg = tiny(5);
    let batch = batch_for(&cfg, 121);
    let steps = 4;
    let run = |precision: Precision, capacity: Option<u64>, window: usize| {
        let mut t = HostOffloadTrainer::new(
            cfg,
            SEED,
            HostOffloadConfig {
                precision,
                host_capacity: capacity,
                ..spill_cfg(window, 0)
            },
        );
        let mut losses = Vec::new();
        for _ in 0..steps {
            losses.push(t.train_step(&batch));
        }
        t.flush();
        let params: Vec<Vec<f32>> = (0..cfg.layers).map(|i| t.block_params(i)).collect();
        let spilled = t.spilled_layers();
        (losses, params, t.save_training_state(), spilled)
    };
    let mut resident = HostResidentTrainer::new(cfg, SEED, adam());
    let mut resident_losses = Vec::new();
    for _ in 0..steps {
        resident_losses.push(resident.train_step(&batch));
    }
    let partial = capacity_for(&cfg, 3);
    for precision in [Precision::F32, Precision::Bf16] {
        // The unspilled twin: same precision, everything resident.
        let reference = run(precision, None, 2);
        assert_eq!(reference.3, 0, "no budget → nothing spills");
        if precision == Precision::F32 {
            assert_eq!(reference.0, resident_losses, "FP32 twin vs resident");
        }
        for window in [1usize, 2] {
            for (capacity, want_spilled) in [(partial, cfg.layers - 3), (0, cfg.layers)] {
                let tag = format!("{} window={window} capacity={capacity}", precision.name());
                let got = run(precision, Some(capacity), window);
                assert_eq!(got.3, want_spilled, "spill count ({tag})");
                assert_eq!(got.0, reference.0, "losses diverged ({tag})");
                assert_eq!(got.1, reference.1, "parameters diverged ({tag})");
                assert_eq!(
                    got.2.as_ref(),
                    reference.2.as_ref(),
                    "checkpoints not byte-equal ({tag})"
                );
            }
        }
    }
}

/// Zero-tolerance byte accounting: over a step window, the `spill.*`
/// telemetry counters and the swap file's own I/O counters advance by
/// exactly the closed-form per-step traffic the [`TierPlan`] predicts —
/// every fill, BP refill, optimizer page-in, and write-back, no slack.
#[test]
fn spill_byte_accounting_is_exact() {
    let cfg = tiny(5);
    let batch = batch_for(&cfg, 122);
    let tel = Telemetry::enabled();
    let budget = capacity_for(&cfg, 2); // 3 of 5 layers spill
    let mut t = HostOffloadTrainer::with_telemetry(cfg, SEED, spill_cfg(2, budget), tel.clone());
    let plan = t.tier_plan().clone();
    let m = t.window();
    let f2h_per_step: u64 = (0..cfg.layers).map(|l| plan.f2h_bytes_per_step(l, m)).sum();
    let h2f_per_step: u64 = (0..cfg.layers).map(|l| plan.h2f_bytes_per_step(l)).sum();
    assert!(f2h_per_step > 0 && h2f_per_step > 0);

    // One warm-up step settles nothing — traffic is exact from step 1 — but
    // deltas also prove the counters are per-step linear, not front-loaded.
    t.train_step(&batch);
    t.flush();
    let f2h0 = tel.counter("spill.f2h_bytes").get();
    let h2f0 = tel.counter("spill.h2f_bytes").get();
    assert_eq!(f2h0, f2h_per_step, "step 1 file→host bytes");
    assert_eq!(h2f0, h2f_per_step, "step 1 host→file bytes");
    let (read0, written0) = t.spill_traffic();

    let steps = 3u64;
    for _ in 0..steps {
        t.train_step(&batch);
    }
    t.flush();
    assert_eq!(
        tel.counter("spill.f2h_bytes").get() - f2h0,
        steps * f2h_per_step,
        "file→host delta over {steps} steps"
    );
    assert_eq!(
        tel.counter("spill.h2f_bytes").get() - h2f0,
        steps * h2f_per_step,
        "host→file delta over {steps} steps"
    );
    // The swap file's own counters see the same engine traffic (they also
    // count the one-time init writes, hence deltas).
    let (read1, written1) = t.spill_traffic();
    assert_eq!(read1 - read0, steps * f2h_per_step, "NvmeStore reads");
    assert_eq!(
        written1 - written0,
        steps * h2f_per_step,
        "NvmeStore writes"
    );
    // Fill waits are measured with an always-on clock.
    assert!(
        t.fill_wait_nanos() > 0,
        "spilled reads must report fill time"
    );
}

/// Data parallelism composes with the spill tier: replicas with private
/// swap files stay in lockstep and match unspilled single-replica training
/// bitwise — gradients never spill, so the all-reduce path is untouched.
#[test]
fn data_parallel_replicas_spill_bit_identically() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 124);
    let mut single = DataParallelTrainer::new(
        cfg,
        SEED,
        DataParallelConfig {
            replicas: 1,
            host: HostOffloadConfig {
                adam: adam(),
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        },
    );
    let mut spilled = DataParallelTrainer::new(
        cfg,
        SEED,
        DataParallelConfig {
            replicas: 2,
            host: HostOffloadConfig {
                adam: adam(),
                host_capacity: Some(capacity_for(&cfg, 1)),
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        },
    );
    // Swap-file write counters before any step (the init image is written
    // synchronously at construction, hence deltas below).
    let written0: Vec<u64> = (0..2)
        .map(|r| spilled.replica(r).spill_traffic().1)
        .collect();
    let steps = 4u64;
    for step in 0..steps {
        let a = single.train_step(&batch);
        let b = spilled.train_step(&batch);
        assert_eq!(a, b, "loss diverged at step {step}");
    }
    single.flush();
    spilled.flush();
    // `flush()` drains the spill tier too: every replica's write-backs have
    // reached its swap file, to the byte of the closed-form plan.
    for (r, w0) in written0.iter().enumerate() {
        let replica = spilled.replica(r);
        let plan = replica.tier_plan();
        let h2f_per_step: u64 = (0..cfg.layers).map(|l| plan.h2f_bytes_per_step(l)).sum();
        assert!(h2f_per_step > 0, "replica {r} spills nothing");
        assert_eq!(
            replica.spill_traffic().1 - w0,
            steps * h2f_per_step,
            "replica {r} swap-file writes after flush"
        );
    }
    for i in 0..cfg.layers {
        assert_eq!(
            single.replica(0).block_params(i),
            spilled.replica(0).block_params(i),
            "block {i} diverged from the unspilled single-replica reference"
        );
        assert_eq!(
            spilled.replica(0).block_params(i),
            spilled.replica(1).block_params(i),
            "replicas out of lockstep at block {i}"
        );
    }
}

/// A spill read that fails must abort the step, not hang it: the fill
/// thread that hit the error records it and wakes the prefetcher waiting on
/// the layer, and the failure reaches the thread that called `train_step`
/// as a panic naming the layer, the file slot and the I/O error. Run under
/// a watchdog so a regression shows as a timeout, not a stuck test binary.
#[test]
fn a_failed_spill_read_aborts_the_step_instead_of_hanging() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;
    // A hidden size no other test here uses, so the swap file's size
    // identifies it among this process's swap files.
    let cfg = stronghold_model::config::ModelConfig {
        hidden: 40,
        ..tiny(4)
    };
    let batch = batch_for(&cfg, 126);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut t = HostOffloadTrainer::new(cfg, SEED, spill_cfg(2, capacity_for(&cfg, 1)));
        assert_eq!(t.spilled_layers(), 3);
        t.train_step(&batch);
        t.flush();
        let (read, written) = t.spill_traffic();
        assert!(read > 0 && written > 0, "the spill tier must run first");
        let swap_len = 3 * 3 * 4 * cfg.block_params();
        let prefix = format!("stronghold-swap-{}-", std::process::id());
        let swap = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| {
                e.file_name().to_string_lossy().starts_with(&prefix)
                    && e.metadata().is_ok_and(|m| m.len() == swap_len)
            })
            .expect("the trainer's swap file");
        std::fs::OpenOptions::new()
            .write(true)
            .open(swap.path())
            .unwrap()
            .set_len(0)
            .unwrap();
        let mut step = || {
            catch_unwind(AssertUnwindSafe(|| {
                t.train_step(&batch);
                t.flush();
            }))
            .err()
            .map(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
        };
        let _ = tx.send(step());
        // The prefetcher thread outlives the failed pass: the next step
        // reaches the same failure instead of a dead stream, and the
        // trainer still drops.
        let _ = tx.send(step());
        drop(t);
        let _ = tx.send(None);
    });
    let next = |what: &str| {
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("a failed spill read hung {what}"))
    };
    let msg = next("the step").expect("a failed spill read must panic");
    let again = next("the next step").expect("the failure is recorded");
    assert_eq!(next("the drop"), None);
    // Layer 0 stays in RAM; layer 1 is the first spilled read, in file
    // slot 0.
    for msg in [msg, again] {
        assert!(
            msg.contains("layer 1, file slot 0, fill: failed to fill whole buffer"),
            "unexpected panic: {msg}"
        );
    }
}

/// The calibration loop over the file tier: one telemetry-enabled run's
/// measured spill bandwidths, distilled through `calibrate_host`, predict a
/// *fresh* run's spill busy time within 8× in either direction (a loose
/// bound — CI disks are noisy — but enough to catch a model that is off by
/// orders of magnitude), and re-anchor the simulator's NVMe spec.
#[test]
fn measured_spill_bandwidth_calibrates_the_nvme_model() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 125);
    let budget = capacity_for(&cfg, 1);
    let steps = 4u64;
    let measure = || {
        let tel = Telemetry::enabled();
        let mut t =
            HostOffloadTrainer::with_telemetry(cfg, SEED, spill_cfg(2, budget), tel.clone());
        for _ in 0..steps {
            t.train_step(&batch);
        }
        t.flush();
        let cal = calibrate_host(&tel, t.device(), steps, 0);
        let plan = t.tier_plan().clone();
        let m = t.window();
        let read_per_step: u64 = (0..cfg.layers).map(|l| plan.f2h_bytes_per_step(l, m)).sum();
        let write_per_step: u64 = (0..cfg.layers).map(|l| plan.h2f_bytes_per_step(l)).sum();
        (cal, read_per_step, write_per_step)
    };
    let (cal_a, read_b, write_b) = measure();
    assert!(cal_a.spill_read_bandwidth() > 0.0);
    assert!(cal_a.spill_write_bandwidth() > 0.0);
    let (cal_b, _, _) = measure();
    let predicted = cal_a.predict_spill_ns_per_step(read_b as f64, write_b as f64);
    let measured =
        (cal_b.spill_read_busy_ns + cal_b.spill_write_busy_ns) as f64 / cal_b.steps as f64;
    assert!(predicted > 0.0 && measured > 0.0);
    let ratio = predicted / measured;
    assert!(
        (0.125..=8.0).contains(&ratio),
        "calibrated spill prediction off by more than 8×: predicted {predicted:.0} ns/step, \
         fresh run measured {measured:.0} ns/step"
    );
    // The measured bandwidths re-anchor the simulator's §III-G NVMe spec.
    let prior = stronghold_sim::hardware::Platform::v100_server()
        .nvme
        .unwrap();
    let spec = cal_a.calibrate_nvme(prior);
    assert_eq!(spec.capacity, prior.capacity);
    assert!((spec.read_bw - cal_a.spill_read_bandwidth() * 1e9).abs() < 1.0);
    assert!((spec.write_bw - cal_a.spill_write_bandwidth() * 1e9).abs() < 1.0);
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
