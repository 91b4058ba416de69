//! The paper's §III-A exactness claim, verified end-to-end: the asynchronous
//! offloading pipeline (prefetcher thread, bounded device window, concurrent
//! optimizer actors) produces **bit-identical** parameters to conventional
//! resident training, for every window size and worker count.

use std::collections::HashSet;

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    EngineOptions, HostOffloadConfig, HostOffloadTrainer, HostResidentTrainer,
};
use stronghold_core::schedule::LrSchedule;
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::tiny;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

#[test]
fn offloaded_equals_resident_bitwise() {
    let cfg = tiny(5);
    let batch = batch_for(&cfg, 100);

    let mut resident = HostResidentTrainer::new(cfg, 9, adam());
    let mut offloaded = HostOffloadTrainer::new(
        cfg,
        9,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 4,
            adam: adam(),
            ..HostOffloadConfig::default()
        },
    );
    for step in 0..6 {
        let lr = resident.train_step(&batch);
        let lo = offloaded.train_step(&batch);
        assert_eq!(lr, lo, "loss diverged at step {step}");
    }
    offloaded.flush();
    for i in 0..cfg.layers {
        assert_eq!(
            offloaded.block_params(i),
            resident.block_params(i),
            "block {i} parameters diverged"
        );
    }
    assert_eq!(
        offloaded.optimizer_updates(),
        6 * cfg.layers,
        "one concurrent update per layer per step"
    );
}

#[test]
fn window_size_does_not_change_results() {
    let cfg = tiny(6);
    let batch = batch_for(&cfg, 101);
    let run = |window: usize| {
        let mut t = HostOffloadTrainer::new(
            cfg,
            4,
            HostOffloadConfig {
                window,
                optimizer_workers: 3,
                adam: adam(),
                ..HostOffloadConfig::default()
            },
        );
        let mut losses = Vec::new();
        for _ in 0..4 {
            losses.push(t.train_step(&batch));
        }
        t.flush();
        let params: Vec<Vec<f32>> = (0..cfg.layers).map(|i| t.block_params(i)).collect();
        (losses, params)
    };
    let w1 = run(1);
    let w3 = run(3);
    let w6 = run(6);
    assert_eq!(w1, w3, "window 1 vs 3");
    assert_eq!(w3, w6, "window 3 vs 6 (fully resident)");
}

#[test]
fn worker_count_does_not_change_results() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 102);
    let run = |workers: usize| {
        let mut t = HostOffloadTrainer::new(
            cfg,
            5,
            HostOffloadConfig {
                window: 2,
                optimizer_workers: workers,
                adam: adam(),
                ..HostOffloadConfig::default()
            },
        );
        for _ in 0..5 {
            t.train_step(&batch);
        }
        t.flush();
        (0..cfg.layers)
            .map(|i| t.block_params(i))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(8), "optimizer concurrency must be invisible");
}

#[test]
fn eval_matches_between_trainers() {
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 103);
    let mut resident = HostResidentTrainer::new(cfg, 6, adam());
    let mut offloaded = HostOffloadTrainer::new(
        cfg,
        6,
        HostOffloadConfig {
            adam: adam(),
            ..HostOffloadConfig::default()
        },
    );
    for _ in 0..3 {
        resident.train_step(&batch);
        offloaded.train_step(&batch);
    }
    let er = resident.eval_loss(&batch);
    let eo = offloaded.eval_loss(&batch);
    assert_eq!(er, eo, "eval losses diverged");
}

#[test]
fn convergence_on_synthetic_language() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 104);
    let mut t = HostOffloadTrainer::new(
        cfg,
        12,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 4,
            adam: AdamParams {
                lr: 5e-3,
                ..AdamParams::default()
            },
            ..HostOffloadConfig::default()
        },
    );
    let initial = t.eval_loss(&batch);
    for _ in 0..30 {
        t.train_step(&batch);
    }
    let fin = t.eval_loss(&batch);
    assert!(
        fin < initial * 0.7,
        "offloaded training failed to learn: {initial} -> {fin}"
    );
}

/// Stress matrix for the overlapped pipeline: every combination of window
/// size, dispatch policy (streaming vs deferred), and engine policy
/// (clip + schedule on/off) must stay bit-identical to resident training
/// after multiple steps. Clipping picks the dispatch policy: without it
/// updates stream mid-backward, with it they are deferred to the end of the
/// step — the results must not care either way.
#[test]
fn pipeline_matrix_stays_bit_identical_to_resident() {
    let cfg = tiny(6);
    let batch = batch_for(&cfg, 105);
    let policy = |on: bool| {
        if on {
            (
                Some(LrSchedule::CosineWithWarmup {
                    peak: 2e-3,
                    floor: 2e-4,
                    warmup: 2,
                    total: 12,
                }),
                Some(0.75),
            )
        } else {
            (None, None)
        }
    };
    for policy_on in [false, true] {
        let (schedule, clip_norm) = policy(policy_on);
        let mut resident = HostResidentTrainer::with_options(
            cfg,
            17,
            EngineOptions {
                adam: adam(),
                schedule,
                clip_norm,
                ..EngineOptions::default()
            },
        );
        let mut reference: Vec<f32> = Vec::new();
        for _ in 0..4 {
            reference.push(resident.train_step(&batch));
        }
        // Against the unclipped reference the deferred path is selected by
        // a within-budget threshold: `clip_scale` is then exactly 1.0 and
        // the gradient bits are never touched.
        let clips: &[Option<f32>] = if policy_on {
            &[clip_norm]
        } else {
            &[None, Some(f32::MAX)]
        };
        for window in [1usize, 2] {
            for &clip_norm in clips {
                let mut t = HostOffloadTrainer::new(
                    cfg,
                    17,
                    HostOffloadConfig {
                        window,
                        optimizer_workers: 3,
                        adam: adam(),
                        schedule,
                        clip_norm,
                        ..HostOffloadConfig::default()
                    },
                );
                let tag = format!("policy={policy_on} window={window} clip={clip_norm:?}");
                for (step, want) in reference.iter().enumerate() {
                    let got = t.train_step(&batch);
                    assert_eq!(got, *want, "loss diverged at step {step} ({tag})");
                }
                t.flush();
                for i in 0..cfg.layers {
                    assert_eq!(
                        t.block_params(i),
                        resident.block_params(i),
                        "block {i} parameters diverged ({tag})"
                    );
                }
            }
        }
    }
}

/// Trace-level evidence that gradient offload left the compute thread's
/// critical path: every `d2h-copy` span must come from a thread that never
/// recorded a `compute` span.
#[test]
fn d2h_copies_run_off_the_compute_thread() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 106);
    let tel = Telemetry::enabled();
    let mut t = HostOffloadTrainer::with_telemetry(
        cfg,
        3,
        HostOffloadConfig {
            adam: adam(),
            ..HostOffloadConfig::default()
        },
        tel.clone(),
    );
    for _ in 0..2 {
        t.train_step(&batch);
    }
    t.flush();
    let spans = tel.spans();
    let compute_threads: HashSet<u64> = spans
        .iter()
        .filter(|s| s.track == "compute")
        .map(|s| s.thread)
        .collect();
    let d2h: Vec<_> = spans.iter().filter(|s| s.track == "d2h-copy").collect();
    assert!(!compute_threads.is_empty(), "compute spans must exist");
    assert_eq!(
        d2h.len(),
        2 * cfg.layers,
        "one gradient offload span per layer per step"
    );
    for s in &d2h {
        assert!(
            !compute_threads.contains(&s.thread),
            "d2h span '{}' ran on a compute thread",
            s.name
        );
    }
}
