//! Thread-birth pin for the step paths.
//!
//! `telemetry::thread_spawns` is process-global, so this file holds exactly
//! one `#[test]`: nothing else in the process may start a thread while it
//! counts.

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, HostOffloadConfig, HostOffloadTrainer,
};
use stronghold_core::serve::{GenRequest, ServeConfig, ServeEngine};
use stronghold_core::telemetry::thread_spawns;
use stronghold_integration_tests::batch_for;
use stronghold_model::config::tiny;
use stronghold_tensor::Precision;

/// Threads started while `work` runs.
fn spawns_during(work: impl FnOnce()) -> u64 {
    let before = thread_spawns();
    work();
    thread_spawns() - before
}

/// Every pipeline thread of a trainer or a serving engine is started with
/// it and lives as long as it does: constructing one starts a fixed number
/// (the prefetcher, the D2H engine, the optimizer actors; a serving engine
/// only its prefetcher), and once warm a training step
/// (f32, bf16, spilled, clipped) and a serving round start no thread at
/// all. The
/// data-parallel trainer still forks one thread per replica per step
/// (ROADMAP item 11(c)); that count is pinned too, so it cannot grow.
#[test]
fn warm_steps_and_rounds_start_no_thread() {
    let cfg = tiny(4);
    let batch = batch_for(&cfg, 61);
    let host = HostOffloadConfig {
        window: 2,
        optimizer_workers: 2,
        adam: AdamParams {
            lr: 1e-3,
            ..AdamParams::default()
        },
        ..HostOffloadConfig::default()
    };
    // Threads each construction starts: prefetch + d2h + 2 optimizer
    // actors. A spilled trainer starts no more: the prefetcher reads its
    // spilled layers off the swap file itself.
    let trainers = [
        ("f32", 4, host),
        (
            "bf16",
            4,
            HostOffloadConfig {
                precision: Precision::Bf16,
                ..host
            },
        ),
        (
            "spilled",
            4,
            HostOffloadConfig {
                host_capacity: Some(0),
                ..host
            },
        ),
        (
            "clipped",
            4,
            HostOffloadConfig {
                clip_norm: Some(f32::MAX),
                ..host
            },
        ),
    ];
    for (tag, born, hocfg) in trainers {
        let mut t = None;
        let started = spawns_during(|| t = Some(HostOffloadTrainer::new(cfg, 7, hocfg)));
        assert_eq!(started, born, "{tag}: threads started by construction");
        let mut t = t.expect("constructed");
        for _ in 0..2 {
            t.train_step(&batch);
        }
        let warm = spawns_during(|| {
            for _ in 0..3 {
                t.train_step(&batch);
            }
            t.flush();
        });
        assert_eq!(warm, 0, "{tag}: threads started by 3 warm training steps");
    }

    let mut eng = None;
    let started = spawns_during(|| {
        eng = Some(ServeEngine::new(
            cfg,
            7,
            ServeConfig {
                slots: 2,
                ..ServeConfig::default()
            },
        ))
    });
    assert_eq!(
        started, 1,
        "threads started by constructing a serving engine"
    );
    let mut eng = eng.expect("constructed");
    for id in 0..3 {
        eng.submit(GenRequest {
            id,
            prompt: vec![1 + id as u32, 5, 9],
            max_new_tokens: 6,
            seed: id,
        });
    }
    assert!(eng.step().is_empty(), "the warm-up round finishes nothing");
    let rounds = spawns_during(|| {
        for _ in 0..3 {
            assert!(eng.step().is_empty());
        }
    });
    assert_eq!(rounds, 0, "threads started by 3 warm serving rounds");
    drop(eng);

    let replicas = 2;
    let mut dp = DataParallelTrainer::new(
        cfg.with_batch(4),
        7,
        DataParallelConfig {
            replicas,
            host,
            ..DataParallelConfig::default()
        },
    );
    let global = batch_for(&cfg.with_batch(4), 62);
    dp.train_step(&global);
    let steps = 3;
    let forked = spawns_during(|| {
        for _ in 0..steps {
            dp.train_step(&global);
        }
        dp.flush();
    });
    assert_eq!(
        forked,
        steps * replicas as u64,
        "a data-parallel step forks exactly one thread per replica"
    );
}
