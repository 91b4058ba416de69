//! The gradient accumulator ring: the windowed trainer holds `1 +
//! offload_workers` block-sized gradient accumulators at any depth (pinned
//! through the `grad.accumulators` gauge, including live offload-worker
//! resizes), and the ring plus the write-once fold leaf keep it bit-equal to
//! the resident trainer across batch × compute × offload workers × clipping.

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    EngineOptions, HostOffloadConfig, HostOffloadTrainer, HostResidentTrainer, Tuning,
};
use stronghold_core::telemetry::Telemetry;
use stronghold_model::config::tiny;
use stronghold_model::data::SyntheticCorpus;

fn adam() -> AdamParams {
    AdamParams {
        lr: 2e-3,
        ..AdamParams::default()
    }
}

fn assert_same_params(t: &HostOffloadTrainer, resident: &HostResidentTrainer, tag: &str) {
    t.flush();
    for i in 0..t.tier_plan().tiers().len() {
        assert_eq!(
            t.block_params(i),
            resident.block_params(i),
            "{tag}: block {i} parameters diverged"
        );
    }
}

/// The ring's size is `1 + offload_workers`, whatever the depth: at 4 and 8
/// layers the gauge peaks at exactly `1 + max(offload_workers)` over a run
/// whose offload engine is widened and narrowed mid-run (a trainer with one
/// accumulator per layer would read `layers`), and training stays bit-equal
/// to the resident trainer.
#[test]
fn accumulator_ring_peaks_at_one_plus_max_offload_workers() {
    for layers in [4, 8] {
        let cfg = tiny(layers);
        let batch = SyntheticCorpus::new(cfg.vocab, 120).next_batch(3, cfg.seq - 1);
        let mut resident = HostResidentTrainer::new(cfg, 41, adam());
        let tel = Telemetry::enabled();
        let mut t = HostOffloadTrainer::with_telemetry(
            cfg,
            41,
            HostOffloadConfig {
                window: 2,
                optimizer_workers: 2,
                adam: adam(),
                ..HostOffloadConfig::default()
            },
            tel.clone(),
        );
        let ring = tel.gauge("grad.accumulators");
        // Offload workers in force for each pair of steps.
        for (phase, ow) in [1usize, 3, 2].into_iter().enumerate() {
            t.force_tuning(Tuning {
                window: 2,
                offload_workers: ow,
                compute_workers: 1,
                optimizer_workers: 2,
                spill_workers: 0,
            });
            for step in 0..2 {
                let tag = format!("{layers} layers, phase {phase}, step {step}");
                assert_eq!(
                    resident.train_step(&batch),
                    t.train_step(&batch),
                    "{tag}: loss"
                );
                assert_eq!(ring.get(), 1 + ow as i64, "{tag}: ring size");
            }
        }
        assert_eq!(ring.peak(), 1 + 3, "{layers} layers: ring peak");
        assert_same_params(&t, &resident, &format!("{layers} layers"));
    }
}

/// Offloaded ≡ resident through the ring and the write-once leaf at a batch
/// of one (the ring accumulator is the fold root), three (an uneven tree)
/// and four, with one and two compute workers (the parallel leaves move
/// into the tree), one and two offload workers (a ring of two and of three),
/// and clipping off (streamed dispatch) and on (deferred).
#[test]
fn ring_matrix_is_bit_identical_to_resident() {
    let cfg = tiny(3);
    for b in [1, 3, 4] {
        let batch = SyntheticCorpus::new(cfg.vocab, 121).next_batch(b, cfg.seq - 1);
        for clip_norm in [None, Some(0.05)] {
            let mut resident = HostResidentTrainer::with_options(
                cfg,
                43,
                EngineOptions {
                    adam: adam(),
                    clip_norm,
                    ..EngineOptions::default()
                },
            );
            let losses: Vec<f32> = (0..3).map(|_| resident.train_step(&batch)).collect();
            for compute_workers in [1, 2] {
                for offload_workers in [1, 2] {
                    let tag = format!(
                        "b={b} clip={clip_norm:?} cw={compute_workers} ow={offload_workers}"
                    );
                    let mut t = HostOffloadTrainer::new(
                        cfg,
                        43,
                        HostOffloadConfig {
                            window: 2,
                            compute_workers,
                            offload_workers,
                            clip_norm,
                            adam: adam(),
                            ..HostOffloadConfig::default()
                        },
                    );
                    for (step, want) in losses.iter().enumerate() {
                        assert_eq!(t.train_step(&batch), *want, "{tag}: loss at step {step}");
                    }
                    assert_same_params(&t, &resident, &tag);
                }
            }
        }
    }
}
