//! The gradient accumulator ring: the windowed trainer holds two
//! block-sized gradient accumulators at any depth when its sink delivers
//! each gradient at once, and a closed form of its config otherwise — a
//! parking sink's bucket on top, every layer's with clipping on (pinned
//! through the `grad.accumulators` gauge) — and the ring plus the
//! write-once fold leaf keep it bit-equal to the resident trainer across
//! batch × clipping.

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{
    DataParallelConfig, DataParallelTrainer, EngineOptions, HostOffloadConfig, HostOffloadTrainer,
    HostResidentTrainer,
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

/// The ring holds two accumulators, whatever the depth: at 4 and 8 layers
/// the gauge and its peak read exactly 2 (a trainer with one accumulator
/// per layer would read `layers`), and training stays bit-equal to the
/// resident trainer.
#[test]
fn accumulator_ring_holds_two_at_any_depth() {
    for layers in [4, 8] {
        let cfg = tiny(layers);
        let batch = SyntheticCorpus::new(cfg.vocab, 120).next_batch(3, cfg.seq - 1);
        let tag = format!("{layers} layers");
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
        for step in 0..2 {
            assert_eq!(
                resident.train_step(&batch),
                t.train_step(&batch),
                "{tag}: loss at step {step}"
            );
        }
        let ring = tel.gauge("grad.accumulators");
        assert_eq!(ring.get(), 2, "{tag}: ring size");
        assert_eq!(ring.peak(), 2, "{tag}: ring peak");
        assert_same_params(&t, &resident, &tag);
    }
}

/// The ring is the only gradient back-pressure and its size is fixed by
/// the config: 2 when the sink delivers each gradient at once;
/// `2 + max(optimizer_workers, parked)` on a data-parallel rank, whose
/// sink parks a bucket of `parked` layers; `max(2, layers)` with clipping
/// on, which holds every gradient until the step's norm is known. The
/// gauge and its peak read the closed form after two steps of each.
#[test]
fn accumulator_ring_is_a_closed_form_of_the_config() {
    let cfg = tiny(4);
    let layer_bytes = cfg.block_params() as usize * 4;
    let batch = SyntheticCorpus::new(cfg.vocab, 122).next_batch(4, cfg.seq - 1);
    let host = |optimizer_workers, clip_norm| HostOffloadConfig {
        window: 2,
        optimizer_workers,
        clip_norm,
        adam: adam(),
        ..HostOffloadConfig::default()
    };
    let ring = |tel: &Telemetry| {
        let ring = tel.gauge("grad.accumulators");
        (ring.get(), ring.peak())
    };
    for (layers, clip_norm, want) in [(4, None, 2), (4, Some(f32::MAX), 4), (8, Some(0.05), 8)] {
        let cfg = tiny(layers);
        let tel = Telemetry::enabled();
        let mut t = HostOffloadTrainer::with_telemetry(cfg, 44, host(2, clip_norm), tel.clone());
        for _ in 0..2 {
            t.train_step(&batch);
        }
        assert_eq!(
            ring(&tel),
            (want, want),
            "{layers} layers, clip {clip_norm:?}"
        );
    }
    for (optimizer_workers, bucket_bytes, clip_norm, want) in [
        (2, layer_bytes, None, 2 + 2),
        (1, layer_bytes, None, 2 + 1),
        (2, usize::MAX, None, 2 + 4),
        (2, layer_bytes, Some(f32::MAX), 4),
    ] {
        let tel = Telemetry::enabled();
        let dp = DataParallelConfig {
            replicas: 2,
            bucket_bytes,
            host: host(optimizer_workers, clip_norm),
        };
        let mut t = DataParallelTrainer::with_telemetry(cfg, 44, dp, tel.clone());
        for _ in 0..2 {
            t.train_step(&batch);
        }
        let tag = format!("rank of {optimizer_workers} actors, bucket {bucket_bytes} B");
        assert_eq!(ring(&tel), (want, want), "{tag}, clip {clip_norm:?}");
    }
}

/// Offloaded ≡ resident through the ring and the write-once leaf at a batch
/// of one (the ring accumulator is the fold root), three (an uneven tree)
/// and four, with clipping off (streamed dispatch) and on (held to the
/// step's end).
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
            let tag = format!("b={b} clip={clip_norm:?}");
            let mut t = HostOffloadTrainer::new(
                cfg,
                43,
                HostOffloadConfig {
                    window: 2,
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
