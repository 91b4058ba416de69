//! Exact pass count of half-precision conversion on the training step.
//!
//! `ops::stats` is process-global, so this file holds exactly one `#[test]`:
//! nothing else in the process may convert while it counts.

use stronghold_core::host::{HostOffloadConfig, HostOffloadTrainer};
use stronghold_model::config::tiny;
use stronghold_model::data::SyntheticCorpus;
use stronghold_tensor::ops::stats;
use stronghold_tensor::Precision;

/// A bf16 step rounds each parameter once per fetch (`2n − m` fetches: FP
/// order plus the BP re-fetch of the layers that slid out of the window) and
/// each gradient once per layer, all through the fused round-copy — so `k`
/// steps round exactly `k·((2n − m) + n)·S` elements and never run a
/// pack / unpack convert. An F32 step never rounds.
#[test]
fn a_bf16_step_rounds_each_streamed_element_exactly_once() {
    let (n, k) = (4usize, 3usize);
    let cfg = tiny(n);
    let batch = SyntheticCorpus::new(cfg.vocab, 1).next_batch(2, cfg.seq - 1);
    let converts = [
        stats::CVT_F32_BF16,
        stats::CVT_BF16_F32,
        stats::CVT_F32_F16,
        stats::CVT_F16_F32,
    ];
    for m in [1usize, 2, n] {
        for precision in [Precision::Bf16, Precision::F32] {
            let mut trainer = HostOffloadTrainer::new(
                cfg,
                7,
                HostOffloadConfig {
                    window: m,
                    precision,
                    ..HostOffloadConfig::default()
                },
            );
            let s = trainer.block_params(0).len() as u64;
            stats::reset();
            for _ in 0..k {
                trainer.train_step(&batch);
            }
            trainer.flush();
            let snap = stats::snapshot();
            let want = match precision {
                Precision::Bf16 => (k * ((2 * n - m) + n)) as u64 * s,
                _ => 0,
            };
            assert_eq!(
                snap[stats::ROUND_BF16].flops,
                want,
                "{precision:?}, m = {m}"
            );
            assert_eq!(snap[stats::ROUND_F16].calls, 0, "{precision:?}, m = {m}");
            if precision == Precision::F32 {
                assert_eq!(snap[stats::ROUND_BF16].calls, 0, "m = {m}");
            }
            for op in converts {
                assert_eq!(
                    snap[op].calls,
                    0,
                    "{}: {precision:?}, m = {m}",
                    stats::NAMES[op]
                );
            }
        }
    }
}
