//! Exact GEMM-call pin for the selectively-batched serve round.
//!
//! `matmul::stats` is process-global, so this file holds exactly one
//! `#[test]`: nothing else in the process may issue a GEMM while it counts.

use stronghold_core::serve::{GenRequest, ServeConfig, ServeEngine};
use stronghold_model::config::tiny;
use stronghold_tensor::matmul::stats;

/// A decode-only round stacks one row per active sequence, so each layer's
/// four linears and the tied head are one product each — `4·layers + 1`
/// calls however many slots are active — and only attention (one score and
/// one context product per sequence per head per layer) scales with `S`.
#[test]
fn decode_round_gemm_calls_are_independent_of_active_slots() {
    let cfg = tiny(3);
    for s in [1usize, 2, 4] {
        let mut eng = ServeEngine::new(
            cfg,
            7,
            ServeConfig {
                slots: 4,
                ..ServeConfig::default()
            },
        );
        for i in 0..s as u64 {
            eng.submit(GenRequest {
                id: i,
                prompt: vec![1 + i as u32, 9],
                max_new_tokens: 4,
                seed: i,
            });
        }
        assert!(eng.step().is_empty(), "prefill round finishes nothing");
        stats::reset();
        assert!(eng.step().is_empty(), "decode round finishes nothing");
        let [nn, nt, tn] = stats::snapshot();
        let attn = (cfg.heads * cfg.layers * s) as u64;
        assert_eq!(
            nt.calls,
            4 * cfg.layers as u64 + 1 + attn,
            "S={s}: nt calls"
        );
        assert_eq!(nn.calls, attn, "S={s}: nn calls");
        assert_eq!(tn.calls, 0, "S={s}: serving issues no tn product");
    }
}
