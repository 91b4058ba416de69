//! Exact GEMM-call pin for the selectively-batched serve round.
//!
//! `matmul::stats` is process-global, so this file holds exactly one
//! `#[test]`: nothing else in the process may issue a GEMM while it counts.

use stronghold_core::serve::{GenRequest, ServeConfig, ServeEngine};
use stronghold_model::config::tiny;
use stronghold_tensor::matmul::stats;

/// A round stacks every active sequence's pending rows, so each layer's
/// four linears and the tied head are one product each — `4·layers + 1`
/// calls however many slots are active — and only attention scales with
/// `S`: one score and one context product per *sequence* per head per
/// layer, whether the sequence brings one decode token or a whole prompt.
///
/// And a round packs nothing: the engine stores the layer weights and the
/// tied head as serving-form panel images, and each KV cache holds its keys
/// and values in panel order, so no product of a prefill or a decode round
/// packs a `B` float. A prompt's rows attend through the masked triangle of
/// one `[T, T]` product, so the context (`nn`) FLOPs of a `T`-token prefill
/// are `2·T²·dh` per head, not the row-at-a-time `T·(T + 1)·dh`.
#[test]
fn decode_round_gemm_calls_are_independent_of_active_slots() {
    let cfg = tiny(3);
    let dh = cfg.hidden / cfg.heads;
    let prompt = 2;
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
        let attn = (cfg.heads * cfg.layers * s) as u64;
        let linears = 4 * cfg.layers as u64 + 1;
        for round in ["prefill", "decode"] {
            stats::reset();
            assert!(eng.step().is_empty(), "a {round} round finishes nothing");
            let [nn, nt, tn] = stats::snapshot();
            assert_eq!(nt.calls, linears + attn, "S={s} {round}: nt calls");
            assert_eq!(nn.calls, attn, "S={s} {round}: nn calls");
            assert_eq!(tn.calls, 0, "S={s} {round}: serving issues no tn product");
            assert_eq!(nt.packed_b, 0, "S={s} {round}: nt packs nothing");
            assert_eq!(nn.packed_b, 0, "S={s} {round}: nn packs nothing");
            if round == "prefill" {
                let triangle = attn * (2 * prompt * prompt * dh) as u64;
                assert_eq!(nn.flops, triangle, "S={s}: one masked context product");
            }
        }
    }
}
