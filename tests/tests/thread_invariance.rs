//! Bitwise thread-count invariance at the shapes the runtime issues.
//!
//! The kernels' own unit tests pin the contract at shapes chosen to cross
//! tile boundaries; these pin it where a training step actually lives —
//! `M = seq − 1 = 127` against the block's four linear shapes (one M tile,
//! fanned out over panel groups), the per-head attention products, and the
//! head fan-out of `Attention` / `Block` at hidden 256 with 8 heads — under
//! fork-join widths of 1, 2 and 8.

use stronghold_model::block::Block;
use stronghold_tensor::attention::Attention;
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use stronghold_tensor::pool::with_threads;
use stronghold_tensor::Tensor;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `run` gives the same bits at every width.
fn assert_width_invariant(what: &str, run: impl Fn() -> Vec<Vec<u32>>) {
    let base = with_threads(WIDTHS[0], &run);
    for threads in &WIDTHS[1..] {
        assert!(
            with_threads(*threads, &run) == base,
            "{what}: bits differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn gemm_bits_at_runtime_shapes() {
    let mut rng = seeded_rng(170);
    let m = 127;
    // The block's linears (qkv, proj, fc1, fc2), then one head's Q·Kᵀ and P·V.
    let shapes = [
        (m, 256, 768),
        (m, 256, 256),
        (m, 256, 1024),
        (m, 1024, 256),
        (m, 32, m),
        (m, m, 32),
    ];
    for (m, k, n) in shapes {
        let a = normal([m, k], 1.0, &mut rng);
        let b = normal([k, n], 1.0, &mut rng);
        let bt = normal([n, k], 1.0, &mut rng);
        let at = normal([k, m], 1.0, &mut rng);
        assert_width_invariant(&format!("gemm {m}x{k}x{n}"), || {
            vec![
                bits(&matmul(&a, &b)),
                bits(&matmul_nt(&a, &bt)),
                bits(&matmul_tn(&at, &b)),
            ]
        });
    }
}

#[test]
fn attention_bits_across_head_fan_out() {
    let mut rng = seeded_rng(171);
    let attn = Attention::new(256, 8, &mut rng);
    for t in [127, 37] {
        let x = normal([t, 256], 1.0, &mut rng);
        let dy = normal([t, 256], 1.0, &mut rng);
        assert_width_invariant(&format!("attention T={t}"), || {
            let (y, cache) = attn.forward(&x);
            let mut grads = attn.zero_grads();
            let dx = attn.backward(&dy, &x, &cache, &mut grads);
            let mut out = vec![bits(&y), bits(&cache.qkv_out), bits(&cache.ctx), bits(&dx)];
            out.extend(cache.probs.iter().map(bits));
            for g in [&grads.qkv, &grads.proj] {
                out.push(bits(&g.weight));
                out.push(bits(&g.bias));
            }
            out
        });
    }
}

#[test]
fn block_bits_across_thread_counts() {
    let mut rng = seeded_rng(172);
    let block = Block::new(256, 8, &mut rng);
    for t in [127, 37] {
        let x = normal([t, 256], 1.0, &mut rng);
        let dy = normal([t, 256], 1.0, &mut rng);
        assert_width_invariant(&format!("block T={t}"), || {
            let (y, cache) = block.forward(&x);
            let mut grads = block.zero_grads();
            let dx = block.backward(&dy, &x, &cache, &mut grads);
            let flat = grads.flatten();
            vec![
                bits(&y),
                bits(&dx),
                flat.iter().map(|v| v.to_bits()).collect(),
            ]
        });
    }
}
