//! Megatron-style tensor parallelism on the functional substrate.
//!
//! Under tensor parallelism the paper's offloading unit becomes a *sliced
//! layer* (§III-C). This module implements the two canonical slicings and
//! executes the shards on real threads:
//!
//! * [`ColumnParallelLinear`] — output features split across ranks; each
//!   rank computes a disjoint output slice, results concatenate (used for
//!   the QKV and MLP up-projections).
//! * [`RowParallelLinear`] — input features split across ranks; partial
//!   products are all-reduced in fixed rank order (used for the attention
//!   output and MLP down-projections).
//! * [`head_parallel_attention`] — attention heads split across ranks;
//!   head outputs are disjoint, so the sharded result is **bit-identical**
//!   to the unsharded layer.

use crate::attention::Attention;
use crate::linear::Linear;
use crate::tensor::Tensor;

/// Splits a `[out, in]` linear by output features into `ranks` shards.
///
/// # Panics
/// Panics unless `out % ranks == 0`.
pub fn split_column_parallel(l: &Linear, ranks: usize) -> ColumnParallelLinear {
    let out = l.out_features();
    let inf = l.in_features();
    assert_eq!(out % ranks, 0, "out {out} not divisible by ranks {ranks}");
    let per = out / ranks;
    let shards = (0..ranks)
        .map(|r| {
            let w = Tensor::from_vec(
                [per, inf],
                l.weight.data()[r * per * inf..(r + 1) * per * inf].to_vec(),
            );
            let b = Tensor::from_vec([per], l.bias.data()[r * per..(r + 1) * per].to_vec());
            Linear {
                weight: w,
                bias: b,
                panels: None,
            }
        })
        .collect();
    ColumnParallelLinear { shards }
}

/// Splits a `[out, in]` linear by input features into `ranks` shards.
///
/// # Panics
/// Panics unless `in % ranks == 0`.
pub fn split_row_parallel(l: &Linear, ranks: usize) -> RowParallelLinear {
    let out = l.out_features();
    let inf = l.in_features();
    assert_eq!(inf % ranks, 0, "in {inf} not divisible by ranks {ranks}");
    let per = inf / ranks;
    let shards = (0..ranks)
        .map(|r| {
            let mut w = Tensor::zeros([out, per]);
            for o in 0..out {
                let src = &l.weight.data()[o * inf + r * per..o * inf + (r + 1) * per];
                w.data_mut()[o * per..(o + 1) * per].copy_from_slice(src);
            }
            // Bias applies once, on rank 0.
            let b = if r == 0 {
                l.bias.clone()
            } else {
                Tensor::zeros([out])
            };
            Linear {
                weight: w,
                bias: b,
                panels: None,
            }
        })
        .collect();
    RowParallelLinear { shards, out }
}

/// A column-parallel (output-sharded) linear layer.
pub struct ColumnParallelLinear {
    /// Per-rank shards (each `[out/ranks, in]`).
    pub shards: Vec<Linear>,
}

impl ColumnParallelLinear {
    /// Parallel forward: shards compute on scoped threads; outputs
    /// concatenate (the implicit all-gather).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let rows = x.shape().dim(0);
        let per = self.shards[0].out_features();
        let parts: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|s| scope.spawn(move || s.forward(x)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard"))
                .collect()
        });
        let total = per * self.shards.len();
        let mut out = Tensor::zeros([rows, total]);
        for (r, p) in parts.iter().enumerate() {
            for row in 0..rows {
                out.data_mut()[row * total + r * per..row * total + (r + 1) * per]
                    .copy_from_slice(&p.data()[row * per..(row + 1) * per]);
            }
        }
        out
    }

    /// Shard count.
    pub fn ranks(&self) -> usize {
        self.shards.len()
    }

    /// Parameters per shard (the offloading unit size under MP).
    pub fn shard_params(&self) -> usize {
        self.shards[0].param_count()
    }
}

/// A row-parallel (input-sharded) linear layer.
pub struct RowParallelLinear {
    /// Per-rank shards (each `[out, in/ranks]`).
    pub shards: Vec<Linear>,
    out: usize,
}

impl RowParallelLinear {
    /// Parallel forward: each rank consumes its input slice; partials are
    /// all-reduced in fixed rank order (deterministic reduction).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let rows = x.shape().dim(0);
        let ranks = self.shards.len();
        let full_in = x.shape().dim(1);
        let per = full_in / ranks;
        let partials: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(r, s)| {
                    scope.spawn(move || {
                        // Slice this rank's input columns.
                        let mut xr = Tensor::zeros([rows, per]);
                        for row in 0..rows {
                            xr.data_mut()[row * per..(row + 1) * per].copy_from_slice(
                                &x.data()[row * full_in + r * per..row * full_in + (r + 1) * per],
                            );
                        }
                        s.forward(&xr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard"))
                .collect()
        });
        // All-reduce in rank order.
        let mut out = Tensor::zeros([rows, self.out]);
        for p in &partials {
            crate::ops::add_assign(&mut out, p);
        }
        out
    }

    /// Shard count.
    pub fn ranks(&self) -> usize {
        self.shards.len()
    }
}

/// Runs an attention layer with its heads partitioned across `ranks`
/// thread-shards. Head outputs are disjoint slices of the context, so the
/// result is bit-identical to the unsharded forward.
pub fn head_parallel_attention(attn: &Attention, x: &Tensor, ranks: usize) -> Tensor {
    assert_eq!(attn.heads % ranks, 0, "heads not divisible by ranks");
    let t = x.shape().dim(0);
    let h = x.shape().dim(1);
    let dh = h / attn.heads;
    let heads_per = attn.heads / ranks;

    // Shared QKV output (column-parallel in a real deployment; computed
    // once here — the sharding under test is the attention math itself).
    let qkv_out = attn.qkv.forward(x);

    let ctx_parts: Vec<Tensor> = std::thread::scope(|scope| {
        let qkv_ref = &qkv_out;
        let handles: Vec<_> = (0..ranks)
            .map(|r| {
                scope.spawn(move || {
                    let mut ctx = Tensor::zeros([t, heads_per * dh]);
                    for hh in 0..heads_per {
                        let head = r * heads_per + hh;
                        attention_one_head(qkv_ref, t, h, dh, head, hh, &mut ctx);
                    }
                    ctx
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|hd| hd.join().expect("rank"))
            .collect()
    });

    // Concatenate head slices back into [T, H] and apply the (row-parallel
    // in deployment) output projection once.
    let mut ctx = Tensor::zeros([t, h]);
    for (r, part) in ctx_parts.iter().enumerate() {
        let w = heads_per * dh;
        for row in 0..t {
            ctx.data_mut()[row * h + r * w..row * h + (r + 1) * w]
                .copy_from_slice(&part.data()[row * w..(row + 1) * w]);
        }
    }
    attn.proj.forward(&ctx)
}

/// Causal attention for a single head, writing its context slice.
fn attention_one_head(
    qkv_out: &Tensor,
    t: usize,
    h: usize,
    dh: usize,
    head: usize,
    local: usize,
    ctx: &mut Tensor,
) {
    let q_off = head * dh;
    let k_off = h + head * dh;
    let v_off = 2 * h + head * dh;
    let scale = 1.0 / (dh as f32).sqrt();
    let width = ctx.shape().dim(1);
    for i in 0..t {
        let qi = &qkv_out.data()[i * 3 * h + q_off..i * 3 * h + q_off + dh];
        let mut row = vec![f32::NEG_INFINITY; t];
        for (j, rj) in row.iter_mut().enumerate().take(i + 1) {
            let kj = &qkv_out.data()[j * 3 * h + k_off..j * 3 * h + k_off + dh];
            *rj = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
        }
        crate::ops::softmax_row_inplace(&mut row);
        let mut acc = vec![0.0f32; dh];
        for (j, &pj) in row.iter().enumerate().take(i + 1) {
            if pj != 0.0 {
                let vj = &qkv_out.data()[j * 3 * h + v_off..j * 3 * h + v_off + dh];
                for (a, v) in acc.iter_mut().zip(vj) {
                    *a += pj * v;
                }
            }
        }
        ctx.data_mut()[i * width + local * dh..i * width + (local + 1) * dh].copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn column_parallel_is_bit_identical() {
        let mut rng = seeded_rng(90);
        let l = Linear::new(12, 8, &mut rng);
        let x = normal([5, 8], 1.0, &mut rng);
        let full = l.forward(&x);
        for ranks in [1, 2, 3, 4, 6] {
            let cp = split_column_parallel(&l, ranks);
            assert_eq!(cp.forward(&x), full, "ranks {ranks}");
            assert_eq!(cp.ranks(), ranks);
        }
    }

    #[test]
    fn row_parallel_matches_within_tolerance() {
        let mut rng = seeded_rng(91);
        let l = Linear::new(6, 12, &mut rng);
        let x = normal([4, 12], 1.0, &mut rng);
        let full = l.forward(&x);
        for ranks in [1, 2, 3, 4] {
            let rp = split_row_parallel(&l, ranks);
            let got = rp.forward(&x);
            assert!(
                got.max_abs_diff(&full) < 1e-5,
                "ranks {ranks}: diff {}",
                got.max_abs_diff(&full)
            );
        }
    }

    #[test]
    fn row_parallel_rank1_is_exact() {
        let mut rng = seeded_rng(92);
        let l = Linear::new(5, 10, &mut rng);
        let x = normal([3, 10], 1.0, &mut rng);
        let rp = split_row_parallel(&l, 1);
        assert_eq!(rp.forward(&x), l.forward(&x));
    }

    #[test]
    fn head_parallel_attention_bit_identical() {
        let mut rng = seeded_rng(93);
        let attn = Attention::new(16, 4, &mut rng);
        let x = normal([6, 16], 1.0, &mut rng);
        let (full, _) = attn.forward(&x);
        for ranks in [1, 2, 4] {
            let sharded = head_parallel_attention(&attn, &x, ranks);
            assert_eq!(sharded, full, "ranks {ranks}");
        }
    }

    #[test]
    fn shard_param_counts_divide() {
        let mut rng = seeded_rng(94);
        let l = Linear::new(12, 8, &mut rng);
        let cp = split_column_parallel(&l, 4);
        // weights split exactly; biases split exactly.
        assert_eq!(cp.shard_params() * 4, l.param_count());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_split_rejected() {
        let mut rng = seeded_rng(95);
        let l = Linear::new(10, 8, &mut rng);
        let _ = split_column_parallel(&l, 3);
    }
}
