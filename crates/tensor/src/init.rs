//! Seeded parameter initialization.
//!
//! All initializers take an explicit [`ChaCha8Rng`] so model construction is
//! bit-reproducible across runs and thread counts — a prerequisite for the
//! exact-equivalence tests between offloaded and resident training.
//!
//! A large [`normal`] draw runs on the kernel pool. ChaCha8 is a counter
//! mode cipher, so any word of its keystream can be reached by a seek, and
//! a Box–Muller pair always consumes the same four 32-bit words: a
//! task that seeks a clone of the generator to its first pair's words
//! draws exactly the values the sequential loop would, and the caller's
//! generator is left where that loop would leave it.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::pool;
use crate::shape::Shape;
use crate::simd::SendPtr;
use crate::tensor::Tensor;

/// Smallest tensor, in elements, whose [`normal`] draw fans out over the
/// kernel pool. A draw costs 32–48 ns per element (the f64 `ln`, `sqrt`,
/// `cos` and `sin` dominate), and a fork-join costs the caller about 1 µs
/// while the pool's helper is polling and about 45 µs once it has parked,
/// so the split pays from about a thousand elements; the bound sits well
/// above that, and above every tensor of the small test models, whose
/// construction therefore starts no pool helper.
const PAR_MIN_ELEMS: usize = 1 << 14;

/// Box–Muller pairs per parallel task: the smallest draw that fans out
/// makes four tasks.
const TASK_PAIRS: usize = PAR_MIN_ELEMS / 2 / 4;

/// Keystream words one Box–Muller pair consumes: two `f64` uniforms from
/// `gen_range`, one `next_u64` (two 32-bit words) each, with no rejection.
const WORDS_PER_PAIR: u128 = 4;

/// Creates the deterministic RNG used throughout the workspace.
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Normal(0, std²) initialization (Box–Muller on uniform draws so the result
/// does not depend on `rand`'s distribution internals).
///
/// From 2^14 elements up the pairs are drawn in tasks on the kernel
/// pool, each from its own seeked clone of `rng`; the values and the state
/// `rng` is left in are bit-identical to the sequential draw at any thread
/// count.
pub fn normal(shape: impl Into<Shape>, std: f32, rng: &mut ChaCha8Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    let mut data = vec![0.0f32; n];
    if n >= PAR_MIN_ELEMS && pool::current_num_threads() > 1 {
        let start = rng.get_word_pos();
        let pairs = n.div_ceil(2);
        let base = rng.clone();
        let out = SendPtr(data.as_mut_ptr());
        pool::for_each(0..pairs.div_ceil(TASK_PAIRS), |t| {
            let first = t * TASK_PAIRS;
            let (lo, hi) = (2 * first, (2 * (first + TASK_PAIRS)).min(n));
            let mut rng = base.clone();
            rng.set_word_pos(start + WORDS_PER_PAIR * first as u128);
            // SAFETY: task `t` owns elements `lo..hi` of `data` alone, and
            // `data` outlives the dispatch.
            let chunk = unsafe { std::slice::from_raw_parts_mut(out.get().add(lo), hi - lo) };
            fill_normal(chunk, std, &mut rng);
        });
        rng.set_word_pos(start + WORDS_PER_PAIR * pairs as u128);
    } else {
        fill_normal(&mut data, std, rng);
    }
    Tensor::from_vec(shape, data)
}

/// Fills `out` pair by pair from `rng`; an odd tail draws a whole pair and
/// keeps its first value.
fn fill_normal(out: &mut [f32], std: f32, rng: &mut ChaCha8Rng) {
    for pair in out.chunks_mut(2) {
        // Box–Muller transform: two uniforms -> two independent normals.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        pair[0] = (r * theta.cos()) as f32 * std;
        if let Some(second) = pair.get_mut(1) {
            *second = (r * theta.sin()) as f32 * std;
        }
    }
}

/// GPT-2 style scaled-normal init (std = 0.02, residual projections scaled by
/// 1/sqrt(2·n_layers) by the caller).
pub fn gpt2_normal(shape: impl Into<Shape>, rng: &mut ChaCha8Rng) -> Tensor {
    normal(shape, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The sequential loop `normal` ran before it fanned out, kept verbatim
    /// as the oracle for the chunked draw.
    fn normal_sequential(n: usize, std: f32, rng: &mut ChaCha8Rng) -> Vec<f32> {
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller transform: two uniforms -> two independent normals.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push((r * theta.cos()) as f32 * std);
            if data.len() < n {
                data.push((r * theta.sin()) as f32 * std);
            }
        }
        data
    }

    /// Lengths where a task split could go wrong: empty, one, odd, and ±1
    /// around the fan-out bound and around task boundaries.
    const EDGE_LENGTHS: [usize; 12] = [
        0,
        1,
        7,
        PAR_MIN_ELEMS - 1,
        PAR_MIN_ELEMS,
        PAR_MIN_ELEMS + 1,
        PAR_MIN_ELEMS + 2 * TASK_PAIRS - 1,
        PAR_MIN_ELEMS + 2 * TASK_PAIRS,
        PAR_MIN_ELEMS + 2 * TASK_PAIRS + 1,
        3 * PAR_MIN_ELEMS - 1,
        3 * PAR_MIN_ELEMS,
        3 * PAR_MIN_ELEMS + 1,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_normal_matches_the_sequential_loop(
            edge in 0usize..EDGE_LENGTHS.len() + 4,
            random_len in 0usize..3 * PAR_MIN_ELEMS,
            skip in 0u64..16,
            threads in 0usize..3,
            seed in 0u64..1000,
        ) {
            // A few cases draw an arbitrary length instead of an edge.
            let n = EDGE_LENGTHS.get(edge).copied().unwrap_or(random_len);
            let threads = [1, 2, 4][threads];
            let mut want_rng = seeded_rng(seed);
            want_rng.set_word_pos(u128::from(skip));
            let mut got_rng = want_rng.clone();
            let want = normal_sequential(n, 0.7, &mut want_rng);
            let got = pool::with_threads(threads, || normal([n], 0.7, &mut got_rng));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.data()), bits(&want), "n {} threads {}", n, threads);
            prop_assert_eq!(got_rng.get_word_pos(), want_rng.get_word_pos());
            prop_assert_eq!(got_rng.next_u32(), want_rng.next_u32());
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = normal([128], 1.0, &mut seeded_rng(7));
        let b = normal([128], 1.0, &mut seeded_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal([128], 1.0, &mut seeded_rng(1));
        let b = normal([128], 1.0, &mut seeded_rng(2));
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let t = normal([40_000], 0.5, &mut seeded_rng(3));
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn odd_length_normal() {
        let t = normal([7], 1.0, &mut seeded_rng(5));
        assert_eq!(t.numel(), 7);
        assert!(t.all_finite());
    }
}
