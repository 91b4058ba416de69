//! Seeded parameter initialization.
//!
//! All initializers take an explicit [`ChaCha8Rng`] so model construction is
//! bit-reproducible across runs and thread counts — a prerequisite for the
//! exact-equivalence tests between offloaded and resident training.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Creates the deterministic RNG used throughout the workspace.
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Normal(0, std²) initialization (Box–Muller on uniform draws so the result
/// does not depend on `rand`'s distribution internals).
pub fn normal(shape: impl Into<Shape>, std: f32, rng: &mut ChaCha8Rng) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
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
    Tensor::from_vec(shape, data)
}

/// GPT-2 style scaled-normal init (std = 0.02, residual projections scaled by
/// 1/sqrt(2·n_layers) by the caller).
pub fn gpt2_normal(shape: impl Into<Shape>, rng: &mut ChaCha8Rng) -> Tensor {
    normal(shape, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

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
