//! Adam optimizer (Kingma & Ba) over flat parameter vectors.
//!
//! Each DNN layer owns one [`AdamState`]; the concurrent optimizer pool
//! (§III-E1) runs many of these in parallel, one per layer, which is safe and
//! exactly order-independent because states never alias across layers.

use serde::{Deserialize, Serialize};

/// Adam hyper-parameters (paper §V-B: hyper-parameters follow Megatron-LM /
/// ZeRO-Offload defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style).
    pub weight_decay: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams {
            lr: 1.5e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }
}

/// Optimizer state for one parameter group (one layer).
#[derive(Clone, Debug)]
pub struct AdamState {
    /// First moment (momentum).
    pub m: Vec<f32>,
    /// Second moment (variance).
    pub v: Vec<f32>,
    /// Step counter.
    pub t: u64,
}

impl AdamState {
    /// Zero state for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Bytes of optimizer state held (8 per parameter, as the paper's
    /// accounting assumes).
    pub fn nbytes(&self) -> usize {
        (self.m.len() + self.v.len()) * 4
    }

    /// Applies one Adam step: updates `params` in place from `grads`.
    ///
    /// # Panics
    /// Panics if lengths mismatch.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32], hp: &AdamParams) {
        assert_eq!(params.len(), grads.len(), "adam: params vs grads");
        assert_eq!(params.len(), self.m.len(), "adam: params vs state");
        self.t += 1;
        fused_step(params, grads, &mut self.m, &mut self.v, self.t, hp);
    }
}

/// Step `t` (1-based) of AdamW over matching slices of parameters,
/// gradients and moments — the one formula behind [`AdamState::step`] and
/// the spilled layer's chunked update. The bias-corrected learning rate is
/// computed in `f64` (as the scalar implementation always did); the
/// per-element moment and parameter updates run on the vectorized fused
/// kernel, whose per-element result does not depend on where a slice
/// starts as long as it starts on a multiple of the vector width.
pub(crate) fn fused_step(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    t: u64,
    hp: &AdamParams,
) {
    let t = t as f64;
    let bc1 = 1.0 - (hp.beta1 as f64).powf(t);
    let bc2 = 1.0 - (hp.beta2 as f64).powf(t);
    let lr_t = hp.lr as f64 * bc2.sqrt() / bc1;
    stronghold_tensor::ops::adam_fused(
        params,
        grads,
        m,
        v,
        hp.beta1,
        hp.beta2,
        lr_t as f32,
        hp.lr * hp.weight_decay,
        hp.eps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp() -> AdamParams {
        AdamParams {
            weight_decay: 0.0,
            ..AdamParams::default()
        }
    }

    #[test]
    fn descends_a_quadratic() {
        // Minimize f(x) = x² starting at 3.
        let mut x = vec![3.0f32];
        let mut st = AdamState::new(1);
        let hp = AdamParams { lr: 0.1, ..hp() };
        for _ in 0..300 {
            let g = vec![2.0 * x[0]];
            st.step(&mut x, &g, &hp);
        }
        assert!(x[0].abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias-corrected first step moves by ~lr regardless of |g|.
        for g0 in [0.001f32, 1.0, 1000.0] {
            let mut x = vec![0.0f32];
            let mut st = AdamState::new(1);
            let p = AdamParams { lr: 0.01, ..hp() };
            st.step(&mut x, &[g0], &p);
            assert!((x[0].abs() - 0.01).abs() < 1e-3, "g0 {g0} -> step {}", x[0]);
        }
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut x = vec![1.0f32];
        let mut st = AdamState::new(1);
        let p = AdamParams {
            lr: 0.0,
            weight_decay: 0.0,
            ..AdamParams::default()
        };
        let mut x2 = x.clone();
        let mut st2 = AdamState::new(1);
        let p2 = AdamParams {
            lr: 0.1,
            weight_decay: 0.5,
            ..AdamParams::default()
        };
        st.step(&mut x, &[0.0], &p);
        st2.step(&mut x2, &[0.0], &p2);
        assert_eq!(x[0], 1.0);
        assert!(x2[0] < 1.0);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut x: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
            let mut st = AdamState::new(64);
            for k in 0..10 {
                let g: Vec<f32> = x.iter().map(|v| v * 0.1 + k as f32 * 0.01).collect();
                st.step(&mut x, &g, &AdamParams::default());
            }
            x
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "params vs grads")]
    fn length_mismatch_panics() {
        let mut st = AdamState::new(2);
        let mut p = vec![0.0; 2];
        st.step(&mut p, &[1.0], &AdamParams::default());
    }

    #[test]
    fn state_bytes() {
        let st = AdamState::new(100);
        assert_eq!(st.nbytes(), 800);
    }
}
