//! Fully-connected (linear) layer with explicit forward/backward.

use rand_chacha::ChaCha8Rng;

use crate::init;
use crate::matmul::{
    matmul_into, matmul_nt_into, matmul_nt_stable, matmul_packed, matmul_tn_acc, matmul_tn_leaf,
    PackedNt,
};
use crate::ops::{add_bias, bias_grad_acc, scale_from_zero_};
use crate::scratch;
use crate::tensor::Tensor;

/// A linear layer `y = x · Wᵀ + b` with `W: [out, in]`, `b: [out]`.
///
/// A layer whose weight will never change again can be turned into its
/// *serving form* ([`Linear::into_panels`]): the weight is then held as the
/// GEMM engine's panel image, so [`Linear::forward_stable_into`] packs
/// nothing. The serving form runs that one entry only; training entries
/// need the row-major `weight`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, one row per output feature (empty in serving form).
    pub weight: Tensor,
    /// Bias vector.
    pub bias: Tensor,
    /// The weight in serving form.
    panels: Option<PackedNt>,
}

/// Gradients of a [`Linear`] layer.
#[derive(Clone, Debug)]
pub struct LinearGrads {
    /// Gradient of the weight.
    pub weight: Tensor,
    /// Gradient of the bias.
    pub bias: Tensor,
}

/// How a backward pass writes its parameter gradients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GradWrite {
    /// `g += ∂` — add into whatever the buffer holds.
    Accumulate,
    /// `g = 0 + s·(0 + ∂)` — a gradient-fold leaf: exactly the bits zeroing
    /// `g`, accumulating and then `g = 0.0 + s·g` leave, without reading
    /// `g`'s prior contents. Weight gradients are written by the `dW`
    /// product itself ([`matmul_tn_leaf`]); the small vectors are zeroed,
    /// accumulated and scaled in place ([`GradWrite::begin`] /
    /// [`GradWrite::finish`]).
    Leaf(f32),
}

impl GradWrite {
    /// Readies a gradient that only has an accumulating kernel: zeroes it
    /// in leaf mode.
    pub fn begin(self, g: &mut Tensor) {
        if let GradWrite::Leaf(_) = self {
            g.zero_();
        }
    }

    /// Completes a gradient readied by [`GradWrite::begin`]: `g = 0 + s·g`
    /// in leaf mode.
    pub fn finish(self, g: &mut Tensor) {
        if let GradWrite::Leaf(s) = self {
            scale_from_zero_(g, s);
        }
    }
}

impl Linear {
    /// Creates a layer with GPT-2 style N(0, 0.02²) weights and zero bias.
    pub fn new(out_features: usize, in_features: usize, rng: &mut ChaCha8Rng) -> Self {
        Linear {
            weight: init::gpt2_normal([out_features, in_features], rng),
            bias: Tensor::zeros([out_features]),
            panels: None,
        }
    }

    /// The serving form: the weight moves into a [`PackedNt`] image and its
    /// row-major copy is dropped. Forward products then read the image
    /// instead of packing the weight per call — same bits (see
    /// [`matmul_packed`]).
    pub fn into_panels(self) -> Self {
        Linear {
            panels: Some(PackedNt::pack(&self.weight)),
            weight: Tensor::zeros([0]),
            bias: self.bias,
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.panels
            .as_ref()
            .map_or_else(|| self.weight.shape().dim(0), PackedNt::n)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.panels
            .as_ref()
            .map_or_else(|| self.weight.shape().dim(1), PackedNt::k)
    }

    /// Number of parameters (weights + bias), in either form.
    pub fn param_count(&self) -> usize {
        self.out_features() * self.in_features() + self.bias.numel()
    }

    /// `[weight, bias]` storage, the weight row-major `[out, in]` or, in
    /// serving form, its panel image (padding included).
    pub fn param_data(&self) -> [&[f32]; 2] {
        let weight = match &self.panels {
            Some(p) => p.as_slice(),
            None => self.weight.data(),
        };
        [weight, self.bias.data()]
    }

    /// [`Linear::param_data`], mutably. An element-wise rewrite is valid in
    /// either form.
    pub fn param_data_mut(&mut self) -> [&mut [f32]; 2] {
        let weight = match &mut self.panels {
            Some(p) => p.as_mut_slice(),
            None => self.weight.data_mut(),
        };
        [weight, self.bias.data_mut()]
    }

    /// Forward pass: `x [T, in] -> y [T, out]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = scratch::empty();
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] writing into a reusable output tensor.
    pub fn forward_into(&self, x: &Tensor, y: &mut Tensor) {
        matmul_nt_into(x, &self.weight, y);
        add_bias(y, &self.bias);
    }

    /// [`Linear::forward_into`] with batch-stable bits: the product goes
    /// through [`matmul_nt_stable`] (or, in serving form, its pre-packed
    /// twin [`matmul_packed`]), so one row's output bits do not depend
    /// on how many rows ride the same call — the serving contract that lets
    /// a single-token decode reproduce a prefill row exactly.
    pub fn forward_stable_into(&self, x: &Tensor, y: &mut Tensor) {
        let (t, k) = x.shape().as_2d();
        let n = self.out_features();
        assert_eq!(k, self.in_features(), "forward_stable: in dim");
        y.reset_for([t, n]);
        match &self.panels {
            Some(p) => matmul_packed(x.data(), p.view(), y.data_mut(), t),
            None => matmul_nt_stable(x.data(), self.weight.data(), y.data_mut(), t, k, n),
        }
        add_bias(y, &self.bias);
    }

    /// Backward pass.
    ///
    /// Given upstream `dy [T, out]` and saved input `x [T, in]`, returns
    /// `dx [T, in]` and accumulates weight/bias gradients into `grads`.
    pub fn backward(&self, dy: &Tensor, x: &Tensor, grads: &mut LinearGrads) -> Tensor {
        self.backward_as(dy, x, grads, GradWrite::Accumulate)
    }

    /// [`Linear::backward`] writing the parameter gradients as `write` says.
    pub fn backward_as(
        &self,
        dy: &Tensor,
        x: &Tensor,
        grads: &mut LinearGrads,
        write: GradWrite,
    ) -> Tensor {
        // dx = dy · W          ([T,out] · [out,in])
        let mut dx = scratch::empty();
        matmul_into(dy, &self.weight, &mut dx);
        // dW (+)= dyᵀ · x      ([out,T] · [T,in])
        match write {
            GradWrite::Accumulate => matmul_tn_acc(dy, x, &mut grads.weight),
            GradWrite::Leaf(s) => matmul_tn_leaf(dy, x, &mut grads.weight, s),
        }
        write.begin(&mut grads.bias);
        bias_grad_acc(dy, &mut grads.bias);
        write.finish(&mut grads.bias);
        dx
    }

    /// Allocates a zeroed gradient buffer matching this layer.
    pub fn zero_grads(&self) -> LinearGrads {
        LinearGrads {
            weight: Tensor::zeros(*self.weight.shape()),
            bias: Tensor::zeros(*self.bias.shape()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 3, &mut seeded_rng(0));
        l.weight = Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 0.]);
        l.bias = Tensor::from_vec([2], vec![10., 20.]);
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[11., 22.]);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut rng = seeded_rng(31);
        let l = Linear::new(5, 4, &mut rng);
        let x = normal([3, 4], 1.0, &mut rng);
        let w = normal([3, 5], 1.0, &mut rng); // loss weights

        let loss = |layer: &Linear, xin: &Tensor| -> f32 {
            let y = layer.forward(xin);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, b)| a * b)
                .sum()
        };

        let mut grads = l.zero_grads();
        let dx = l.backward(&w, &x, &mut grads);

        // Input gradient by finite differences.
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        // Weight gradient by finite differences (sampled).
        for i in (0..l.weight.numel()).step_by(3) {
            let mut lp = l.clone();
            lp.weight.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.weight.data_mut()[i] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((num - grads.weight.data()[i]).abs() < 1e-2, "dW[{i}]");
        }
        // Bias gradient: db = Σ_rows w.
        for j in 0..5 {
            let expect: f32 = (0..3).map(|r| w.data()[r * 5 + j]).sum();
            assert!((grads.bias.data()[j] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_accumulates() {
        let mut rng = seeded_rng(32);
        let l = Linear::new(3, 3, &mut rng);
        let x = normal([2, 3], 1.0, &mut rng);
        let dy = normal([2, 3], 1.0, &mut rng);
        let mut g1 = l.zero_grads();
        l.backward(&dy, &x, &mut g1);
        let mut g2 = l.zero_grads();
        l.backward(&dy, &x, &mut g2);
        l.backward(&dy, &x, &mut g2);
        for (a, b) in g2.weight.data().iter().zip(g1.weight.data().iter()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }

    #[test]
    fn serving_form_forward_is_bitwise_the_row_major_forward() {
        let mut rng = seeded_rng(34);
        let l = Linear::new(45, 300, &mut rng);
        let x = normal([7, 300], 1.0, &mut rng);
        let (mut want, mut got) = (Tensor::zeros([1]), Tensor::zeros([1]));
        l.forward_stable_into(&x, &mut want);
        let served = l.clone().into_panels();
        assert_eq!(served.weight.numel(), 0, "the row-major copy is dropped");
        assert_eq!(served.param_count(), l.param_count());
        assert_eq!((served.out_features(), served.in_features()), (45, 300));
        served.forward_stable_into(&x, &mut got);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn param_count() {
        let l = Linear::new(7, 5, &mut seeded_rng(33));
        assert_eq!(l.param_count(), 7 * 5 + 7);
    }
}
