//! Cross-entropy loss over logits with fused softmax backward.

use crate::ops::{scale_assign, softmax_rows};
use crate::tensor::Tensor;

/// Computes mean cross-entropy of `logits [T, V]` against `targets [T]` and
/// the gradient w.r.t. the logits.
///
/// The gradient of mean CE through the softmax is `(softmax(z) - onehot)/T`,
/// computed in closed form (numerically stable, no explicit log of small
/// probabilities beyond the selected class).
pub fn cross_entropy(logits: &Tensor, targets: &[u32]) -> (f32, Tensor) {
    let (t, v) = logits.shape().as_2d();
    assert_eq!(
        t,
        targets.len(),
        "cross_entropy: {t} rows vs {} targets",
        targets.len()
    );
    // The probabilities double as the gradient buffer: the loss reads the
    // target-class probability before the in-place `p - onehot` update, so
    // no second [T, V] tensor is ever materialized.
    let mut dlogits = softmax_rows(logits);
    let mut loss = 0.0f64;
    let inv_t = 1.0 / t as f32;
    for (i, &tgt) in targets.iter().enumerate() {
        let tgt = tgt as usize;
        assert!(tgt < v, "target {tgt} out of vocab {v}");
        let p = dlogits.data()[i * v + tgt].max(1e-30);
        loss -= (p as f64).ln();
        dlogits.data_mut()[i * v + tgt] -= 1.0;
    }
    scale_assign(&mut dlogits, inv_t);
    ((loss / t as f64) as f32, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn uniform_logits_give_log_v() {
        let logits = Tensor::zeros([4, 8]);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_low_loss() {
        let mut logits = Tensor::zeros([1, 4]);
        *logits.at_mut(&[0, 2]) = 20.0;
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = normal([3, 5], 1.0, &mut seeded_rng(60));
        let targets = [1u32, 4, 0];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (lossp, _) = cross_entropy(&lp, &targets);
            let (lossm, _) = cross_entropy(&lm, &targets);
            let num = (lossp - lossm) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "dlogits[{i}]");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = normal([4, 7], 2.0, &mut seeded_rng(61));
        let (_, grad) = cross_entropy(&logits, &[0, 1, 2, 3]);
        for r in 0..4 {
            let s: f32 = grad.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }
}
