//! Global gradient-norm clipping.
//!
//! Large-model training pipelines (Megatron-LM's hyper-parameters, which
//! the paper adopts in §V-B) clip the *global* gradient norm before the
//! optimizer step. Under offloading the gradients are scattered across
//! layer stores, so the norm is computed as a deterministic two-pass
//! reduction over per-layer partial sums — the same layer-ordered reduction
//! the collectives use, keeping results independent of where each layer's
//! gradient happens to live.

/// Independent f64 accumulators of [`GlobalNorm::layer_sum_sq`].
const NORM_LANES: usize = 8;

/// The lanes of [`GlobalNorm::layer_sum_sq`], fed a layer's flat gradient
/// a piece at a time — by a reader that never holds it flat — to the same
/// bits as one call over the whole slice.
#[derive(Default)]
pub(crate) struct NormLanes {
    lanes: [f64; NORM_LANES],
    seen: usize,
}

impl NormLanes {
    /// Feeds the next `grads` of the flat gradient.
    ///
    /// # Panics
    /// Panics if an earlier piece was not a whole number of lanes: only
    /// the last piece may be ragged.
    pub(crate) fn add(&mut self, grads: &[f32]) {
        assert_eq!(
            self.seen % NORM_LANES,
            0,
            "only the last piece may be ragged"
        );
        self.seen += grads.len();
        let chunks = grads.chunks_exact(NORM_LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (acc, g) in self.lanes.iter_mut().zip(chunk) {
                *acc += (*g as f64) * (*g as f64);
            }
        }
        for (acc, g) in self.lanes.iter_mut().zip(tail) {
            *acc += (*g as f64) * (*g as f64);
        }
    }

    /// The lanes summed pairwise: the partial.
    pub(crate) fn total(&self) -> f64 {
        let [a, b, c, d, e, f, g, h] = self.lanes;
        ((a + b) + (c + d)) + ((e + f) + (g + h))
    }
}

/// Accumulates per-layer squared-norm contributions in layer order.
#[derive(Clone, Debug, Default)]
pub struct GlobalNorm {
    sum_sq: f64,
    elements: u64,
}

impl GlobalNorm {
    /// Empty accumulator.
    pub fn new() -> Self {
        GlobalNorm::default()
    }

    /// Adds one layer's gradient (order matters for bit-reproducibility:
    /// call in ascending layer order).
    pub fn add_layer(&mut self, grads: &[f32]) {
        self.sum_sq += GlobalNorm::layer_sum_sq(grads);
        self.elements += grads.len() as u64;
    }

    /// One layer's squared-norm partial, computed the exact way
    /// [`GlobalNorm::add_layer`] computes it. Pipelines that flatten a
    /// layer's gradient on another thread can compute the partial there and
    /// fold it later with [`GlobalNorm::add_layer_sum_sq`]; because the fold
    /// is a plain f64 addition performed in the same fixed layer order, the
    /// result is bit-identical to the serial reduction.
    ///
    /// The partial is in f64, to keep the reduction well-conditioned, and
    /// runs in eight fixed lanes — element `i` feeds lane `i mod 8` in
    /// ascending order, and the lanes are summed pairwise — so it is a pure
    /// function of the slice whoever computes it, and its adds overlap
    /// instead of waiting on one serial chain.
    pub fn layer_sum_sq(grads: &[f32]) -> f64 {
        let mut lanes = NormLanes::default();
        lanes.add(grads);
        lanes.total()
    }

    /// Folds a precomputed per-layer partial (see
    /// [`GlobalNorm::layer_sum_sq`]) in the caller-chosen layer order.
    /// Element accounting is skipped: streaming callers track coverage
    /// themselves.
    pub fn add_layer_sum_sq(&mut self, sum_sq: f64) {
        self.sum_sq += sum_sq;
    }

    /// The global L2 norm accumulated so far.
    pub fn norm(&self) -> f32 {
        self.sum_sq.sqrt() as f32
    }

    /// Elements seen.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// The scale factor that clips to `max_norm` (1.0 when already within).
    pub fn clip_scale(&self, max_norm: f32) -> f32 {
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            max_norm / n
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The engine's clip step over per-layer gradients: accumulate the
    /// global norm, then scale every gradient by [`GlobalNorm::clip_scale`]
    /// unless it is 1. Returns the pre-clip norm.
    fn clip_layers(layers: &mut [Vec<f32>], max_norm: f32) -> f32 {
        let mut acc = GlobalNorm::new();
        for g in layers.iter() {
            acc.add_layer(g);
        }
        let scale = acc.clip_scale(max_norm);
        if scale != 1.0 {
            layers.iter_mut().flatten().for_each(|v| *v *= scale);
        }
        acc.norm()
    }

    #[test]
    fn norm_of_known_vector() {
        let mut acc = GlobalNorm::new();
        acc.add_layer(&[3.0, 0.0]);
        acc.add_layer(&[0.0, 4.0]);
        assert!((acc.norm() - 5.0).abs() < 1e-6);
        assert_eq!(acc.elements(), 4);
    }

    #[test]
    fn within_budget_is_untouched() {
        let mut layers = vec![vec![0.1f32, 0.2], vec![0.05]];
        let before = layers.clone();
        let n = clip_layers(&mut layers, 10.0);
        assert!(n < 10.0);
        assert_eq!(layers, before);
    }

    #[test]
    fn clipped_norm_equals_max() {
        let mut layers = vec![vec![30.0f32, 0.0], vec![0.0, 40.0]];
        let pre = clip_layers(&mut layers, 1.0);
        assert!((pre - 50.0).abs() < 1e-4);
        let mut acc = GlobalNorm::new();
        for g in &layers {
            acc.add_layer(g);
        }
        assert!(
            (acc.norm() - 1.0).abs() < 1e-5,
            "post-clip norm {}",
            acc.norm()
        );
    }

    #[test]
    fn layer_sum_sq_is_its_lane_definition() {
        for n in 0..40usize {
            let g: Vec<f32> = (0..n).map(|i| ((i * 29 + 3) as f32).sin() * 7.0).collect();
            let lane = |l: usize| -> f64 {
                g.iter()
                    .skip(l)
                    .step_by(NORM_LANES)
                    .fold(0.0, |acc, v| acc + (*v as f64) * (*v as f64))
            };
            let want = ((lane(0) + lane(1)) + (lane(2) + lane(3)))
                + ((lane(4) + lane(5)) + (lane(6) + lane(7)));
            let got = GlobalNorm::layer_sum_sq(&g);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            let serial: f64 = g.iter().map(|v| (*v as f64) * (*v as f64)).sum();
            assert!((got - serial).abs() <= serial * 1e-12, "n={n}");
        }
    }

    #[test]
    fn layer_partition_does_not_change_norm() {
        // The norm is identical whether gradients live in one store or are
        // split across offloaded layers (the property the pipeline needs).
        let flat: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let mut one = GlobalNorm::new();
        one.add_layer(&flat);
        let mut many = GlobalNorm::new();
        for chunk in flat.chunks(7) {
            many.add_layer(chunk);
        }
        assert!((one.norm() - many.norm()).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_post_clip_norm_bounded(
            vals in proptest::collection::vec(-100.0f32..100.0, 1..200),
            max_norm in 0.1f32..10.0
        ) {
            let mut layers = vec![vals];
            clip_layers(&mut layers, max_norm);
            let mut acc = GlobalNorm::new();
            acc.add_layer(&layers[0]);
            prop_assert!(acc.norm() <= max_norm * 1.0001);
        }

        /// Multi-layer clipping agrees with a naive single-pass reference:
        /// scaling happens iff the flat norm exceeds the threshold, the
        /// direction is preserved, and the no-op path leaves every bit of
        /// every gradient unchanged.
        #[test]
        fn prop_matches_naive_reference(
            l0 in proptest::collection::vec(-20.0f32..20.0, 0..48),
            l1 in proptest::collection::vec(-20.0f32..20.0, 1..48),
            l2 in proptest::collection::vec(-20.0f32..20.0, 1..48),
            max_norm in 0.05f32..30.0
        ) {
            let mut layers = vec![l0, l1, l2];
            let before = layers.clone();
            // Naive reference: flatten, one f64 pass.
            let naive_norm = before
                .iter()
                .flatten()
                .map(|v| (*v as f64) * (*v as f64))
                .sum::<f64>()
                .sqrt();
            // Keep clear of the clip/no-clip boundary where f32 vs f64
            // rounding could legitimately disagree.
            prop_assume!((naive_norm - max_norm as f64).abs() > 1e-3);

            let pre = clip_layers(&mut layers, max_norm);
            prop_assert!(
                ((pre as f64) - naive_norm).abs() <= naive_norm * 1e-6 + 1e-6,
                "reported norm {pre} vs naive {naive_norm}"
            );

            if naive_norm < max_norm as f64 {
                // No-op path: bit-identical, not merely approximately equal.
                for (a, b) in layers.iter().flatten().zip(before.iter().flatten()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            } else {
                let scale = max_norm as f64 / naive_norm;
                for (a, b) in layers.iter().flatten().zip(before.iter().flatten()) {
                    let expect = (*b as f64) * scale;
                    prop_assert!(
                        ((*a as f64) - expect).abs() <= expect.abs() * 1e-5 + 1e-7,
                        "element {a} vs reference {expect}"
                    );
                    prop_assert!(
                        a.signum() == b.signum() || *a == 0.0 || *b == 0.0,
                        "direction flipped: {b} -> {a}"
                    );
                }
            }
        }

        #[test]
        fn prop_clip_preserves_direction(
            a in -50.0f32..50.0, b in -50.0f32..50.0
        ) {
            prop_assume!(a != 0.0 || b != 0.0);
            let mut layers = vec![vec![a, b]];
            clip_layers(&mut layers, 0.5);
            let (ca, cb) = (layers[0][0], layers[0][1]);
            // Cross product ~ 0 => collinear; signs preserved.
            prop_assert!((a * cb - b * ca).abs() < 1e-3);
            prop_assert!(a.signum() == ca.signum() || ca == 0.0);
        }
    }
}
