//! The canonical reduction order shared by every gradient fan-in.
//!
//! f32 addition is not associative, so "the sum of the per-sample
//! gradients" is only well-defined once an association is fixed. The
//! STRONGHOLD reproduction fixes it **once, here**: every fan-in — samples
//! within a trainer, executor micro-batches, and data-parallel replicas —
//! reduces over a fixed pairwise binary tree with floor-half splits:
//!
//! ```text
//! T(lo, hi) = leaf(lo)                       if hi − lo == 1
//!           = T(lo, mid) + T(mid, hi)        with mid = lo + (hi − lo)/2
//! ```
//!
//! Two properties make this the right canonical order:
//!
//! * **Shard alignment.** For `n` divisible by a power-of-two replica count
//!   `w`, the top `log2 w` levels of `T(0, n)` split exactly at the
//!   contiguous shard boundaries `n/w`. A replica that tree-reduces its own
//!   shard computes precisely the subtree `T(r·n/w, (r+1)·n/w)`, and
//!   combining the `w` shard partials with the same tree over the rank
//!   index reconstructs `T(0, n)` **bit-for-bit**. This is what lets
//!   N-replica data parallelism match single-replica training exactly.
//! * **Schedule independence.** The tree depends only on index ranges,
//!   never on arrival order, thread interleaving, or how a buffer was cut
//!   into buckets — the determinism the equivalence suite pins down.
//!
//! [`FoldPlan`] precomputes the merge schedule so a trainer can stream
//! leaves in index order with at most `depth ≈ log2 n + 1` live partial
//! accumulators, instead of materializing all `n` leaves.

/// Precomputed merge schedule for a left-to-right streaming evaluation of
/// the canonical tree over `len` leaves.
///
/// Processing leaf `i` pushes one partial onto a stack; the schedule then
/// prescribes [`FoldPlan::merges_after`]`(i)` merges of the top two stack
/// entries. After the last leaf the stack holds exactly the root.
#[derive(Clone, Debug, Default)]
pub struct FoldPlan {
    len: usize,
    merges: Vec<u8>,
    depth: usize,
}

fn schedule(merges: &mut [u8], lo: usize, hi: usize) {
    if hi - lo <= 1 {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    schedule(merges, lo, mid);
    schedule(merges, mid, hi);
    // The subtree (lo, hi) completes right after its last leaf.
    merges[hi - 1] += 1;
}

impl FoldPlan {
    /// A plan for `n` leaves.
    pub fn new(n: usize) -> FoldPlan {
        let mut p = FoldPlan::default();
        p.set_len(n);
        p
    }

    /// Re-targets the plan to `n` leaves, reusing the schedule buffer (no
    /// allocation when `n` shrinks or repeats — the zero-allocation step
    /// loop re-plans only when the batch size changes).
    pub fn set_len(&mut self, n: usize) {
        if self.len == n && (n == 0 || self.depth > 0) {
            return;
        }
        self.len = n;
        self.merges.clear();
        self.merges.resize(n, 0);
        schedule(&mut self.merges, 0, n);
        let mut d = 0usize;
        let mut max = 0usize;
        for &m in &self.merges {
            d += 1;
            max = max.max(d);
            d -= m as usize;
        }
        debug_assert!(n == 0 || d == 1);
        self.depth = max;
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers zero leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of live partials a streaming evaluation needs.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// How many stack merges follow leaf `i`.
    pub fn merges_after(&self, i: usize) -> usize {
        self.merges[i] as usize
    }
}

/// Streams the canonical fold through a fixed set of reusable accumulator
/// `slots` (at least [`FoldPlan::depth`] of them). `leaf(i, slot)` must
/// *overwrite* `slot` with leaf `i`'s value; `merge(dst, src)` must fold
/// `src` into `dst` (`dst += src`). The root lands in `slots[0]`.
///
/// With zero leaves the slots are untouched (callers zero `slots[0]`
/// beforehand when an empty fold must mean "zero gradient").
pub fn fold_with<S>(
    plan: &FoldPlan,
    slots: &mut [S],
    mut leaf: impl FnMut(usize, &mut S),
    mut merge: impl FnMut(&mut S, &S),
) {
    assert!(
        slots.len() >= plan.depth(),
        "fold_with: {} slots for depth {}",
        slots.len(),
        plan.depth()
    );
    let mut d = 0usize;
    for i in 0..plan.len() {
        leaf(i, &mut slots[d]);
        d += 1;
        for _ in 0..plan.merges_after(i) {
            let (lo, hi) = slots.split_at_mut(d - 1);
            merge(&mut lo[d - 2], &hi[0]);
            d -= 1;
        }
    }
    debug_assert!(plan.is_empty() || d == 1);
}

/// The canonical sum of a slice: `T(0, n)` with the values as leaves.
///
/// # Examples
///
/// ```
/// use stronghold_collective::order::tree_sum;
///
/// // (1 + 2) + (3 + 4): fixed association, independent of sharding.
/// assert_eq!(tree_sum(&[1.0, 2.0, 3.0, 4.0]), 10.0);
/// let halves = [tree_sum(&[1.0, 2.0]), tree_sum(&[3.0, 4.0])];
/// assert_eq!(tree_sum(&halves), tree_sum(&[1.0, 2.0, 3.0, 4.0]));
/// ```
pub fn tree_sum(xs: &[f32]) -> f32 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        n => {
            let mid = n / 2;
            tree_sum(&xs[..mid]) + tree_sum(&xs[mid..])
        }
    }
}

/// Elementwise canonical sum across `srcs` (one slice per rank, identical
/// lengths), written into `dst` starting at `srcs[*][off..]`. This is the
/// reduction the real collectives apply at every rank, so all ranks hold
/// identical bits regardless of delivery order.
pub fn tree_reduce_into(dst: &mut [f32], srcs: &[&[f32]], off: usize) {
    match srcs.len() {
        0 => dst.fill(0.0),
        1 => dst.copy_from_slice(&srcs[0][off..off + dst.len()]),
        2 => {
            let (a, b) = (srcs[0], srcs[1]);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = a[off + j] + b[off + j];
            }
        }
        4 => {
            let (a, b, c, e) = (srcs[0], srcs[1], srcs[2], srcs[3]);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = (a[off + j] + b[off + j]) + (c[off + j] + e[off + j]);
            }
        }
        w => {
            fn val(srcs: &[&[f32]], j: usize, lo: usize, hi: usize) -> f32 {
                if hi - lo == 1 {
                    srcs[lo][j]
                } else {
                    let mid = lo + (hi - lo) / 2;
                    val(srcs, j, lo, mid) + val(srcs, j, mid, hi)
                }
            }
            for (j, d) in dst.iter_mut().enumerate() {
                *d = val(srcs, off + j, 0, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Direct recursive evaluation of the tree over explicit leaves — the
    /// specification the streaming plan must match.
    fn spec(xs: &[f64]) -> f64 {
        match xs.len() {
            1 => xs[0],
            n => {
                let mid = n / 2;
                spec(&xs[..mid]) + spec(&xs[mid..])
            }
        }
    }

    #[test]
    fn plan_matches_spec_for_small_sizes() {
        for n in 1..40usize {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) as f64).sin()).collect();
            let plan = FoldPlan::new(n);
            let mut slots = vec![0.0f64; plan.depth()];
            fold_with(&plan, &mut slots, |i, s| *s = xs[i], |a, b| *a += *b);
            assert_eq!(slots[0].to_bits(), spec(&xs).to_bits(), "n={n}");
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(FoldPlan::new(1).depth(), 1);
        assert_eq!(FoldPlan::new(2).depth(), 2);
        assert_eq!(FoldPlan::new(4).depth(), 3);
        assert_eq!(FoldPlan::new(8).depth(), 4);
        assert!(FoldPlan::new(1024).depth() <= 11);
    }

    #[test]
    fn shard_partials_reassemble_bitwise() {
        // The property data parallelism rests on: shard subtrees combined
        // with the rank tree equal the whole tree, bit for bit.
        let xs: Vec<f32> = (0..64)
            .map(|i| ((i * 13 + 5) as f32).sin() * 1e-3)
            .collect();
        let whole = tree_sum(&xs);
        for w in [1usize, 2, 4, 8] {
            let shard = xs.len() / w;
            let partials: Vec<f32> = (0..w)
                .map(|r| tree_sum(&xs[r * shard..(r + 1) * shard]))
                .collect();
            assert_eq!(tree_sum(&partials).to_bits(), whole.to_bits(), "w={w}");
        }
    }

    #[test]
    fn set_len_reuses_buffer() {
        let mut p = FoldPlan::new(16);
        let cap = 16;
        p.set_len(8);
        p.set_len(16);
        assert!(p.merges.capacity() >= cap);
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn reduce_into_matches_tree_sum_per_element() {
        for w in 1..9usize {
            let srcs: Vec<Vec<f32>> = (0..w)
                .map(|r| (0..17).map(|j| ((r * 31 + j) as f32).sin()).collect())
                .collect();
            let refs: Vec<&[f32]> = srcs.iter().map(|v| v.as_slice()).collect();
            let mut dst = vec![0.0f32; 17];
            tree_reduce_into(&mut dst, &refs, 0);
            for j in 0..17 {
                let col: Vec<f32> = srcs.iter().map(|v| v[j]).collect();
                assert_eq!(dst[j].to_bits(), tree_sum(&col).to_bits(), "w={w} j={j}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_shard_alignment(exp in 0u32..7, wexp in 0u32..3, seed in 0u64..1000) {
            // n a power of two, w a power of two dividing n.
            let n = 1usize << (exp + wexp);
            let w = 1usize << wexp;
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as i32 % 2001 - 1000) as f32 / 997.0
            };
            let xs: Vec<f32> = (0..n).map(|_| next()).collect();
            let shard = n / w;
            let partials: Vec<f32> =
                (0..w).map(|r| tree_sum(&xs[r * shard..(r + 1) * shard])).collect();
            prop_assert_eq!(tree_sum(&partials).to_bits(), tree_sum(&xs).to_bits());
        }
    }
}
