//! Per-thread reusable scratch tensors.
//!
//! The forward/backward passes of attention and the transformer block
//! need a handful of short-lived temporaries per call (per-head gathers,
//! score matrices, intermediate gradients). Allocating them fresh each
//! time dominated the step loop's allocator traffic, so layers instead
//! *rent* buffers from a thread-local pool and return them when done:
//!
//! ```
//! use stronghold_tensor::scratch;
//!
//! let t = scratch::take([4, 8]); // contents unspecified
//! // ... fully overwrite and use `t` ...
//! scratch::give(t); // recycle the allocation
//! ```
//!
//! Rented tensors have **unspecified contents** — callers must fully
//! overwrite them (the `*_into` kernel variants all do). The pool is
//! thread-local, so parallel workers (e.g. multi-stream executors) each
//! keep their own workspace and no locking is involved; it is bounded,
//! so a burst of odd shapes cannot grow it without limit.

use std::cell::RefCell;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Maximum number of pooled buffers per thread. Beyond this, returned
/// buffers are simply dropped (steady-state loops use far fewer).
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Rents a tensor of the given shape from this thread's pool. Contents
/// are unspecified; the caller must overwrite them.
pub fn take(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.resize(n, 0.0);
    Tensor::from_vec(shape, buf)
}

/// Rents an empty (`[0]`-shaped) tensor whose backing allocation comes
/// from the pool. Intended for the `*_into` kernels, which `reset_for`
/// the output themselves — the pooled capacity is retained, so a
/// steady-state `empty()` → `*_into` → [`give`] cycle never allocates.
pub fn empty() -> Tensor {
    take([0])
}

/// Rents a tensor and fills it with a copy of `src`.
pub fn take_copy(src: &Tensor) -> Tensor {
    let mut t = take(*src.shape());
    t.data_mut().copy_from_slice(src.data());
    t
}

/// Returns a rented (or any other) tensor's allocation to this thread's
/// pool for reuse.
pub fn give(t: Tensor) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            // Size the index once, on the first return: a pool that fills
            // up slowly would otherwise regrow it several steps into a
            // loop that has stopped allocating.
            let room = MAX_POOLED - pool.len();
            pool.reserve_exact(room);
            pool.push(t.into_vec());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_allocation() {
        let t = take([8, 8]);
        assert_eq!(t.numel(), 64);
        let ptr = t.data().as_ptr();
        let cap = t.data().len();
        give(t);
        let t2 = take([4, 16]); // same numel => same buffer back
        assert_eq!(t2.numel(), cap);
        assert_eq!(t2.data().as_ptr(), ptr);
        give(t2);
    }

    #[test]
    fn take_grows_when_needed() {
        let t = take([2]);
        give(t);
        let big = take([100]);
        assert_eq!(big.numel(), 100);
        give(big);
    }
}
