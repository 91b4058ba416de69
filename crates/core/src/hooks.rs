//! The hook mechanism (§III-C): STRONGHOLD attaches `pre_forward` /
//! `post_forward` / `pre_backward` / `post_backward` callbacks to each layer
//! "through the hooking mechanism provided by mainstream deep learning
//! frameworks" — which is what makes the runtime usable *without user code
//! refactoring*.
//!
//! This module is that mechanism: a per-layer registry of callbacks the
//! training loop fires at the four pipeline points. The offloading engine
//! registers its prefetch/offload/optimizer-dispatch actions here; user code
//! can add its own observers (profiling, logging) without touching the
//! model.

use std::collections::BTreeMap;

/// The four pipeline points a layer exposes (Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HookPoint {
    /// Before a layer's forward compute (issues the FP prefetch, step ①).
    PreForward,
    /// After a layer's forward compute (issues the FP offload, step ③).
    PostForward,
    /// Before a layer's backward compute (issues BP prefetch + offload +
    /// optimizer dispatch, steps ①–③ of Fig. 3c).
    PreBackward,
    /// After a layer's backward compute.
    PostBackward,
    /// After a full optimizer step (clip + LR schedule + parameter update)
    /// has been dispatched. Fired once per iteration on the pseudo-layer
    /// [`STEP_SCOPE`], not per layer.
    PostStep,
}

/// Pseudo-layer index for step-granularity hooks: [`HookPoint::PostStep`]
/// callbacks are registered and fired on this index, far outside any real
/// layer range.
pub const STEP_SCOPE: usize = usize::MAX;

/// Context handed to every hook invocation.
#[derive(Clone, Copy, Debug)]
pub struct HookCtx {
    /// Layer index in execution order.
    pub layer: usize,
    /// Training iteration number.
    pub iteration: u64,
    /// Micro-batch index within the iteration.
    pub micro_batch: usize,
}

type Hook = Box<dyn FnMut(&HookCtx) + Send>;

/// A per-layer registry of pipeline callbacks.
#[derive(Default)]
pub struct HookRegistry {
    hooks: BTreeMap<(usize, HookPoint), Vec<Hook>>,
    fired: u64,
}

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HookRegistry::default()
    }

    /// Registers a callback for `(layer, point)`. Multiple callbacks on the
    /// same point fire in registration order.
    pub fn register(
        &mut self,
        layer: usize,
        point: HookPoint,
        hook: impl FnMut(&HookCtx) + Send + 'static,
    ) {
        self.hooks
            .entry((layer, point))
            .or_default()
            .push(Box::new(hook));
    }

    /// Registers a step-granularity callback fired once per iteration after
    /// the optimizer dispatch (see [`HookPoint::PostStep`]).
    pub fn register_post_step(&mut self, hook: impl FnMut(&HookCtx) + Send + 'static) {
        self.register(STEP_SCOPE, HookPoint::PostStep, hook);
    }

    /// Fires all callbacks for `(layer, point)`.
    pub fn fire(&mut self, layer: usize, point: HookPoint, ctx: &HookCtx) {
        if let Some(hooks) = self.hooks.get_mut(&(layer, point)) {
            for h in hooks {
                h(ctx);
                self.fired += 1;
            }
        }
    }

    /// Number of callbacks registered on a point.
    pub fn count(&self, layer: usize, point: HookPoint) -> usize {
        self.hooks.get(&(layer, point)).map_or(0, Vec::len)
    }

    /// Total invocations so far (matches the `t_async` accounting of
    /// §III-D: 2 calls per layer in FP, 3 in BP).
    pub fn invocations(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn hooks_fire_in_registration_order() {
        let mut reg = HookRegistry::new();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for tag in ["first", "second"] {
            let log2 = Arc::clone(&log);
            reg.register(3, HookPoint::PreForward, move |ctx| {
                log2.lock().push((tag, ctx.layer));
            });
        }
        reg.fire(
            3,
            HookPoint::PreForward,
            &HookCtx {
                layer: 3,
                iteration: 0,
                micro_batch: 0,
            },
        );
        assert_eq!(*log.lock(), vec![("first", 3), ("second", 3)]);
        assert_eq!(reg.invocations(), 2);
    }

    #[test]
    fn unregistered_points_are_silent() {
        let mut reg = HookRegistry::new();
        reg.fire(
            0,
            HookPoint::PostBackward,
            &HookCtx {
                layer: 0,
                iteration: 0,
                micro_batch: 0,
            },
        );
        assert_eq!(reg.invocations(), 0);
    }

    #[test]
    fn range_registration_covers_each_layer() {
        let mut reg = HookRegistry::new();
        let count = Arc::new(AtomicUsize::new(0));
        for l in 0..5 {
            let c = Arc::clone(&count);
            reg.register(l, HookPoint::PostForward, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        for l in 0..5 {
            assert_eq!(reg.count(l, HookPoint::PostForward), 1);
            reg.fire(
                l,
                HookPoint::PostForward,
                &HookCtx {
                    layer: l,
                    iteration: 1,
                    micro_batch: 0,
                },
            );
        }
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn simulated_training_loop_fires_paper_call_counts() {
        // One FP + BP sweep over n layers must fire 2n + 3n hook calls —
        // the 5·n·t_async of Eq. (4): §III-D prices a layer's FP at
        // `t_fp + 2 t_async` and its BP at `t_bp + 3 t_async`.
        let n = 7;
        let mut reg = HookRegistry::new();
        for l in 0..n {
            reg.register(l, HookPoint::PreForward, |_| {});
            reg.register(l, HookPoint::PostForward, |_| {});
            reg.register(l, HookPoint::PreBackward, |_| {});
            reg.register(l, HookPoint::PreBackward, |_| {});
            reg.register(l, HookPoint::PreBackward, |_| {});
        }
        let ctx = |l| HookCtx {
            layer: l,
            iteration: 0,
            micro_batch: 0,
        };
        for l in 0..n {
            reg.fire(l, HookPoint::PreForward, &ctx(l));
            reg.fire(l, HookPoint::PostForward, &ctx(l));
        }
        for l in (0..n).rev() {
            reg.fire(l, HookPoint::PreBackward, &ctx(l));
        }
        assert_eq!(reg.invocations(), (2 + 3) * n as u64);
    }
}
