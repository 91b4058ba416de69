//! Simulated hardware resources.
//!
//! Two server models cover every unit in the platform:
//!
//! * [`FifoResource`] — a single-server FIFO queue (a CUDA stream, one PCIe
//!   DMA direction, the NVMe controller, a network link). Operations issued
//!   to it serialize; an op starts at `max(free_at, deps)`.
//! * [`WorkerPool`] — `k` identical FIFO servers with greedy
//!   earliest-available dispatch (the CPU-optimizer actor pool, §III-E1).

use crate::time::{max_time, SimTime};

/// A single-server FIFO resource.
#[derive(Clone, Debug)]
pub struct FifoResource {
    name: String,
    free_at: SimTime,
    busy: SimTime,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Self {
        FifoResource {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
        }
    }

    /// Resource name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schedules an operation that becomes ready at `ready` (max of its
    /// dependencies) and takes `duration`. Returns `(start, end)`.
    pub fn schedule(&mut self, ready: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(ready);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        (start, end)
    }

    /// Time at which the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
        }
    }

    /// Resets to idle (new iteration).
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.busy = SimTime::ZERO;
    }
}

/// A pool of `k` identical FIFO servers with earliest-available dispatch.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    name: String,
    free_at: Vec<SimTime>,
}

impl WorkerPool {
    /// Creates a pool of `workers` idle servers.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(name: impl Into<String>, workers: usize) -> Self {
        assert!(workers > 0, "worker pool must have at least one worker");
        WorkerPool {
            name: name.into(),
            free_at: vec![SimTime::ZERO; workers],
        }
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.free_at.len()
    }

    /// Dispatches a task to the earliest-available worker. Ties break on the
    /// lowest worker index, keeping the schedule deterministic. Returns
    /// `(worker, start, end)`.
    pub fn dispatch(&mut self, ready: SimTime, duration: SimTime) -> (usize, SimTime, SimTime) {
        let (w, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("non-empty pool");
        let start = self.free_at[w].max(ready);
        let end = start + duration;
        self.free_at[w] = end;
        (w, start, end)
    }

    /// Time when *all* workers are free (pool drain time).
    pub fn drain_time(&self) -> SimTime {
        max_time(self.free_at.iter().copied())
    }

    /// Resets all workers to idle.
    pub fn reset(&mut self) {
        self.free_at.iter_mut().for_each(|t| *t = SimTime::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_serializes() {
        let mut r = FifoResource::new("pcie");
        let (s1, e1) = r.schedule(SimTime::ZERO, SimTime::from_millis(10));
        let (s2, e2) = r.schedule(SimTime::ZERO, SimTime::from_millis(5));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_millis(10));
        assert_eq!(s2, e1, "second op waits for the first");
        assert_eq!(e2, SimTime::from_millis(15));
    }

    #[test]
    fn fifo_respects_readiness() {
        let mut r = FifoResource::new("x");
        let (s, e) = r.schedule(SimTime::from_millis(7), SimTime::from_millis(1));
        assert_eq!(s, SimTime::from_millis(7));
        assert_eq!(e, SimTime::from_millis(8));
    }

    #[test]
    fn fifo_utilization() {
        let mut r = FifoResource::new("x");
        r.schedule(SimTime::ZERO, SimTime::from_millis(30));
        assert!((r.utilization(SimTime::from_millis(60)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pool_runs_tasks_concurrently() {
        let mut p = WorkerPool::new("adam", 3);
        let d = SimTime::from_millis(10);
        for _ in 0..3 {
            let (_, s, e) = p.dispatch(SimTime::ZERO, d);
            assert_eq!(s, SimTime::ZERO);
            assert_eq!(e, d);
        }
        // Fourth task waits.
        let (_, s4, _) = p.dispatch(SimTime::ZERO, d);
        assert_eq!(s4, d);
        assert_eq!(p.drain_time(), SimTime::from_millis(20));
    }

    #[test]
    fn pool_dispatch_is_deterministic() {
        let mut a = WorkerPool::new("p", 4);
        let mut b = WorkerPool::new("p", 4);
        for i in 0..20u64 {
            let d = SimTime::from_micros(100 + i * 7);
            assert_eq!(a.dispatch(SimTime::ZERO, d), b.dispatch(SimTime::ZERO, d));
        }
    }

    proptest! {
        #[test]
        fn prop_pool_k_times_faster_for_equal_tasks(
            workers in 1usize..8, tasks in 1usize..40, dur_ms in 1u64..50
        ) {
            let mut p = WorkerPool::new("p", workers);
            let d = SimTime::from_millis(dur_ms);
            for _ in 0..tasks {
                p.dispatch(SimTime::ZERO, d);
            }
            let rounds = tasks.div_ceil(workers) as u64;
            prop_assert_eq!(p.drain_time(), SimTime::from_millis(rounds * dur_ms));
        }

        #[test]
        fn prop_fifo_end_equals_sum(durs in proptest::collection::vec(1u64..100, 1..30)) {
            let mut r = FifoResource::new("x");
            let mut end = SimTime::ZERO;
            for d in &durs {
                end = r.schedule(SimTime::ZERO, SimTime::from_millis(*d)).1;
            }
            prop_assert_eq!(end, SimTime::from_millis(durs.iter().sum()));
        }
    }
}
