//! Operation plans and their pricer.
//!
//! A method's iteration is a [`Plan`]: a list of ops, each on one hardware
//! [`Lane`] with a duration, the earlier ops it waits for and a label. Every
//! simulated method — STRONGHOLD with its ablations and NVMe tier, its
//! forward-only mode, and each baseline — only builds a plan; [`price`] is
//! the one place that turns a plan into a [`Timeline`]:
//!
//! * an op is ready at the latest end of the ops it waits for, each plus
//!   that dependency's fixed gap (the runtime's hook latency, a
//!   synchronous copy's barrier);
//! * a lane serves its ops one at a time in the order they were pushed
//!   (a CUDA stream, one PCIe direction, the NVMe controller), so an op
//!   starts at `max(ready, lane free)`;
//! * [`Lane::CpuOptim`] is a pool of `k` such servers (the CPU-optimizer
//!   actors, §III-E1): each op goes to the earliest-free server, the lowest
//!   index on a tie.
//!
//! Segment `i` of the priced timeline is op `i` of the plan.

use std::collections::BTreeMap;

use crate::time::{max_time, SimTime};
use crate::timeline::{Lane, Timeline};

/// Index of an op in its plan (and of its segment in the priced timeline).
pub type OpId = usize;

/// One operation of a plan.
#[derive(Debug)]
struct Op {
    /// Hardware lane that serves the op.
    lane: Lane,
    /// Service time.
    dur: SimTime,
    /// Earlier ops this one waits for, each with the gap added to its end.
    after: Vec<(OpId, SimTime)>,
    /// Trace label, e.g. `"fp L12"`.
    label: String,
}

/// A method's schedule for one iteration, in issue order.
#[derive(Debug)]
pub struct Plan {
    ops: Vec<Op>,
    cpu_workers: usize,
}

impl Plan {
    /// An empty plan whose [`Lane::CpuOptim`] has `cpu_workers` servers.
    ///
    /// # Panics
    /// Panics if `cpu_workers == 0`.
    pub fn new(cpu_workers: usize) -> Self {
        assert!(cpu_workers > 0, "the CPU-optimizer lane needs a server");
        Plan {
            ops: Vec::new(),
            cpu_workers,
        }
    }

    /// Appends an op and returns its id.
    ///
    /// # Panics
    /// Panics if a dependency is not an earlier op of this plan.
    pub fn push(
        &mut self,
        lane: Lane,
        dur: SimTime,
        after: impl IntoIterator<Item = (OpId, SimTime)>,
        label: impl Into<String>,
    ) -> OpId {
        let id = self.ops.len();
        let after: Vec<(OpId, SimTime)> = after.into_iter().collect();
        assert!(
            after.iter().all(|&(dep, _)| dep < id),
            "an op waits only for earlier ops"
        );
        self.ops.push(Op {
            lane,
            dur,
            after,
            label: label.into(),
        });
        id
    }
}

/// Prices a plan: the exact discrete-event schedule of its ops on FIFO
/// lanes and the CPU-optimizer pool. Checks that no FIFO lane overlaps
/// itself.
pub fn price(plan: &Plan) -> Timeline {
    let mut lane_free: BTreeMap<Lane, SimTime> = BTreeMap::new();
    let mut pool_free = vec![SimTime::ZERO; plan.cpu_workers];
    let mut tl = Timeline::new();
    for op in &plan.ops {
        let ends = tl.segments();
        let ready = max_time(op.after.iter().map(|&(dep, gap)| ends[dep].end + gap));
        let free = if op.lane == Lane::CpuOptim {
            // `min_by_key` keeps the first of equal keys: the lowest index.
            let w = (0..pool_free.len())
                .min_by_key(|&w| pool_free[w])
                .unwrap_or(0);
            &mut pool_free[w]
        } else {
            lane_free.entry(op.lane).or_insert(SimTime::ZERO)
        };
        let start = (*free).max(ready);
        *free = start + op.dur;
        tl.record(op.lane, op.label.clone(), start, start + op.dur);
    }
    tl.assert_lanes_serialized();
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn span(tl: &Timeline, op: OpId) -> (SimTime, SimTime) {
        let s = &tl.segments()[op];
        (s.start, s.end)
    }

    #[test]
    fn fifo_serializes() {
        let mut p = Plan::new(1);
        let a = p.push(Lane::CopyIn, ms(10), [], "a");
        let b = p.push(Lane::CopyIn, ms(5), [], "b");
        let tl = price(&p);
        assert_eq!(span(&tl, a), (SimTime::ZERO, ms(10)));
        assert_eq!(
            span(&tl, b),
            (ms(10), ms(15)),
            "second op waits for the first"
        );
    }

    #[test]
    fn fifo_respects_readiness() {
        let mut p = Plan::new(1);
        let x = p.push(Lane::Compute(0), ms(6), [], "x");
        let y = p.push(Lane::CopyOut, ms(1), [(x, ms(1))], "y");
        let tl = price(&p);
        assert_eq!(span(&tl, y), (ms(7), ms(8)), "ready at dep end + gap");
    }

    #[test]
    fn fifo_utilization() {
        let mut p = Plan::new(1);
        let a = p.push(Lane::Compute(0), ms(60), [], "a");
        p.push(Lane::CopyIn, ms(30), [], "in");
        p.push(Lane::CopyOut, ms(1), [(a, SimTime::ZERO)], "out");
        let tl = price(&p);
        assert_eq!(tl.makespan(), ms(61));
        assert!((tl.utilization(Lane::CopyIn) - 30.0 / 61.0).abs() < 1e-9);
    }

    #[test]
    fn pool_runs_tasks_concurrently() {
        let mut p = Plan::new(3);
        let d = ms(10);
        let ops: Vec<OpId> = (0..4)
            .map(|i| p.push(Lane::CpuOptim, d, [], format!("adam {i}")))
            .collect();
        let tl = price(&p);
        for &op in &ops[..3] {
            assert_eq!(span(&tl, op), (SimTime::ZERO, d));
        }
        // Fourth task waits for the first free server.
        assert_eq!(span(&tl, ops[3]), (d, ms(20)));
        assert_eq!(tl.makespan(), ms(20));
    }

    #[test]
    fn pool_dispatch_is_deterministic() {
        let build = || {
            let mut p = Plan::new(4);
            for i in 0..20u64 {
                p.push(Lane::CpuOptim, SimTime::from_micros(100 + i * 7), [], "t");
            }
            price(&p)
        };
        let (a, b) = (build(), build());
        let spans = |tl: &Timeline| -> Vec<(SimTime, SimTime)> {
            tl.segments().iter().map(|s| (s.start, s.end)).collect()
        };
        assert_eq!(spans(&a), spans(&b));
        // The fifth task goes to the server that frees first (the shortest
        // of the first four), not to any later one.
        assert_eq!(a.segments()[4].start, SimTime::from_micros(100));
    }

    #[test]
    #[should_panic(expected = "earlier ops")]
    fn a_dependency_on_a_later_op_is_rejected() {
        let mut p = Plan::new(1);
        p.push(Lane::Compute(0), ms(1), [(0, SimTime::ZERO)], "self");
    }

    proptest! {
        #[test]
        fn prop_pool_k_times_faster_for_equal_tasks(
            workers in 1usize..8, tasks in 1usize..40, dur_ms in 1u64..50
        ) {
            let mut p = Plan::new(workers);
            for _ in 0..tasks {
                p.push(Lane::CpuOptim, ms(dur_ms), [], "t");
            }
            let rounds = tasks.div_ceil(workers) as u64;
            prop_assert_eq!(price(&p).makespan(), ms(rounds * dur_ms));
        }

        #[test]
        fn prop_fifo_end_equals_sum(durs in proptest::collection::vec(1u64..100, 1..30)) {
            let mut p = Plan::new(1);
            for d in &durs {
                p.push(Lane::Nvme, ms(*d), [], "io");
            }
            prop_assert_eq!(price(&p).makespan(), ms(durs.iter().sum()));
        }

        #[test]
        fn prop_random_dag_respects_deps_and_fifo(
            ops in proptest::collection::vec(
                (0u8..6, 0u64..50, proptest::collection::vec((0usize..1000, 0u64..20), 0..4)),
                1..60,
            ),
            workers in 1usize..4,
        ) {
            let lanes = [
                Lane::Compute(0),
                Lane::Compute(1),
                Lane::CopyIn,
                Lane::CopyOut,
                Lane::CpuOptim,
                Lane::Nvme,
            ];
            let mut p = Plan::new(workers);
            for (i, (lane, dur, deps)) in ops.iter().enumerate() {
                let after: Vec<(OpId, SimTime)> = if i == 0 {
                    Vec::new()
                } else {
                    deps.iter()
                        .map(|&(d, gap)| (d % i, SimTime::from_micros(gap)))
                        .collect()
                };
                p.push(lanes[*lane as usize], SimTime::from_micros(*dur), after, "op");
            }
            let tl = price(&p);
            prop_assert_eq!(tl.segments().len(), p.ops.len());
            for (op, seg) in p.ops.iter().zip(tl.segments()) {
                prop_assert_eq!(seg.lane, op.lane);
                prop_assert_eq!(seg.end - seg.start, op.dur);
                for &(dep, gap) in &op.after {
                    prop_assert!(seg.start >= tl.segments()[dep].end + gap);
                }
            }
            // FIFO lanes serve in push order without overlap (price also
            // asserts the overlap half); the pool never runs more than
            // `workers` ops at once.
            for lane in lanes.iter().filter(|l| **l != Lane::CpuOptim) {
                let mine: Vec<_> = tl.segments().iter().filter(|s| s.lane == *lane).collect();
                for w in mine.windows(2) {
                    prop_assert!(w[1].start >= w[0].end);
                }
            }
            let pool: Vec<_> = tl.segments().iter().filter(|s| s.lane == Lane::CpuOptim).collect();
            for s in &pool {
                let busy = pool.iter().filter(|o| o.start <= s.start && s.start < o.end).count();
                prop_assert!(busy <= workers);
            }
        }
    }
}
