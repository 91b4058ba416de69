//! Real multi-threaded collectives over in-memory buffers.
//!
//! This is the functional substitute for NCCL (GPU tensors) and Gloo (CPU
//! tensors): [`Communicator`] / [`CommRank`], a rendezvous for ranks that
//! already live on caller-owned threads (the data-parallel trainer's
//! replicas). Every rank publishes its contribution, waits on a barrier, and
//! reduces all `w` contributions locally with the canonical pairwise tree
//! over the rank index ([`crate::order::tree_reduce_into`]), so:
//!
//! * results are bit-identical across runs and thread interleavings — the
//!   reduction order depends only on rank numbering;
//! * results are invariant to how a gradient buffer is cut into buckets,
//!   because the association is over ranks, never over elements;
//! * each rank sends its full `E`-element contribution to the other `w − 1`
//!   ranks, so a step's traffic is exactly `w·(w − 1)·E` elements — the
//!   `V_dp` shape of §III-F that [`crate::volume::v_dp_exact`] predicts and
//!   the traffic-validation tests measure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, PoisonError, RwLock};

use crate::order::tree_reduce_into;

/// Reference all-reduce: the canonical pairwise tree over the rank index —
/// exactly what [`CommRank::allreduce_vec`] must reproduce bit-for-bit.
pub fn allreduce_reference(buffers: &[Vec<f32>]) -> Vec<f32> {
    let len = buffers[0].len();
    let mut acc = vec![0.0f32; len];
    let srcs: Vec<&[f32]> = buffers.iter().map(|v| v.as_slice()).collect();
    tree_reduce_into(&mut acc, &srcs, 0);
    acc
}

/// Most ranks one communicator serves: a rank reads the others'
/// contributions through a stack array this long.
const MAX_WORLD: usize = 64;

struct CommShared {
    world: usize,
    /// One contribution slot per rank. Writers hold the lock only between
    /// the two barriers of their own call, so readers never block writers.
    slots: Vec<RwLock<Vec<f32>>>,
    barrier: Barrier,
    bytes: AtomicU64,
    flushes: AtomicU64,
}

/// Shared-memory rendezvous collective for `world` ranks that live on
/// caller-owned threads (the data-parallel replicas).
///
/// [`Communicator::new`] hands out one [`CommRank`] per rank; every rank
/// must then issue the *same sequence* of [`CommRank::allreduce_vec`] calls
/// with identically-shaped arguments (the usual SPMD collective contract —
/// a mismatched sequence deadlocks on the barrier, exactly like NCCL).
pub struct Communicator {
    shared: Arc<CommShared>,
}

impl Communicator {
    /// A communicator over `world` ranks, with per-rank handles to move
    /// onto the replica threads.
    ///
    /// # Panics
    /// Panics if `world` is zero or above 64: a rank reads the others'
    /// contributions through a stack array.
    pub fn new(world: usize) -> (Communicator, Vec<CommRank>) {
        assert!(
            (1..=MAX_WORLD).contains(&world),
            "Communicator: world must be in 1..={MAX_WORLD}"
        );
        let shared = Arc::new(CommShared {
            world,
            slots: (0..world).map(|_| RwLock::new(Vec::new())).collect(),
            barrier: Barrier::new(world),
            bytes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        });
        let ranks = (0..world)
            .map(|rank| CommRank {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect();
        (Communicator { shared }, ranks)
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// Total bytes moved through the communicator so far, summed over all
    /// ranks: `w·(w − 1)·4·elements` per all-reduce.
    pub fn bytes_moved(&self) -> u64 {
        self.shared.bytes.load(Ordering::Acquire)
    }

    /// Number of all-reduce rendezvous completed (counted once per
    /// collective, not per rank).
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::Acquire)
    }
}

/// One rank's handle to a [`Communicator`]. `Send` — move it onto the
/// replica's thread.
pub struct CommRank {
    rank: usize,
    shared: Arc<CommShared>,
}

impl CommRank {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// All-reduce (sum) over a single contiguous buffer.
    pub fn allreduce(&self, buf: &mut [f32]) {
        self.allreduce_vec(|part| part(buf));
    }

    /// Vectored all-reduce (sum): the logical contribution is the
    /// concatenation of the parts `parts` hands to its callback, in order,
    /// reduced elementwise across ranks with the canonical rank tree and
    /// scattered back into those parts in place. `parts` is called twice —
    /// once to gather the contribution, once to scatter the result — and
    /// must hand out the same parts in the same order both times; the
    /// caller needs no list of them, and a call allocates nothing once
    /// this rank's slot has grown to the largest contribution.
    ///
    /// Because the reduction associates over *ranks*, the result for any
    /// element is independent of how the surrounding buffer was cut into
    /// parts — bucketing gradients into different flush granularities
    /// cannot change training results (the bucket-boundary invariance the
    /// proptests pin down).
    ///
    /// Every rank must call this with the same total element count.
    pub fn allreduce_vec(&self, mut parts: impl FnMut(&mut dyn FnMut(&mut [f32]))) {
        let shared = &*self.shared;
        if shared.world == 1 {
            return;
        }
        let total = {
            let mut slot = shared.slots[self.rank]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            slot.clear();
            parts(&mut |p| slot.extend_from_slice(p));
            slot.len()
        };
        if total == 0 {
            return;
        }
        // Publish barrier: all contributions visible before anyone reads.
        shared.barrier.wait();
        {
            let guards: [_; MAX_WORLD] = std::array::from_fn(|r| {
                let slot = shared.slots.get(r)?;
                Some(slot.read().unwrap_or_else(PoisonError::into_inner))
            });
            let srcs: [&[f32]; MAX_WORLD] =
                std::array::from_fn(|r| guards[r].as_deref().map_or(&[][..], Vec::as_slice));
            let srcs = &srcs[..shared.world];
            let mut off = 0usize;
            parts(&mut |p| {
                tree_reduce_into(p, srcs, off);
                off += p.len();
            });
        }
        // Drain barrier: nobody rewrites a slot while a peer still reads.
        shared.barrier.wait();
        // Each rank's contribution travels to the other w − 1 ranks.
        shared
            .bytes
            .fetch_add(((shared.world - 1) * total * 4) as u64, Ordering::AcqRel);
        if self.rank == 0 {
            shared.flushes.fetch_add(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_bufs(w: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i32 % 2001 - 1000) as f32 / 997.0
        };
        (0..w).map(|_| (0..len).map(|_| next()).collect()).collect()
    }

    fn run_communicator(bufs: &[Vec<f32>], splits: &[usize]) -> (Vec<Vec<f32>>, u64, u64) {
        let w = bufs.len();
        let (comm, ranks) = Communicator::new(w);
        let mut out = bufs.to_vec();
        std::thread::scope(|scope| {
            for (rank, buf) in ranks.into_iter().zip(out.iter_mut()) {
                let splits = splits.to_vec();
                scope.spawn(move || {
                    let mut rest: &mut [f32] = buf;
                    let mut parts: Vec<&mut [f32]> = Vec::new();
                    let mut prev = 0usize;
                    for &s in &splits {
                        let (head, tail) = rest.split_at_mut(s - prev);
                        parts.push(head);
                        rest = tail;
                        prev = s;
                    }
                    parts.push(rest);
                    rank.allreduce_vec(|part| parts.iter_mut().for_each(|p| part(p)));
                });
            }
        });
        (out, comm.bytes_moved(), comm.flushes())
    }

    #[test]
    fn communicator_matches_reference_bitwise() {
        let bufs = random_bufs(4, 97, 7);
        let expect = allreduce_reference(&bufs);
        let (comm, bytes, flushes) = run_communicator(&bufs, &[]);
        for (r, got) in comm.iter().enumerate() {
            assert_eq!(*got, expect, "communicator rank {r}");
        }
        assert_eq!(bytes, (4 * 3 * 97 * 4) as u64, "w(w-1)·len·4 bytes");
        assert_eq!(flushes, 1);
    }

    #[test]
    fn communicator_single_rank_is_free() {
        let bufs = random_bufs(1, 16, 3);
        let (out, bytes, flushes) = run_communicator(&bufs, &[4, 9]);
        assert_eq!(out[0], bufs[0]);
        assert_eq!(bytes, 0);
        assert_eq!(flushes, 0);
    }

    /// Satellite: repeat-run interleaving matrix. The OS schedules the rank
    /// threads differently on every run; results must not care.
    #[test]
    fn interleaving_repeat_run_matrix() {
        for w in [2usize, 3, 4] {
            let bufs = random_bufs(w, 257, w as u64);
            let expect = allreduce_reference(&bufs);
            for run in 0..8 {
                let (out, _, _) = run_communicator(&bufs, &[]);
                for (r, got) in out.iter().enumerate() {
                    assert_eq!(*got, expect, "w={w} run={run} rank={r}");
                }
            }
        }
    }

    /// A sequence of vectored all-reduces with per-rank jitter: later calls
    /// must not be perturbed by earlier rendezvous (barrier reuse is sound).
    #[test]
    fn sequential_collectives_stay_deterministic() {
        let w = 3usize;
        let rounds = 5usize;
        let all: Vec<Vec<Vec<f32>>> = (0..rounds)
            .map(|k| random_bufs(w, 64, 100 + k as u64))
            .collect();
        let run = || {
            let (comm, ranks) = Communicator::new(w);
            let mut state: Vec<Vec<Vec<f32>>> = (0..w)
                .map(|r| all.iter().map(|round| round[r].clone()).collect())
                .collect();
            std::thread::scope(|scope| {
                for (r, (rank, mine)) in ranks.into_iter().zip(state.iter_mut()).enumerate() {
                    scope.spawn(move || {
                        for (k, buf) in mine.iter_mut().enumerate() {
                            if (r + k) % 2 == 0 {
                                std::thread::yield_now();
                            }
                            rank.allreduce(buf);
                        }
                    });
                }
            });
            assert_eq!(comm.flushes(), rounds as u64);
            state
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        for (k, round) in all.iter().enumerate() {
            let expect = allreduce_reference(round);
            for (r, mine) in a.iter().enumerate() {
                assert_eq!(mine[k], expect, "round {k} rank {r}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The rendezvous and the reference agree **bitwise** for any world
        /// size and length, lengths below the world size included.
        #[test]
        fn prop_communicator_matches_reference_bitwise(
            w in 1usize..6,
            len in 0usize..64,
            seed in 0u64..1000
        ) {
            let bufs = random_bufs(w, len, seed);
            let (comm, _, _) = run_communicator(&bufs, &[]);
            if len > 0 {
                let expect = allreduce_reference(&bufs);
                for got in &comm {
                    prop_assert_eq!(got, &expect);
                }
            }
        }

        /// Bucket-boundary invariance: cutting the contribution at arbitrary
        /// points changes nothing, bit for bit.
        #[test]
        fn prop_bucket_boundaries_are_invisible(
            w in 1usize..5,
            len in 1usize..96,
            cuts in proptest::collection::vec(0usize..96, 0..4),
            seed in 0u64..1000
        ) {
            let bufs = random_bufs(w, len, seed);
            let mut splits: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            splits.sort_unstable();
            splits.dedup();
            splits.retain(|&s| s > 0 && s < len);
            let (whole, bytes_whole, _) = run_communicator(&bufs, &[]);
            let (cut, bytes_cut, _) = run_communicator(&bufs, &splits);
            prop_assert_eq!(&whole, &cut);
            prop_assert_eq!(bytes_whole, bytes_cut);
            prop_assert_eq!(bytes_whole, (w * (w - 1) * len * 4) as u64);
        }
    }
}
