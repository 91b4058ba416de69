//! Real multi-replica data parallelism over the windowed backend (§III-F).
//!
//! [`DataParallelTrainer`] drives `w` full [`WindowedBackend`] replicas —
//! scoped threads sharing one process — through the threaded in-memory
//! collectives in `stronghold_collective::real`. Each replica trains on a
//! contiguous shard of the global batch; finished layer gradients rendezvous
//! in DDP-style buckets ([`AllReduceSink`]) that all-reduce as soon as the
//! bucket's last gradient lands, overlapping communication with the rest of
//! backward on the streaming path.
//!
//! Three properties the test suite pins down:
//!
//! * **Bit-identity.** For a power-of-two replica count dividing the batch,
//!   every replica's sample fold is a subtree of the canonical reduction
//!   tree over the global batch (see `stronghold_collective::order`), and
//!   the all-reduce folds the replica partials with the same tree over the
//!   rank index — so `w`-replica training is *bit-identical* to a
//!   single-replica run on the whole batch, bucket sizes and thread
//!   interleavings notwithstanding.
//! * **Exact traffic.** Every element crossing ranks is counted; per step
//!   the byte counters equal `4 · V_dp = 4 · w·(w−1)·E` where `E` is the
//!   per-replica gradient element count — the §III-F volume formula with
//!   zero tolerance.
//! * **Zero steady-state allocation.** Bucket buffers come from and return
//!   to the optimizer pool's recycler, and the communicator's rendezvous
//!   slots grow once; the steady-state step allocates nothing new.
//!
//! Telemetry: `comm.allreduce_bytes` (bytes through the collective, summed
//! over ranks), `comm.bucket_flushes` (bucket all-reduces), spans on the
//! `"comm"` track, and the `comm.overlap_ns` gauge (cumulative
//! communication/compute overlap).

use std::sync::{Arc, Mutex};

use stronghold_collective::order::tree_sum;
use stronghold_collective::real::{CommRank, Communicator};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::Transformer;

use crate::error::RuntimeError;
use crate::host::autotune::AutotuneController;
use crate::host::engine::{Engine, GradSink, ParamBackend};
use crate::host::offloaded::{HostOffloadConfig, WindowedBackend};
use crate::telemetry::{Counter, Gauge, Telemetry};

/// Configuration for [`DataParallelTrainer`]: the replica count and the
/// gradient-bucket size around one per-replica [`HostOffloadConfig`].
#[derive(Clone, Debug)]
pub struct DataParallelConfig {
    /// Number of model replicas (`w`). Bit-identity with single-replica
    /// training requires a power of two dividing the batch size; any
    /// `w ≥ 1` that divides the batch trains deterministically.
    pub replicas: usize,
    /// Gradient bucket size in **bytes**: consecutive backward-order layers
    /// are grouped until a bucket holds at least this many gradient bytes,
    /// then all-reduced together. `usize::MAX` (the default) means one
    /// whole-model bucket; small values all-reduce layer by layer,
    /// maximizing communication/backward overlap.
    pub bucket_bytes: usize,
    /// The single-node runtime every replica runs unchanged (§III-F);
    /// budgets and worker counts are per replica. Three fields gain a
    /// group-level reading: `clip_norm` clips against the norm of the
    /// *reduced* gradients (what a single-replica run over the global batch
    /// would clip against); `precision` rounds per replica at D2H, before
    /// the collective, which always rendezvous FP32 gradients; and
    /// `autotune` configures one controller at the *trainer* level
    /// (per-replica controllers could diverge and break the SPMD lockstep)
    /// that observes the global step time and the replica-summed stall
    /// signals and applies every proposal to all replicas identically.
    pub host: HostOffloadConfig,
}

impl Default for DataParallelConfig {
    fn default() -> Self {
        DataParallelConfig {
            replicas: 2,
            bucket_bytes: usize::MAX,
            host: HostOffloadConfig {
                optimizer_workers: 2,
                ..HostOffloadConfig::default()
            },
        }
    }
}

/// Static assignment of layers to gradient buckets.
///
/// Buckets fill in backward order (descending layers): bucket 0 holds the
/// last `per_bucket` layers, bucket 1 the `per_bucket` before those, and so
/// on — so the bucket whose gradients finish first also flushes first, and
/// its all-reduce overlaps the remaining layers' backward.
#[derive(Clone, Copy, Debug)]
struct BucketPlan {
    layers: usize,
    per_bucket: usize,
}

impl BucketPlan {
    fn new(layers: usize, layer_bytes: usize, bucket_bytes: usize) -> Self {
        let per = (bucket_bytes / layer_bytes.max(1)).clamp(1, layers.max(1));
        BucketPlan {
            layers,
            per_bucket: per,
        }
    }

    fn buckets(&self) -> usize {
        self.layers.div_ceil(self.per_bucket)
    }

    /// Inclusive ascending layer range `[lo, hi]` covered by bucket `b`.
    fn range(&self, b: usize) -> (usize, usize) {
        let hi = self.layers - 1 - b * self.per_bucket;
        let lo = self.layers.saturating_sub((b + 1) * self.per_bucket);
        (lo, hi)
    }

    /// Layers of bucket `b` in flush (descending / backward) order.
    fn layers_of(&self, b: usize) -> impl Iterator<Item = usize> {
        let (lo, hi) = self.range(b);
        (lo..=hi).rev()
    }
}

struct BucketState {
    /// Per-layer parked gradients awaiting their bucket's completion.
    pending: Vec<Option<Vec<f32>>>,
    /// Next bucket to flush. Buckets flush strictly in plan order so every
    /// rank issues the identical collective sequence (the SPMD contract of
    /// [`CommRank`]) no matter how its offload workers interleave.
    next: usize,
}

/// One rank's gradient sink: parks streaming layer gradients into buckets,
/// all-reduces each bucket across the replica group the moment it completes,
/// and only then releases the (now replica-summed) gradients to the
/// optimizer pipeline.
pub struct AllReduceSink {
    comm: CommRank,
    plan: BucketPlan,
    state: Mutex<BucketState>,
    tel: Telemetry,
    bytes: Counter,
    flushes: Counter,
}

impl AllReduceSink {
    fn new(comm: CommRank, plan: BucketPlan, tel: Telemetry) -> Self {
        let bytes = tel.counter("comm.allreduce_bytes");
        let flushes = tel.counter("comm.bucket_flushes");
        AllReduceSink {
            comm,
            plan,
            state: Mutex::new(BucketState {
                pending: (0..plan.layers).map(|_| None).collect(),
                next: 0,
            }),
            tel,
            bytes,
            flushes,
        }
    }

    /// All-reduces `parts` (one collective over their concatenation) and
    /// accounts the traffic: each rank moves `(w−1)` copies of the buffer
    /// across ranks, so the counters sum to exactly `4·w·(w−1)·len` bytes.
    fn allreduce(&self, parts: &mut [&mut [f32]], what: &str, count_flush: bool) {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let span = self.tel.span("comm", format!("allreduce {what}"));
        self.comm.allreduce_vec(parts);
        span.end();
        self.bytes
            .add((self.comm.world().saturating_sub(1) * total * 4) as u64);
        if count_flush {
            self.flushes.add(1);
        }
    }

    fn flush_bucket(
        &self,
        st: &mut BucketState,
        b: usize,
        deliver: &(dyn Fn(usize, Vec<f32>) + Sync),
    ) {
        let layers: Vec<usize> = self.plan.layers_of(b).collect();
        let mut bufs: Vec<Vec<f32>> = layers
            .iter()
            .map(|&l| st.pending[l].take().expect("bucket layer pending"))
            .collect();
        {
            let mut parts: Vec<&mut [f32]> = bufs.iter_mut().map(|v| v.as_mut_slice()).collect();
            self.allreduce(&mut parts, &format!("bucket {b}"), true);
        }
        for (l, buf) in layers.into_iter().zip(bufs) {
            deliver(l, buf);
        }
    }
}

impl GradSink for AllReduceSink {
    fn layer_ready(
        &self,
        layer: usize,
        grad: Vec<f32>,
        deliver: &(dyn Fn(usize, Vec<f32>) + Sync),
    ) {
        let mut guard = self.state.lock().expect("bucket state");
        let st: &mut BucketState = &mut guard;
        st.pending[layer] = Some(grad);
        // Flush every bucket that just became complete. The mutex is held
        // across the collective on purpose: it serializes this rank's
        // flushes (keeping the SPMD sequence), while cross-rank progress
        // only needs the *other* ranks' own flush calls, which use their
        // own locks.
        while st.next < self.plan.buckets()
            && self
                .plan
                .layers_of(st.next)
                .all(|l| st.pending[l].is_some())
        {
            let b = st.next;
            self.flush_bucket(st, b, deliver);
            st.next = b + 1;
        }
    }

    fn reduce_step(&self, grads: &mut [Vec<f32>]) {
        // Deferred path: same buckets, same descending-layer order, one
        // collective per bucket — the identical SPMD sequence the streaming
        // path issues, just all at once.
        for b in 0..self.plan.buckets() {
            let (lo, hi) = self.plan.range(b);
            let mut parts: Vec<&mut [f32]> = grads[lo..=hi]
                .iter_mut()
                .rev()
                .map(|v| v.as_mut_slice())
                .collect();
            self.allreduce(&mut parts, &format!("bucket {b}"), true);
        }
    }

    fn reduce_resident(&self, groups: [&mut [f32]; 4]) {
        // Called exactly once per step, after every bucket has flushed:
        // reset the bucket cursor for the next step, then reduce the four
        // resident groups in one vectored collective.
        {
            let mut st = self.state.lock().expect("bucket state");
            debug_assert!(st.pending.iter().all(Option::is_none));
            st.next = 0;
        }
        let mut parts: Vec<&mut [f32]> = groups.into_iter().collect();
        self.allreduce(&mut parts, "resident", false);
    }
}

/// `w` windowed replicas with rank-sharded batches, bucketed gradient
/// all-reduce, and a shared per-step barrier (the scope join).
pub struct DataParallelTrainer {
    engines: Vec<Engine<WindowedBackend>>,
    comm: Communicator,
    tel: Telemetry,
    overlap_gauge: Gauge,
    /// Trainer-level controller; proposals apply to every replica so the
    /// group stays in SPMD lockstep (see [`DataParallelConfig::autotune`]).
    autotune: Option<AutotuneController>,
}

impl DataParallelTrainer {
    /// Builds `dp.replicas` identical replicas (same `seed`, so identical
    /// initial parameters) wired to a fresh in-process communicator, with
    /// no telemetry.
    ///
    /// # Panics
    /// Panics if `dp.replicas == 0`.
    pub fn new(cfg: ModelConfig, seed: u64, dp: DataParallelConfig) -> Self {
        DataParallelTrainer::with_telemetry(cfg, seed, dp, Telemetry::disabled())
    }

    /// [`DataParallelTrainer::new`] recording into `tel`: everything the
    /// per-replica backends record, plus `comm.allreduce_bytes`,
    /// `comm.bucket_flushes`, `"comm"`-track spans, and the cumulative
    /// `comm.overlap_ns` gauge.
    pub fn with_telemetry(
        cfg: ModelConfig,
        seed: u64,
        dp: DataParallelConfig,
        tel: Telemetry,
    ) -> Self {
        assert!(dp.replicas >= 1, "need at least one replica");
        // Tuning is driven by the single trainer-level controller, not
        // per-replica engine controllers (which could diverge).
        let hocfg = HostOffloadConfig {
            autotune: None,
            ..dp.host
        };
        let (comm, ranks) = Communicator::new(dp.replicas);
        let engines: Vec<Engine<WindowedBackend>> = ranks
            .into_iter()
            .map(|rank| {
                let backend =
                    WindowedBackend::from_model(Transformer::new(cfg, seed), &hocfg, tel.clone());
                let layer_bytes = backend.block_elems() * 4;
                let plan = BucketPlan::new(cfg.layers, layer_bytes, dp.bucket_bytes);
                let sink = Arc::new(AllReduceSink::new(rank, plan, tel.clone()));
                Engine::with_sink(backend, hocfg.engine_options(), sink)
            })
            .collect();
        let overlap_gauge = tel.gauge("comm.overlap_ns");
        let autotune = dp.host.autotune.and_then(|acfg| {
            let replica = &engines[0];
            replica
                .tune_limits()
                .map(|limits| AutotuneController::new(acfg, limits, replica.current_tuning(), &tel))
        });
        DataParallelTrainer {
            engines,
            comm,
            tel,
            overlap_gauge,
            autotune,
        }
    }

    /// The live trainer-level autotune controller, when configured.
    pub fn autotune(&self) -> Option<&AutotuneController> {
        self.autotune.as_ref()
    }

    /// The replica count `w`.
    pub fn replicas(&self) -> usize {
        self.comm.world()
    }

    /// Replica `rank`'s trainer — the unchanged single-node runtime. All
    /// replicas hold bit-identical parameters after [`Self::flush`], so
    /// `replica(0)` answers for the group (`window`, `steps`, `eval_loss`,
    /// `block_params`, `save_training_state`, …).
    pub fn replica(&self, rank: usize) -> &Engine<WindowedBackend> {
        &self.engines[rank]
    }

    /// The telemetry handle all replicas and the collective record into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Total bytes moved through the collective so far (all ranks).
    pub fn allreduce_bytes(&self) -> u64 {
        self.comm.bytes_moved()
    }

    /// Collective calls issued so far (bucket flushes + resident reduces).
    pub fn collective_calls(&self) -> u64 {
        self.comm.flushes()
    }

    /// One data-parallel training step over the *global* batch; every
    /// replica takes its contiguous `batch.len() / w` shard. Returns the
    /// mean loss over the whole batch, computed with the canonical
    /// reduction tree (bit-identical to a single-replica step when `w` is a
    /// power of two).
    ///
    /// # Panics
    /// Panics if the batch size is not a positive multiple of `w`.
    pub fn train_step(&mut self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        let b = batch.len();
        let w = self.engines.len();
        assert!(
            b >= w && b.is_multiple_of(w),
            "global batch {b} not divisible into {w} replica shards"
        );
        let shard = b / w;
        for e in &mut self.engines {
            e.backend_mut().set_global_batch(b);
        }
        let tune_t0 = self.autotune.as_ref().map(|_| std::time::Instant::now());
        // Raw (undivided) shard loss partials, in rank order: each rank's
        // engine returns the canonical tree-sum over its shard because the
        // backend runs in global-batch mode.
        let raw: Vec<f32> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .engines
                .iter_mut()
                .enumerate()
                .map(|(r, eng)| {
                    let my = &batch[r * shard..(r + 1) * shard];
                    scope.spawn(move || eng.train_step(my))
                })
                .collect();
            // The step barrier: every replica finishes (and has flushed its
            // collective sequence) before the step completes.
            handles
                .into_iter()
                .map(|h| h.join().expect("replica step"))
                .collect()
        });
        if self.tel.is_enabled() {
            self.overlap_gauge
                .set(self.tel.overlap_nanos("comm", "compute") as i64);
        }
        // One controller for the whole group: replica-summed signals in,
        // one proposal out, applied to every rank identically.
        if let (Some(ctrl), Some(t0)) = (self.autotune.as_mut(), tune_t0) {
            Engine::tune_group(ctrl, t0, &mut self.engines);
        }
        tree_sum(&raw) / b as f32
    }

    /// Blocks until every replica's in-flight optimizer updates — and, for
    /// a tiered store, its spill-tier write-backs — land.
    pub fn flush(&self) {
        for e in &self.engines {
            e.flush();
        }
    }

    /// Validates a configuration against a model shape without building the
    /// replicas: replica count, window, and batch divisibility.
    pub fn validate(
        cfg: &ModelConfig,
        dp: &DataParallelConfig,
        global_batch: usize,
    ) -> Result<(), RuntimeError> {
        if dp.replicas == 0 {
            return Err(RuntimeError::Config("replicas must be ≥ 1".into()));
        }
        if global_batch == 0 || !global_batch.is_multiple_of(dp.replicas) {
            return Err(RuntimeError::Config(format!(
                "global batch {global_batch} is not a positive multiple of {} replicas",
                dp.replicas
            )));
        }
        if dp.host.window == 0 || dp.host.window > cfg.layers {
            return Err(RuntimeError::Config(format!(
                "window {} outside 1..={} layers",
                dp.host.window, cfg.layers
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::AdamParams;
    use crate::host::autotune::StallSignals;
    use stronghold_model::config::tiny;
    use stronghold_model::data::SyntheticCorpus;

    fn dp_config(replicas: usize) -> DataParallelConfig {
        DataParallelConfig {
            replicas,
            host: HostOffloadConfig {
                adam: AdamParams {
                    lr: 2e-3,
                    ..AdamParams::default()
                },
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        }
    }

    fn batch(cfg: &ModelConfig, n: usize, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        SyntheticCorpus::new(cfg.vocab, seed).next_batch(n, cfg.seq - 1)
    }

    #[test]
    fn bucket_plan_partitions_layers() {
        for layers in 1..9 {
            for per in 1..=layers {
                let plan = BucketPlan::new(layers, 4, per * 4);
                let mut seen: Vec<usize> = (0..plan.buckets())
                    .flat_map(|b| plan.layers_of(b).collect::<Vec<_>>())
                    .collect();
                // Flush order is descending overall.
                let mut sorted = seen.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(seen, sorted, "layers={layers} per={per}");
                seen.sort_unstable();
                assert_eq!(seen, (0..layers).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn bucket_plan_respects_byte_budget() {
        // 6 layers of 100 bytes, 250-byte buckets -> 2 layers per bucket.
        let plan = BucketPlan::new(6, 100, 250);
        assert_eq!(plan.per_bucket, 2);
        assert_eq!(plan.buckets(), 3);
        assert_eq!(plan.range(0), (4, 5));
        assert_eq!(plan.range(2), (0, 1));
        // Whole-model bucket.
        let plan = BucketPlan::new(6, 100, usize::MAX);
        assert_eq!(plan.buckets(), 1);
    }

    #[test]
    fn two_replicas_match_one_replica_bitwise() {
        let cfg = tiny(3);
        let data = batch(&cfg, 8, 60);
        let mut one = DataParallelTrainer::new(cfg, 21, dp_config(1));
        let mut two = DataParallelTrainer::new(cfg, 21, dp_config(2));
        for _ in 0..3 {
            let a = one.train_step(&data);
            let b = two.train_step(&data);
            assert_eq!(a, b, "losses diverged");
        }
        one.flush();
        two.flush();
        for i in 0..cfg.layers {
            assert_eq!(
                one.replica(0).block_params(i),
                two.replica(0).block_params(i),
                "block {i}"
            );
            assert_eq!(
                two.replica(0).block_params(i),
                two.replica(1).block_params(i),
                "replicas out of lockstep at block {i}"
            );
        }
    }

    #[test]
    fn traffic_matches_formula_per_step() {
        let cfg = tiny(3);
        let data = batch(&cfg, 8, 61);
        let mut t = DataParallelTrainer::new(cfg, 22, dp_config(2));
        let e = t.replica(0).grad_elements();
        let per_step = 4 * stronghold_collective::v_dp_exact(2, e);
        for step in 1..=3u64 {
            t.train_step(&data);
            assert_eq!(t.allreduce_bytes(), per_step * step, "after step {step}");
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let cfg = tiny(3);
        let dp = DataParallelConfig::default();
        assert!(DataParallelTrainer::validate(&cfg, &dp, 8).is_ok());
        assert!(DataParallelTrainer::validate(&cfg, &dp, 7).is_err());
        assert!(DataParallelTrainer::validate(&cfg, &dp, 0).is_err());
        let bad = DataParallelConfig {
            replicas: 0,
            ..DataParallelConfig::default()
        };
        assert!(DataParallelTrainer::validate(&cfg, &bad, 8).is_err());
        let bad = DataParallelConfig {
            host: HostOffloadConfig {
                window: 99,
                ..DataParallelConfig::default().host
            },
            ..DataParallelConfig::default()
        };
        assert!(DataParallelTrainer::validate(&cfg, &bad, 8).is_err());
    }

    #[test]
    fn stall_signal_sum_covers_every_field() {
        let one = StallSignals {
            fetch_wait_ns: 1,
            shell_wait_ns: 1,
            d2h_wait_ns: 1,
            fill_wait_ns: 1,
            optim_backlog: 1,
        };
        let two = StallSignals {
            fetch_wait_ns: 2,
            shell_wait_ns: 2,
            d2h_wait_ns: 2,
            fill_wait_ns: 2,
            optim_backlog: 2,
        };
        assert_eq!(one + one, two);
    }
}
