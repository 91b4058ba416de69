//! The offloaded trainer: STRONGHOLD's working-window pipeline with real
//! threads and real tensor math.
//!
//! Roles (mirroring Fig. 3):
//!
//! * **CPU store** — [`LayerStore`] holds every block's parameters and Adam
//!   state in "pinned host memory";
//! * **prefetcher thread** — the H2D copy engine (`host::stream`): loads
//!   layers into reusable device *shells* (the §III-E3 buffer pool) in FP
//!   order and then in BP order, blocking when no shell is free (the window
//!   bound) or when a layer's update from the previous iteration is still
//!   pending;
//! * **compute thread** — runs FP/BP batch-major with activation
//!   checkpointing, keeps the last `m` layers resident across the FP→BP
//!   turn, and streams gradients off-device as each layer's backward ends;
//! * **optimizer pool** — [`OptimizerPool`] actors apply Adam concurrently
//!   with the next step's forward work (§III-E1).
//!
//! The pipeline is constructed so its floating-point operation sequence is
//! *identical* to [`HostResidentTrainer`](crate::host::resident::HostResidentTrainer)'s
//! — the equivalence tests assert bit-equal parameters after training. Step
//! policy (clipping, LR schedule, optimizer dispatch order, checkpointing)
//! lives in the shared [`Engine`]; this module is only the
//! [`WindowedBackend`] mechanism, and [`HostOffloadTrainer`] *is*
//! `Engine<WindowedBackend>` (the model-building constructors live here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam_channel::bounded;
use stronghold_collective::order::{fold_with, tree_sum, FoldPlan};
use stronghold_model::block::{Block, BlockGrads};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{Transformer, TransformerGrads};
use stronghold_tensor::{scratch, Precision, Tensor};

use crate::adam::{AdamParams, AdamState};
use crate::clip::GlobalNorm;
use crate::error::RuntimeError;
use crate::hooks::{HookCtx, HookPoint, HookRegistry};
use crate::host::autotune::{AutotuneConfig, StallSignals, TuneLimits, Tuning};
use crate::host::device::HostDevice;
use crate::host::engine::{
    Engine, EngineOptions, GradSink, ParamBackend, ResidentParamsMut, StepPlan, StepWorkspace,
    TrainingState,
};
use crate::host::stream::{LayerStream, Pass};
use crate::optimpool::{LayerStore, OptimizerPool};
use crate::schedule::LrSchedule;
use crate::telemetry::Telemetry;
use crate::tier::{SpillPolicy, TierPlan};

/// Configuration of the functional offloaded trainer.
#[derive(Clone, Copy, Debug)]
pub struct HostOffloadConfig {
    /// Working-window size in layers (`m`).
    pub window: usize,
    /// Concurrent CPU optimizer actors.
    pub optimizer_workers: usize,
    /// Dedicated gradient-offload (D2H copy engine) threads (clamped to
    /// ≥ 1): layer `i`'s flatten/copy/accounting overlaps layer `i−1`'s
    /// backward. Results are bit-identical for every count — only *where*
    /// the flatten runs changes.
    pub offload_workers: usize,
    /// Worker threads for the per-sample forward / recompute-backward
    /// fan-out inside one layer. `1` keeps compute single-threaded (and the
    /// steady-state step loop allocation-free: fresh worker threads start
    /// with empty scratch pools); higher values trade allocations for
    /// batch parallelism. The sample-order gradient fold keeps results
    /// bit-identical for every value.
    pub compute_workers: usize,
    /// Adam hyper-parameters.
    pub adam: AdamParams,
    /// Per-step learning-rate schedule (None → constant `adam.lr`).
    pub schedule: Option<LrSchedule>,
    /// Global gradient-norm clip threshold. `None` → no clipping, and each
    /// layer's Adam update is dispatched as soon as its gradient lands
    /// (§III-E1 BP/optimizer overlap); `Some` defers dispatch to the end of
    /// the step. See [`EngineOptions::clip_norm`].
    pub clip_norm: Option<f32>,
    /// Closed-loop autotuning of the window and worker counts (None →
    /// static configuration). The `window` / `*_workers` fields above
    /// become the controller's starting point; see
    /// [`crate::host::autotune`].
    pub autotune: Option<AutotuneConfig>,
    /// Device-residency / transfer precision. With `Bf16`/`F16` the
    /// prefetcher streams half-width parameters H2D and the offload engine
    /// streams half-width gradients D2H (`device.h2d_bytes`/`d2h_bytes`
    /// exactly halved), while CPU master weights and Adam moments stay FP32
    /// in the [`LayerStore`]/[`OptimizerPool`]. Device shells hold the
    /// round-through-half parameter grid, so block slots cost
    /// `param_count · 2` bytes and a fixed [`Self::device_capacity`] admits
    /// a window twice as deep. `F32` (the default) keeps the trainer
    /// bit-identical to the resident reference; half modes carry the
    /// bounded divergence stated in DESIGN.md.
    pub precision: Precision,
    /// Explicit device-arena byte budget. `None` (the default) sizes the
    /// arena to the configured window — `(m+1)` block slots, exactly as
    /// before. `Some(bytes)` fixes the arena capacity instead and derives
    /// the *maximum* window from it (`⌊bytes / block_bytes⌋ − 1`, clamped
    /// to the layer count): the configured `window` is clamped to that
    /// bound, [`crate::host::autotune::TuneLimits`] exposes it as
    /// `window.max`, and the capacity never changes across retuning. A
    /// budget below two block slots (a window of one) is refused at
    /// construction. Since
    /// `block_bytes` scales with [`Self::precision`], a half mode doubles
    /// the window the same budget admits.
    pub device_capacity: Option<u64>,
    /// Host-RAM byte budget for the resident FP32 masters + Adam moments
    /// (12 bytes/param/layer), mirroring [`Self::device_capacity`] one tier
    /// down. `None` (the default) keeps every layer resident. `Some(bytes)`
    /// spills the cheapest layers to a file-backed swap tier (§III-G) until
    /// the resident image fits — see [`crate::tier::TierPlan`]. Spilled
    /// layers train **bit-identically**: f32 ↔ file round trips are exact,
    /// so placement never enters the math.
    pub host_capacity: Option<u64>,
    /// Which layers spill when `host_capacity` binds (or, with
    /// [`SpillPolicy::All`], unconditionally — the stress configuration).
    pub spill: SpillPolicy,
    /// Async spill/fill I/O threads for the file tier (clamped to ≥ 1 when
    /// any layer spills; the autotuner can resize this live via the
    /// `spill_workers` knob).
    pub spill_workers: usize,
}

impl Default for HostOffloadConfig {
    fn default() -> Self {
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 4,
            offload_workers: 1,
            compute_workers: 1,
            adam: AdamParams::default(),
            schedule: None,
            clip_norm: None,
            autotune: None,
            precision: Precision::F32,
            device_capacity: None,
            host_capacity: None,
            spill: SpillPolicy::CostAware,
            spill_workers: 1,
        }
    }
}

impl HostOffloadConfig {
    pub(crate) fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            adam: self.adam,
            schedule: self.schedule,
            clip_norm: self.clip_norm,
            autotune: self.autotune,
            precision: self.precision,
        }
    }
}

/// One layer's gradient offload, handed from the compute thread to the D2H
/// engine. Carries the *owned* accumulator (returned after the copy so the
/// backend can reuse it next step) plus the workspace destinations the
/// engine will read.
struct OffloadJob<'a> {
    layer: usize,
    grads: BlockGrads,
    /// Deferred-dispatch destination: `ws.block_grads[layer]`.
    dst: &'a mut Vec<f32>,
    enqueue_ns: u64,
    /// Wall-clock enqueue time for the always-on autotuner signal (the
    /// telemetry clock above reads zero when telemetry is disabled).
    enqueue_at: std::time::Instant,
}

/// Per-sample forward fan-out across `workers` scoped threads, folding the
/// outputs back in sample order (contiguous chunks, joined in chunk order).
/// Each sample's op sequence is untouched, so the result is bit-identical
/// to the serial loop for any worker count.
fn parallel_forward(block: &Block, xs: &[Tensor], workers: usize) -> Vec<Tensor> {
    if workers <= 1 || xs.len() < 2 {
        return xs.iter().map(|x| block.forward_no_cache(x)).collect();
    }
    let chunk = xs.len().div_ceil(workers.min(xs.len()));
    std::thread::scope(|s| {
        let handles: Vec<_> = xs
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    c.iter()
                        .map(|x| block.forward_no_cache(x))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fp worker"))
            .collect()
    })
}

/// Per-sample recompute-backward fan-out: sample `s` recomputes its forward
/// from the checkpoint, runs backward into its own zeroed gradient slot
/// `slots[s]`, and swaps `dy[s]` for the propagated input gradient. The
/// caller folds the slots into the step accumulator in ascending sample
/// order, which is exactly the serial op sequence.
fn parallel_backward(
    block: &Block,
    inputs: &[Tensor],
    dy: &mut [Tensor],
    slots: &mut [BlockGrads],
    workers: usize,
) {
    let one = |x: &Tensor, d: &mut Tensor, sg: &mut BlockGrads| {
        sg.zero_();
        let (y, cache) = block.forward(x); // recompute from checkpoint
        scratch::give(y);
        let dxs = block.backward(d, x, &cache, sg);
        cache.recycle();
        scratch::give(std::mem::replace(d, dxs));
    };
    let b = inputs.len();
    if workers <= 1 || b < 2 {
        for s in 0..b {
            one(&inputs[s], &mut dy[s], &mut slots[s]);
        }
        return;
    }
    let chunk = b.div_ceil(workers.min(b));
    std::thread::scope(|s| {
        for ((ic, dc), sc) in inputs
            .chunks(chunk)
            .zip(dy.chunks_mut(chunk))
            .zip(slots.chunks_mut(chunk))
        {
            let one = &one;
            s.spawn(move || {
                for ((x, d), sg) in ic.iter().zip(dc.iter_mut()).zip(sc.iter_mut()) {
                    one(x, d, sg);
                }
            });
        }
    });
}

/// The working-window placement backend: block parameters live in a
/// [`LayerStore`], travel H2D through a bounded shell pool, and updates are
/// dispatched to concurrent optimizer actors.
pub struct WindowedBackend {
    cfg: ModelConfig,
    /// Embedding + final-LN shell; its `blocks` vector is empty — block
    /// parameters live in the store and are materialized on demand.
    shell: Transformer,
    store: Arc<LayerStore>,
    pool: OptimizerPool,
    /// The H2D side: device arena, `m+1` shells, prefetcher.
    stream: LayerStream,
    tel: Telemetry,
    /// Per-layer gradient buffers (never reallocated). Each step, BP swaps
    /// one for its layer's fold root — the old contents are never read, the
    /// next fold leaf overwrites them — and the offload engine returns it.
    step_grads: Vec<BlockGrads>,
    /// Per-sample BP gradient scratch, zeroed per sample in the inner loop.
    sample_grads: BlockGrads,
    /// Per-sample head/embedding scratches (grown to the largest batch seen).
    head_scratches: Vec<TransformerGrads>,
    /// Per-sample BP gradient slots for the batch-parallel fan-out (grown to
    /// the largest batch seen; empty while `compute_workers == 1`).
    bp_slots: Vec<BlockGrads>,
    /// Canonical-tree merge schedule for every batch fan-in this step.
    fold_plan: FoldPlan,
    /// Reusable block-shaped partials for the per-layer gradient tree.
    bp_fold_slots: Vec<BlockGrads>,
    /// Reusable resident-group partials for the embedding/final-LN tree.
    resident_fold_slots: Vec<TransformerGrads>,
    /// Reusable per-sample raw loss buffer for the loss tree.
    loss_buf: Vec<f32>,
    /// Streaming-path norm partials (f64 bits), written by whichever thread
    /// delivers the reduced gradient to the optimizer.
    norm_bits: Vec<AtomicU64>,
    /// When this backend is one rank of a data-parallel group: the global
    /// batch size. Gradient scaling uses `1/global` (matching a
    /// single-replica run over the whole batch) and `forward_backward`
    /// returns the *raw* shard loss partial for the driver to combine.
    global_batch: Option<usize>,
    /// Gradient-offload (D2H) engine threads; see
    /// [`HostOffloadConfig::offload_workers`].
    offload_workers: usize,
    /// Batch-parallel compute fan-out; see
    /// [`HostOffloadConfig::compute_workers`].
    compute_workers: usize,
    /// Cumulative gradient-queue wait before a D2H worker picked the job up
    /// (autotuner input). Measured with `Instant`, like the stream's two
    /// clocks: the telemetry clock reads zero when telemetry is disabled.
    d2h_wait_ns: AtomicU64,
    /// Per-layer host-tier placement (all-RAM unless `host_capacity` /
    /// `spill` demand a file tier).
    tier_plan: TierPlan,
}

impl WindowedBackend {
    /// Splits an existing model into the resident shell and the offloaded
    /// layer store.
    pub(crate) fn from_model(
        model: Transformer,
        hocfg: &HostOffloadConfig,
        tel: Telemetry,
    ) -> Self {
        let cfg = model.cfg;
        let mut shell = model;
        let blocks = std::mem::take(&mut shell.blocks);
        let flats: Vec<Vec<f32>> = blocks.iter().map(|b| b.flatten_params()).collect();
        let template =
            (blocks.into_iter().next()).expect("offloaded trainer needs at least one block");
        let block_elems = template.param_count();
        // A device block slot holds the layer at transfer precision — half
        // modes halve it, which is what doubles the window a fixed arena
        // budget admits. The stream clamps the window to what the arena
        // admits and sizes an unbudgeted arena to it.
        let stream = LayerStream::new(
            template,
            cfg.layers,
            hocfg.precision,
            hocfg.window,
            hocfg.device_capacity,
            0,
            &tel,
        );
        // Host-tier placement: deterministic, derived from the RAM budget
        // and the (known) layer schedule. The store pages `Tier::File`
        // layers through the async spill engine; with nothing spilled it
        // degenerates to the classic resident store.
        let tier_plan = TierPlan::plan(
            cfg.layers,
            block_elems,
            stream.window(),
            hocfg.host_capacity,
            hocfg.spill,
        );
        let store = LayerStore::tiered(flats, &tier_plan, hocfg.spill_workers.max(1), &tel)
            .expect("create spill tier swap file");
        let pool = OptimizerPool::with_telemetry(
            Arc::clone(&store),
            hocfg.adam,
            hocfg.optimizer_workers.max(1),
            &tel,
        );
        let step_grads = (0..cfg.layers).map(|_| stream.zero_grads()).collect();
        let sample_grads = stream.zero_grads();
        WindowedBackend {
            cfg,
            shell,
            store,
            pool,
            stream,
            tel,
            step_grads,
            sample_grads,
            head_scratches: Vec::new(),
            bp_slots: Vec::new(),
            fold_plan: FoldPlan::default(),
            bp_fold_slots: Vec::new(),
            resident_fold_slots: Vec::new(),
            loss_buf: Vec::new(),
            norm_bits: (0..cfg.layers).map(|_| AtomicU64::new(0)).collect(),
            global_batch: None,
            offload_workers: hocfg.offload_workers.max(1),
            compute_workers: hocfg.compute_workers.max(1),
            d2h_wait_ns: AtomicU64::new(0),
            tier_plan,
        }
    }

    /// The active host-tier placement plan.
    pub fn tier_plan(&self) -> &TierPlan {
        &self.tier_plan
    }

    /// How many layers page through the file-backed spill tier.
    pub fn spilled_layers(&self) -> usize {
        self.store.spilled_layers()
    }

    /// Arena bytes a window of `m` layers occupies: `(m+1)` block slots at
    /// transfer precision — the `gpu_usage` curve to feed
    /// [`crate::analytic::solve_window`] so its `m_mem_max` reflects this
    /// backend's actual (precision-scaled) footprint.
    pub fn arena_usage(&self, m: usize) -> u64 {
        (m as u64 + 1) * self.stream.block_bytes()
    }

    /// The device-residency / transfer precision in force.
    pub fn precision(&self) -> Precision {
        self.stream.precision()
    }

    /// The working-window size in force.
    pub fn window(&self) -> usize {
        self.stream.window()
    }

    /// Device traffic/occupancy counters.
    pub fn device(&self) -> &HostDevice {
        self.stream.device()
    }

    /// Optimizer updates applied so far.
    pub fn optimizer_updates(&self) -> usize {
        self.pool.updates_applied()
    }

    /// Cumulative nanoseconds the pipeline spent blocked on file-tier
    /// fills (the autotuner's `fill_wait_ns` stall signal).
    pub fn fill_wait_nanos(&self) -> u64 {
        self.store.fill_wait_nanos()
    }

    /// Total swap-file traffic so far: `(bytes_read, bytes_written)`.
    pub fn spill_traffic(&self) -> (u64, u64) {
        match self.store.tier_store() {
            Some(t) => (t.nvme().bytes_read(), t.nvme().bytes_written()),
            None => (0, 0),
        }
    }

    /// Per-layer hidden states of the teacher for knowledge distillation
    /// (§VI-D3), computed FP-only through one device shell.
    pub fn hidden_states(&self, tokens: &[u32]) -> Vec<Tensor> {
        self.pool.flush();
        let mut states = Vec::with_capacity(self.cfg.layers + 1);
        let mut x = self.shell.embed(tokens);
        states.push(x.clone());
        self.stream.for_each_layer(&self.store, |slot, _| {
            x = slot.forward_no_cache(&x);
            states.push(x.clone());
        });
        states
    }

    /// Flat gradient elements of one transformer block (every block has the
    /// same shape) — sizes the data-parallel gradient buckets.
    pub(crate) fn block_elems(&self) -> usize {
        self.stream.block_elems()
    }

    /// Marks this backend as rank of a data-parallel group over a global
    /// batch of `n` samples (see the `global_batch` field).
    pub(crate) fn set_global_batch(&mut self, n: usize) {
        self.global_batch = Some(n);
    }

    /// Total gradient elements one replica contributes per step: every
    /// block plus the resident groups — the `E` of `V_dp = w·(w−1)·E`
    /// (§III-F).
    pub fn grad_elements(&self) -> u64 {
        let block = self.block_elems() as u64;
        let resident = self.shell.embedding.token.numel()
            + self.shell.embedding.position.numel()
            + self.shell.lnf_g.numel()
            + self.shell.lnf_b.numel();
        self.store.len() as u64 * block + resident as u64
    }
}

impl ParamBackend for WindowedBackend {
    fn config(&self) -> ModelConfig {
        self.cfg
    }

    fn num_blocks(&self) -> usize {
        self.store.len()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn new_resident_grads(&self) -> TransformerGrads {
        self.shell.zero_grads()
    }

    /// One forward/backward pass with the working-window pipeline; fills
    /// `ws.block_grads` (flattened on the D2H path as each layer's backward
    /// ends) and `ws.resident_grads` — or, under [`StepPlan::streaming`],
    /// submits each layer's optimizer update straight from the D2H engine.
    ///
    /// Three-way overlap: the stream's prefetcher thread runs H2D copies ahead
    /// of compute, the compute thread runs FP/BP (optionally fanning the batch
    /// across `compute_workers`), and the offload engine threads flatten and
    /// account each finished layer's gradient off the compute thread's
    /// critical path, so layer `i`'s D2H overlaps layer `i−1`'s backward.
    ///
    /// Steady-state the loop performs no per-element heap allocation: the
    /// gradient accumulators, head scratches, and the D2H buffers are
    /// backend/workspace fields that are zeroed/overwritten each step, and
    /// all activation tensors cycle through the thread-local scratch pool.
    /// Zeroing a reused buffer and allocating a fresh zeroed
    /// one are the same FP op sequence, so bit-equality with the resident
    /// trainer is preserved.
    fn forward_backward(
        &mut self,
        batch: &[(Vec<u32>, Vec<u32>)],
        ws: &mut StepWorkspace,
        hooks: &mut HookRegistry,
        iteration: u64,
        plan: &StepPlan,
        sink: &dyn GradSink,
    ) -> f32 {
        assert!(!batch.is_empty());
        let nb = self.cfg.layers;
        let m = self.window();
        let b = batch.len();
        let ow = self.offload_workers;
        let cw = self.compute_workers;
        // A data-parallel rank scales by the *global* batch — the same f32
        // a single-replica run over the whole batch would use.
        let scale = 1.0 / self.global_batch.unwrap_or(b) as f32;
        let ctx = |layer: usize| HookCtx {
            layer,
            iteration,
            micro_batch: 0,
        };

        while self.head_scratches.len() < b {
            self.head_scratches.push(self.shell.zero_grads());
        }
        for sg in self.head_scratches.iter_mut().take(b) {
            sg.zero_();
        }
        if cw > 1 {
            while self.bp_slots.len() < b {
                self.bp_slots.push(self.stream.zero_grads());
            }
        }
        // Canonical-tree fan-in state (see `stronghold_collective::order`):
        // one merge schedule for the batch, block-shaped and resident-shaped
        // partial slots, and the per-sample raw loss buffer — all grown once
        // and reused, preserving the zero-allocation step contract.
        self.fold_plan.set_len(b);
        while self.bp_fold_slots.len() < self.fold_plan.depth() {
            self.bp_fold_slots.push(self.stream.zero_grads());
        }
        while self.resident_fold_slots.len() < self.fold_plan.depth() {
            self.resident_fold_slots.push(self.shell.zero_grads());
        }
        self.loss_buf.clear();
        self.loss_buf.resize(b, 0.0);
        ws.streamed = plan.streaming;
        let want_norm = plan.streaming && self.tel.is_enabled();
        if want_norm {
            for bits in &self.norm_bits {
                bits.store(0, Ordering::Relaxed);
            }
        }
        let StepWorkspace {
            block_grads,
            resident_grads,
            norm_partials,
            ..
        } = ws;
        // Offload destinations, popped alongside `step_grads` in BP order.
        let mut dsts: Vec<&mut Vec<f32>> = block_grads.iter_mut().collect();

        // ---- gradient offload (D2H copy engine) ----
        // Run by the dedicated engine threads: flatten the finished layer's
        // gradient, account the D2H traffic, and either stream the optimizer
        // update immediately (clip off) or park the flat gradient for the
        // engine's deferred dispatch. Runs concurrently with the next
        // layer's backward on the compute thread.
        let hp = plan.hp;
        let streaming = plan.streaming;
        let pool = &self.pool;
        let device_off = Arc::clone(self.stream.device());
        let tel_off = self.tel.clone();
        let wait_h = self.tel.histogram("d2h.queue_wait_ns");
        let c_grad_off = self.tel.counter("offload.grads");
        // Final-gradient delivery: invoked by the sink (immediately for
        // local training; after the replica rendezvous for data-parallel)
        // with the gradient the optimizer must apply. The norm partial is
        // taken *here* so it reflects the reduced gradient — the same value
        // the engine would compute on the deferred path.
        let norm_bits = &self.norm_bits;
        let store_dl = Arc::clone(&self.store);
        let deliver = move |layer: usize, buf: Vec<f32>| {
            if want_norm {
                norm_bits[layer].store(GlobalNorm::layer_sum_sq(&buf).to_bits(), Ordering::Relaxed);
            }
            store_dl.mark_pending(layer);
            pool.submit_owned(layer, buf, hp);
        };
        let d2h_wait_ns = &self.d2h_wait_ns;
        // Half-precision D2H: the gradient is rounded through the transfer
        // format while it is flattened, and the optimizer ingests the
        // rounded f32 values against its FP32 masters ("convert-on-ingest").
        // The half-width payload is accounted, not materialised.
        let precision = self.stream.precision();
        let block_bytes = self.stream.block_bytes();
        let offload = move |job: OffloadJob<'_>| -> (usize, BlockGrads) {
            let OffloadJob {
                layer,
                grads,
                dst,
                enqueue_ns,
                enqueue_at,
            } = job;
            wait_h.record(tel_off.now_nanos().saturating_sub(enqueue_ns));
            d2h_wait_ns.fetch_add(enqueue_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let span = tel_off.span("d2h-copy", format!("d2h L{layer}"));
            device_off.begin_d2h();
            if streaming {
                // Flatten straight into a recycled pool buffer: the D2H
                // copy *is* the optimizer hand-off, no second copy. The
                // sink decides when the buffer reaches `deliver` (a
                // reducing sink may park it in a bucket first).
                let mut buf = pool.recycled_buffer();
                grads.flatten_into_as(&mut buf, precision);
                sink.layer_ready(layer, buf, &deliver);
            } else {
                grads.flatten_into_as(dst, precision);
            }
            device_off.end_d2h(block_bytes);
            span.end();
            c_grad_off.incr();
            (layer, grads)
        };

        // The offload queue is bounded at `m + 1` so a stalled D2H engine
        // back-pressures compute instead of buffering the whole model.
        let (off_tx, off_rx) = bounded(m + 1);
        // Every layer's accumulator comes back exactly once; capacity `nb`
        // means returning one can never block an offload worker.
        let (done_tx, done_rx) = bounded(nb);
        let loss = self.stream.run(&self.store, Pass::ForwardBackward, |feed| {
            std::thread::scope(|scope| {
                // ---- offload engine threads ----
                for _ in 0..ow {
                    let (off_rx, done_tx, offload) = (off_rx.clone(), done_tx.clone(), &offload);
                    scope.spawn(move || {
                        while let Ok(job) = off_rx.recv() {
                            done_tx.send(offload(job)).expect("offload done");
                        }
                    });
                }

                // ---- compute ("GPU") ----
                // FP, batch-major; each layer's input tensors are *moved* into
                // the checkpoint list (the block writes fresh pool tensors), so
                // no activation is ever cloned.
                let mut x: Vec<Tensor> = batch.iter().map(|(t, _)| self.shell.embed(t)).collect();
                let mut inputs: Vec<Vec<Tensor>> = Vec::with_capacity(nb);
                let mut kept: Vec<(usize, Block)> = Vec::with_capacity(m);
                for i in 0..nb {
                    hooks.fire(i, HookPoint::PreForward, &ctx(i));
                    let (gi, block) = feed.next();
                    assert_eq!(gi, i, "fp prefetch order");
                    let span = self.tel.span("compute", format!("fp L{i}"));
                    let next = parallel_forward(&block, &x, cw);
                    span.end();
                    hooks.fire(i, HookPoint::PostForward, &ctx(i));
                    inputs.push(std::mem::replace(&mut x, next));
                    if i + m >= nb {
                        kept.push((i, block)); // stays resident for BP (Fig. 3)
                    } else {
                        feed.release(block);
                    }
                }

                // Head: loss + initial gradient, per-sample scratches collect the
                // tied-LM-head and final-LN gradients.
                let mut dy: Vec<Tensor> = Vec::with_capacity(b);
                for (s, (_, targets)) in batch.iter().enumerate() {
                    let (l, dx, cache) = self.shell.head_forward_loss(&x[s], targets);
                    self.loss_buf[s] = l;
                    self.shell
                        .head_backward(&cache, &mut self.head_scratches[s]);
                    cache.recycle();
                    dy.push(dx);
                }
                for t in x {
                    scratch::give(t); // head inputs are done
                }

                // BP: recompute-from-checkpoint, handing each finished layer's
                // accumulator to the offload engine so the flatten/D2H (and,
                // when streaming, the optimizer submission) overlaps the next
                // layer's backward. With clipping active the engine dispatches
                // after the step's global norm is known, as before.
                for i in (0..nb).rev() {
                    let block = match kept.pop() {
                        Some((k, blk)) => {
                            assert_eq!(k, i, "kept layer order");
                            blk
                        }
                        None => {
                            let (gi, blk) = feed.next();
                            assert_eq!(gi, i, "bp prefetch order");
                            blk
                        }
                    };
                    hooks.fire(i, HookPoint::PreBackward, &ctx(i));
                    let span = self.tel.span("compute", format!("bp L{i}"));
                    let mut sg = self.step_grads.pop().expect("step-grad accumulator");
                    // Deterministic fan-in: per-sample raw gradients fold down
                    // the canonical pairwise tree (leaf = scaled sample gradient
                    // added to zero) — the same association the resident
                    // trainer and every other fan-in in the repo use.
                    if cw > 1 {
                        parallel_backward(&block, &inputs[i], &mut dy, &mut self.bp_slots[..b], cw);
                        fold_with(
                            &self.fold_plan,
                            &mut self.bp_fold_slots,
                            |s, slot| slot.set_scaled(&self.bp_slots[s], scale),
                            |acc, part| acc.accumulate(part),
                        );
                    } else {
                        fold_with(
                            &self.fold_plan,
                            &mut self.bp_fold_slots,
                            |s, slot| {
                                self.sample_grads.zero_();
                                let (y, cache) = block.forward(&inputs[i][s]); // recompute
                                scratch::give(y);
                                let dxs = block.backward(
                                    &dy[s],
                                    &inputs[i][s],
                                    &cache,
                                    &mut self.sample_grads,
                                );
                                cache.recycle();
                                scratch::give(std::mem::replace(&mut dy[s], dxs));
                                slot.set_scaled(&self.sample_grads, scale);
                            },
                            |acc, part| acc.accumulate(part),
                        );
                    }
                    std::mem::swap(&mut sg, &mut self.bp_fold_slots[0]);
                    for t in std::mem::take(&mut inputs[i]) {
                        scratch::give(t); // layer i's checkpoints are consumed
                    }
                    span.end();
                    hooks.fire(i, HookPoint::PostBackward, &ctx(i));
                    // Free the shell before queueing the offload: the prefetcher
                    // can start the next H2D while the gradient is still in the
                    // D2H engine's queue.
                    feed.release(block);
                    let dst = dsts.pop().expect("offload destination");
                    let job = OffloadJob {
                        layer: i,
                        grads: sg,
                        dst,
                        enqueue_ns: self.tel.now_nanos(),
                        enqueue_at: std::time::Instant::now(),
                    };
                    off_tx.send(job).expect("offload queue");
                }
                // Close the offload queue: engine threads drain it and exit
                // while the embedding backward below proceeds.
                drop(off_tx);

                // Embedding backward (scatter-add) per sample, then fold the
                // resident gradients in sample order — the same op sequence as
                // the reference trainer.
                for (s, (tokens, _)) in batch.iter().enumerate() {
                    self.shell
                        .embed_backward(&dy[s], tokens, &mut self.head_scratches[s]);
                }
                for t in dy {
                    scratch::give(t);
                }
                // Resident groups fold down the same canonical tree.
                fold_with(
                    &self.fold_plan,
                    &mut self.resident_fold_slots,
                    |s, slot| {
                        slot.zero_();
                        slot.accumulate_scaled(&self.head_scratches[s], scale);
                    },
                    |acc, part| acc.accumulate_scaled(part, 1.0),
                );
                std::mem::swap(resident_grads, &mut self.resident_fold_slots[0]);

                tree_sum(&self.loss_buf)
            })
        });
        // Reclaim the per-layer accumulators from the offload engine; they
        // complete out of order under multiple workers, so sort back into
        // ascending layer order for the next step.
        let mut returned: Vec<(usize, BlockGrads)> = Vec::with_capacity(nb);
        returned.extend(std::iter::from_fn(|| done_rx.try_recv().ok()));
        assert_eq!(returned.len(), nb, "offload engine lost a layer");
        returned.sort_unstable_by_key(|(l, _)| *l);
        self.step_grads
            .extend(returned.into_iter().map(|(_, grads)| grads));
        // Streaming norm partials were recorded at delivery time (on the
        // reduced gradients); surface them to the engine's norm fold.
        if want_norm {
            for (p, bits) in norm_partials.iter_mut().zip(&self.norm_bits) {
                *p = f64::from_bits(bits.load(Ordering::Relaxed));
            }
        }
        // A data-parallel rank hands the raw shard loss partial to the
        // driver, which tree-folds the rank partials and divides once.
        match self.global_batch {
            Some(_) => loss,
            None => loss / b as f32,
        }
    }

    /// Marks the layer pending and hands the update to the actor pool; the
    /// next iteration's prefetch of this layer blocks until it is applied.
    fn dispatch_block_update(&mut self, layer: usize, grads: &[f32], hp: &AdamParams) {
        self.store.mark_pending(layer);
        self.pool.submit_with(layer, grads, *hp);
    }

    fn resident_params_mut(&mut self) -> ResidentParamsMut<'_> {
        ResidentParamsMut {
            token: self.shell.embedding.token.data_mut(),
            position: self.shell.embedding.position.data_mut(),
            lnf_g: self.shell.lnf_g.data_mut(),
            lnf_b: self.shell.lnf_b.data_mut(),
        }
    }

    /// Mean loss over a batch without updating, streaming layers through
    /// one device shell (FP-only inference, §VI-D3).
    fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        self.pool.flush();
        let mut x: Vec<Tensor> = batch.iter().map(|(t, _)| self.shell.embed(t)).collect();
        self.stream.for_each_layer(&self.store, |slot, _| {
            let next: Vec<Tensor> = x.iter().map(|xs| slot.forward_no_cache(xs)).collect();
            for t in std::mem::replace(&mut x, next) {
                scratch::give(t);
            }
        });
        let mut losses = Vec::with_capacity(batch.len());
        for (s, (_, targets)) in batch.iter().enumerate() {
            let (l, dx, cache) = self.shell.head_forward_loss(&x[s], targets);
            scratch::give(dx);
            cache.recycle();
            losses.push(l);
        }
        for t in x {
            scratch::give(t);
        }
        tree_sum(&losses) / batch.len() as f32
    }

    /// Reassembles the full model from the shell and the layer store.
    fn model_blob(&self) -> Bytes {
        let full = Transformer {
            cfg: self.cfg,
            embedding: self.shell.embedding.clone(),
            blocks: self.stream.master_blocks(&self.store),
            lnf_g: self.shell.lnf_g.clone(),
            lnf_b: self.shell.lnf_b.clone(),
        };
        stronghold_model::serialize::save(&full)
    }

    fn block_adam_snapshot(&self, layer: usize) -> AdamState {
        self.store.adam_snapshot(layer)
    }

    /// Reads through the store, waiting for a pending update of that layer.
    fn block_params(&self, layer: usize) -> Vec<f32> {
        self.store.read_params(layer)
    }

    fn flush(&self) {
        // Pool first (updates enqueue their write-backs inside
        // `apply_update`), then the spill engine — after both, every
        // pending flag is clear and the file image is current.
        self.pool.flush();
        self.store.flush_spill();
    }

    fn tune_limits(&self) -> Option<TuneLimits> {
        let spilled = self.store.spilled_layers() > 0;
        Some(TuneLimits {
            // The arena-admitted bound: the layer count when unbudgeted,
            // else ⌊budget/block_bytes⌋−1 — which doubles under a half
            // precision at the same budget.
            window: (1, self.stream.window_max()),
            offload_workers: (1, 8),
            compute_workers: (1, 8),
            optimizer_workers: (1, 8),
            // Without a file tier the knob is pinned at zero; with one the
            // controller may resize the I/O pool.
            spill_workers: if spilled { (1, 8) } else { (0, 0) },
        })
    }

    fn current_tuning(&self) -> Tuning {
        Tuning {
            window: self.window(),
            offload_workers: self.offload_workers,
            compute_workers: self.compute_workers,
            optimizer_workers: self.pool.workers(),
            spill_workers: self.store.spill_workers(),
        }
    }

    /// Resizes the stream's window and the worker counts between
    /// steps. Shell contents are fully overwritten by each H2D, worker
    /// counts never enter the fold order, and the optimizer pool drains
    /// FIFO through retirements — so any schedule of `apply_tuning` calls
    /// at step boundaries leaves the trained parameters bit-identical.
    fn apply_tuning(&mut self, t: Tuning) {
        if t.window != self.window() {
            self.stream.resize(t.window);
        }
        self.offload_workers = t.offload_workers.max(1);
        self.compute_workers = t.compute_workers.max(1);
        if t.optimizer_workers != self.pool.workers() {
            self.pool.set_workers(t.optimizer_workers);
        }
        if self.store.spilled_layers() > 0
            && t.spill_workers > 0
            && t.spill_workers != self.store.spill_workers()
        {
            self.store.set_spill_workers(t.spill_workers);
        }
    }

    fn stall_signals(&self) -> StallSignals {
        let (fetch_wait_ns, shell_wait_ns) = self.stream.wait_nanos();
        StallSignals {
            fetch_wait_ns,
            shell_wait_ns,
            d2h_wait_ns: self.d2h_wait_ns.load(Ordering::Relaxed),
            optim_backlog: self.pool.pending() as u64,
            fill_wait_ns: self.store.fill_wait_nanos(),
        }
    }
}

/// The functional STRONGHOLD trainer: the shared [`Engine`] over a
/// [`WindowedBackend`]. Everything a trainer does is on [`Engine`]; the
/// placement-specific reads (`window`, `device`, `tier_plan`, …) are the
/// backend's, reached through `Deref`.
pub type HostOffloadTrainer = Engine<WindowedBackend>;

impl Engine<WindowedBackend> {
    /// Builds the model deterministically from `seed` and splits it into the
    /// resident shell and the offloaded layer store (no telemetry).
    pub fn new(cfg: ModelConfig, seed: u64, hocfg: HostOffloadConfig) -> Self {
        Self::with_telemetry(cfg, seed, hocfg, Telemetry::disabled())
    }

    /// [`HostOffloadTrainer::new`] wired into `tel`: prefetch issue/complete
    /// counters, shell-wait (window stall) latency, arena occupancy,
    /// optimizer-worker metrics, per-step `step.lr` / `step.grad_norm`
    /// gauges, and wall-clock spans on the `h2d-copy` / `compute` /
    /// `d2h-copy` tracks.
    pub fn with_telemetry(
        cfg: ModelConfig,
        seed: u64,
        hocfg: HostOffloadConfig,
        tel: Telemetry,
    ) -> Self {
        let backend = WindowedBackend::from_model(Transformer::new(cfg, seed), &hocfg, tel);
        Engine::from_backend(backend, hocfg.engine_options())
    }

    /// Restores a trainer from [`Engine::save_training_state`] output (which
    /// may have been written by *any* backend). `cfg` guards against
    /// resuming with the wrong model shape; malformed blobs yield a typed
    /// [`RuntimeError::Checkpoint`].
    pub fn load_training_state(
        blob: Bytes,
        cfg: ModelConfig,
        hocfg: HostOffloadConfig,
    ) -> Result<Self, RuntimeError> {
        let st = TrainingState::decode(blob)?;
        st.expect_config(&cfg)?;
        st.expect_precision(hocfg.precision)?;
        let TrainingState {
            step,
            model,
            block_adams,
            resident_adams,
            ..
        } = st;
        let backend = WindowedBackend::from_model(model, &hocfg, Telemetry::disabled());
        for (i, adam) in block_adams.into_iter().enumerate() {
            backend.store.set_adam(i, adam);
        }
        Ok(Engine::resume(
            backend,
            hocfg.engine_options(),
            step,
            resident_adams,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::tiny;
    use stronghold_model::data::SyntheticCorpus;

    fn batch(cfg: &ModelConfig, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        SyntheticCorpus::new(cfg.vocab, seed).next_batch(cfg.batch, cfg.seq - 1)
    }

    #[test]
    fn runs_and_loss_decreases() {
        let cfg = tiny(4);
        let mut t = HostOffloadTrainer::new(
            cfg,
            21,
            HostOffloadConfig {
                window: 2,
                optimizer_workers: 3,
                adam: AdamParams {
                    lr: 5e-3,
                    ..AdamParams::default()
                },
                ..HostOffloadConfig::default()
            },
        );
        let data = batch(&cfg, 9);
        let initial = t.eval_loss(&data);
        for _ in 0..20 {
            t.train_step(&data);
        }
        let fin = t.eval_loss(&data);
        assert!(fin < initial * 0.8, "loss {initial} -> {fin}");
        assert_eq!(t.optimizer_updates(), 20 * cfg.layers);
    }

    #[test]
    fn device_footprint_bounded_by_window() {
        let cfg = tiny(6);
        let tel = Telemetry::enabled();
        let mut t = HostOffloadTrainer::with_telemetry(
            cfg,
            22,
            HostOffloadConfig {
                window: 2,
                ..HostOffloadConfig::default()
            },
            tel.clone(),
        );
        let data = batch(&cfg, 10);
        t.train_step(&data);
        // Exact footprint: the device holds (m+1) block slots and the
        // pipeline keeps them all busy at its peak, even though the model
        // has 6 blocks — the capacity *is* the footprint, not a loose bound.
        let block_bytes = (Transformer::new(cfg, 22).blocks[0].param_count() * 4) as u64;
        assert_eq!(
            t.device().capacity(),
            (t.window() as u64 + 1) * block_bytes,
            "device sized to (m+1) block slots"
        );
        assert_eq!(
            t.device().peak(),
            t.device().capacity(),
            "peak occupancy is exactly (m+1) * block_bytes"
        );
        assert_eq!(t.device().used(), 0, "all slots returned");
        // Every block travelled H2D for FP, and exactly the layers that
        // slid out of the window travelled again for BP.
        assert_eq!(
            tel.counter("prefetch.refetched").get(),
            (cfg.layers - t.window()) as u64,
            "refetches per step == layers - m"
        );
        assert!(t.device().h2d_bytes() > 0);
        assert!(t.device().d2h_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold a window of one layer: 0 B reserved + 2 slots of")]
    fn arena_budget_below_two_slots_is_refused_at_construction() {
        let cfg = tiny(3);
        let block_bytes = (Transformer::new(cfg, 22).blocks[0].param_count() * 4) as u64;
        HostOffloadTrainer::new(
            cfg,
            22,
            HostOffloadConfig {
                device_capacity: Some(block_bytes + block_bytes / 2),
                ..HostOffloadConfig::default()
            },
        );
    }

    #[test]
    fn window_spanning_whole_model_still_works() {
        let cfg = tiny(3);
        let mut t = HostOffloadTrainer::new(
            cfg,
            23,
            HostOffloadConfig {
                window: 10, // clamped to layer count
                ..HostOffloadConfig::default()
            },
        );
        assert_eq!(t.window(), 3);
        let data = batch(&cfg, 11);
        let l1 = t.train_step(&data);
        assert!(l1.is_finite());
    }

    #[test]
    fn deterministic_across_runs_and_worker_counts() {
        let cfg = tiny(4);
        let run = |optimizer_workers: usize, offload_workers: usize, compute_workers: usize| {
            let mut t = HostOffloadTrainer::new(
                cfg,
                24,
                HostOffloadConfig {
                    window: 2,
                    optimizer_workers,
                    offload_workers,
                    compute_workers,
                    ..HostOffloadConfig::default()
                },
            );
            let data = batch(&cfg, 12);
            for _ in 0..4 {
                t.train_step(&data);
            }
            t.flush();
            (0..cfg.layers)
                .map(|i| t.block_params(i))
                .collect::<Vec<_>>()
        };
        let base = run(1, 1, 1);
        assert_eq!(
            base,
            run(4, 1, 1),
            "optimizer worker count must not affect results"
        );
        assert_eq!(
            base,
            run(4, 0, 1),
            "a configured 0 is clamped to one offload thread"
        );
        assert_eq!(
            base,
            run(4, 2, 1),
            "offload engine thread count must not affect results"
        );
        assert_eq!(
            base,
            run(1, 1, 4),
            "batch-parallel compute must not affect results"
        );
        assert_eq!(
            base,
            run(4, 2, 4),
            "fully parallel pipeline must not affect results"
        );
        assert_eq!(base, run(4, 2, 4), "repeat runs must be identical");
    }

    #[test]
    fn hidden_states_for_distillation() {
        let cfg = tiny(3);
        let t = HostOffloadTrainer::new(cfg, 25, HostOffloadConfig::default());
        let tokens: Vec<u32> = (0..10).map(|i| i % cfg.vocab as u32).collect();
        let hs = t.hidden_states(&tokens);
        assert_eq!(hs.len(), 4);
        assert!(hs.iter().all(|h| h.all_finite()));
    }
}
