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
//!   turn, and hands each layer's gradient off as its backward ends;
//! * **D2H engine thread** — accounts each handed-off gradient and lends
//!   its ring accumulator, through the step's sink, to the layer's update,
//!   which reads it chunk by chunk; a clipped step holds the accumulator
//!   until the global norm is known. The accumulator is the gradient's
//!   only host form from BP to Adam;
//! * **optimizer pool** — [`OptimizerPool`] actors apply Adam concurrently
//!   with the next step's forward work (§III-E1).
//!
//! The prefetcher, the D2H engine and the actors are started with the
//! backend and joined when it drops: a step starts no thread.
//!
//! The pipeline is constructed so its floating-point operation sequence is
//! *identical* to [`HostResidentTrainer`](crate::host::resident::HostResidentTrainer)'s
//! — the equivalence tests assert bit-equal parameters after training. Step
//! policy (clipping, LR schedule, optimizer dispatch order, checkpointing)
//! lives in the shared [`Engine`]; this module is only the
//! [`WindowedBackend`] mechanism, and [`HostOffloadTrainer`] *is*
//! `Engine<WindowedBackend>` (the model-building constructors live here).

use std::borrow::Cow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, Sender};
use stronghold_collective::order::{fold_with, tree_sum, FoldPlan};
use stronghold_model::block::{Block, BlockGrads};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{Transformer, TransformerGrads};
use stronghold_tensor::{scratch, Precision, Tensor};

use crate::actor::Actor;
use crate::adam::{AdamParams, AdamState};
use crate::error::RuntimeError;
use crate::host::device::HostDevice;
use crate::host::engine::{
    Engine, EngineOptions, GradSink, ParamBackend, ResidentParamsMut, StepPlan, StepWorkspace,
    TrainingState,
};
use crate::host::stream::{LayerStream, Pass};
use crate::lock;
use crate::optimpool::{GradBuffer, LayerStore, OptimizerPool};
use crate::schedule::LrSchedule;
use crate::telemetry::{Counter, Histogram, Telemetry};
use crate::tier::TierPlan;

/// Configuration of the functional offloaded trainer.
#[derive(Clone, Copy, Debug)]
pub struct HostOffloadConfig {
    /// Working-window size in layers (`m`).
    pub window: usize,
    /// Concurrent CPU optimizer actors (default 2). Every update's chunks
    /// are shared among them. A data-parallel rank, whose sink parks a
    /// bucket of gradients, holds `max(optimizer_workers, layers per
    /// bucket)` ring accumulators beyond the two every trainer has, so
    /// every actor has an update to step.
    pub optimizer_workers: usize,
    /// Adam hyper-parameters.
    pub adam: AdamParams,
    /// Per-step learning-rate schedule (None → constant `adam.lr`).
    pub schedule: Option<LrSchedule>,
    /// Global gradient-norm clip threshold. `None` → no clipping, and each
    /// layer's Adam update is dispatched as soon as its gradient lands
    /// (§III-E1 BP/optimizer overlap); `Some` holds every gradient, one ring
    /// accumulator per layer, until the end of the step. See
    /// [`EngineOptions::clip_norm`].
    pub clip_norm: Option<f32>,
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
    /// bound. A budget below two block slots (a window of one) is refused
    /// at construction. Since `block_bytes` scales with
    /// [`Self::precision`], a half mode doubles the window the same budget
    /// admits.
    pub device_capacity: Option<u64>,
    /// Host-RAM byte budget for the resident FP32 masters + Adam moments
    /// (12 bytes/param/layer), mirroring [`Self::device_capacity`] one tier
    /// down. `None` (the default) keeps every layer resident. `Some(bytes)`
    /// spills the cheapest layers to a file-backed swap tier (§III-G) until
    /// the resident image fits — see [`crate::tier::TierPlan`]. Spilled
    /// layers train **bit-identically**: f32 ↔ file round trips are exact,
    /// so placement never enters the math. `Some(0)` spills every layer.
    pub host_capacity: Option<u64>,
}

impl Default for HostOffloadConfig {
    fn default() -> Self {
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: AdamParams::default(),
            schedule: None,
            clip_norm: None,
            precision: Precision::F32,
            device_capacity: None,
            host_capacity: None,
        }
    }
}

impl HostOffloadConfig {
    pub(crate) fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            adam: self.adam,
            schedule: self.schedule,
            clip_norm: self.clip_norm,
            precision: self.precision,
        }
    }
}

/// One layer's gradient offload, handed from the compute thread to the D2H
/// engine. Everything it carries is owned: the ring accumulator (returned
/// once the update it is lent to retires, so BP can fold a later layer
/// into it) and the step's route.
struct OffloadJob {
    layer: usize,
    grads: BlockGrads,
    enqueue_ns: u64,
    route: Route,
}

/// A step's gradient route: the sink that receives each gradient and what
/// its final form becomes.
#[derive(Clone)]
struct Route {
    sink: Arc<dyn GradSink>,
    hp: AdamParams,
    /// Record each delivered gradient's norm partial.
    want_norm: bool,
    /// Hold each delivered gradient for [`ParamBackend::release_held`]
    /// instead of submitting it (clipping is on).
    hold: bool,
}

/// Gradients a clipped step holds until its global norm is known, one slot
/// per layer.
type Held = Arc<Mutex<Vec<Option<GradBuffer>>>>;

/// What the D2H engine reads besides its jobs, fixed for its lifetime.
#[derive(Clone)]
struct OffloadCtx {
    store: Arc<LayerStore>,
    pool: Arc<OptimizerPool>,
    norm_bits: Arc<Vec<AtomicU64>>,
    held: Held,
    device: Arc<HostDevice>,
    tel: Telemetry,
    wait: Histogram,
    copied: Counter,
    precision: Precision,
    block_bytes: u64,
    /// Flat gradient elements of one block.
    block_elems: usize,
}

impl OffloadCtx {
    /// Runs one job: accounts the D2H traffic of the finished layer's
    /// gradient and lends its ring accumulator to the step's sink as a
    /// [`GradBuffer`], read through the transfer format in a half mode —
    /// the optimizer ingests the rounded f32 values against its FP32
    /// masters, and the half-width payload is accounted, not materialised.
    /// The sink decides when the gradient reaches `deliver` (a reducing
    /// sink parks it in a bucket first), which takes its norm partial —
    /// of the reduced gradient — and submits its update, or holds it on
    /// the grid for a clipped step. A gradient dropped on the way — a
    /// sink's panic — goes home.
    fn offload(&self, job: OffloadJob, home: &Sender<BlockGrads>) {
        let OffloadJob {
            layer,
            grads,
            enqueue_ns,
            route,
        } = job;
        let tel = &self.tel;
        self.wait.record(tel.now_nanos().saturating_sub(enqueue_ns));
        self.device.begin_d2h();
        let span = tel.span("d2h-copy", format_args!("d2h L{layer}"));
        let grad = GradBuffer::ring(grads, self.block_elems, self.precision, home.clone());
        let deliver = |layer: usize, mut grad: GradBuffer| {
            if route.hold {
                grad.round_in_place();
            }
            if route.want_norm {
                let sum_sq = grad.sum_sq();
                self.norm_bits[layer].store(sum_sq.to_bits(), Ordering::Relaxed);
            }
            if route.hold {
                lock(&self.held)[layer] = Some(grad);
            } else {
                self.store.mark_pending(layer);
                self.pool.submit(layer, grad, route.hp);
            }
        };
        route.sink.layer_ready(layer, grad, &deliver);
        self.device.end_d2h(self.block_bytes);
        span.end();
        self.copied.incr();
    }
}

/// The D2H copy engine: one thread for the backend's lifetime, fed one
/// [`OffloadJob`] per finished layer. It runs concurrently with the next
/// layer's backward on the compute thread, so layer `i`'s D2H overlaps
/// layer `i−1`'s backward.
struct D2hEngine {
    jobs: Actor<OffloadJob>,
    /// Accumulators, back once their update retires.
    home: Receiver<BlockGrads>,
    /// Accumulators sent with a job and not taken back yet.
    lent: usize,
    /// BP's wait for a free accumulator (`grad.ring_wait_ns`).
    ring_wait: Histogram,
}

impl D2hEngine {
    /// Starts the engine thread for a ring of `ring` accumulators. At most
    /// `ring` jobs exist at once (each carries one), so no job send ever
    /// blocks, nor does an accumulator's way home.
    fn start(ctx: OffloadCtx, ring: usize) -> Self {
        let (home_tx, home) = bounded(ring);
        let jobs = Actor::start(["d2h".into()], Some(ring), || {
            let (ctx, home) = (ctx.clone(), home_tx.clone());
            move |job: OffloadJob| ctx.offload(job, &home)
        });
        D2hEngine {
            jobs,
            home,
            lent: 0,
            ring_wait: ctx.tel.histogram("grad.ring_wait_ns"),
        }
    }

    fn submit(&mut self, job: OffloadJob) {
        self.lent += 1;
        self.jobs.send(job);
    }

    /// A free ring accumulator, waiting for one to come home when all are
    /// lent out — the ring is the back-pressure. One `grad.ring_wait_ns`
    /// sample per call, zero when the ring had one.
    fn accumulator(&mut self, ring: &mut Vec<BlockGrads>, tel: &Telemetry) -> BlockGrads {
        let t0 = tel.now_nanos();
        let acc = ring.pop().unwrap_or_else(|| {
            assert!(self.lent > 0, "offload engine lost an accumulator");
            self.lent -= 1;
            self.home.recv().expect("D2H engine alive")
        });
        self.ring_wait.record(tel.now_nanos().saturating_sub(t0));
        acc
    }

    /// Waits until every job sent has ended and re-raises, on the calling
    /// thread, the first panic that ended a job (a sink's). An accumulator
    /// lent to an update, or held for one, may still be out: it comes home
    /// when the update retires, and BP takes it from there when it next
    /// runs out.
    fn drain(&mut self) {
        if let Some(panic) = self.jobs.flush() {
            resume_unwind(panic);
        }
    }
}

/// Gradient accumulators in the ring of a trainer whose sink delivers each
/// gradient at once: the one BP folds the current layer into, plus the one
/// an update is reading out.
const GRAD_RING: usize = 2;

/// The working-window placement backend: block parameters live in a
/// [`LayerStore`], travel H2D through a bounded shell pool, and updates are
/// dispatched to concurrent optimizer actors.
pub struct WindowedBackend {
    cfg: ModelConfig,
    /// Embedding + final-LN shell; its `blocks` vector is empty — block
    /// parameters live in the store and are materialized on demand.
    shell: Transformer,
    store: Arc<LayerStore>,
    pool: Arc<OptimizerPool>,
    /// The H2D side: device arena, `m+1` shells, prefetcher.
    stream: LayerStream,
    /// The D2H side: the gradient copy engine.
    d2h: D2hEngine,
    tel: Telemetry,
    /// The gradient accumulator ring: block-sized buffers, here or on
    /// their way home, as many as the config fixes at construction (see
    /// [`WindowedBackend::from_model`]). They circulate — BP takes one as
    /// each layer's fold root, the D2H engine lends it to the layer's
    /// update, and it comes back — so unless the step clips, gradient
    /// memory does not grow with the model's depth. Contents are never
    /// read before a fold leaf overwrites them.
    grad_ring: Vec<BlockGrads>,
    /// A clipped step's gradients, held on the grid for
    /// [`ParamBackend::release_held`].
    held: Held,
    /// Per-sample head/embedding scratches (grown to the largest batch seen).
    head_scratches: Vec<TransformerGrads>,
    /// Canonical-tree merge schedule for every batch fan-in this step.
    fold_plan: FoldPlan,
    /// Reusable block-shaped partials for the per-layer gradient tree
    /// beyond its root, which is a ring accumulator (`depth − 1` of them).
    bp_fold_slots: Vec<BlockGrads>,
    /// Reusable resident-group partials for the embedding/final-LN tree.
    resident_fold_slots: Vec<TransformerGrads>,
    /// Reusable per-sample raw loss buffer for the loss tree.
    loss_buf: Vec<f32>,
    /// Streaming-path norm partials (f64 bits), written by whichever thread
    /// delivers the reduced gradient to the optimizer.
    norm_bits: Arc<Vec<AtomicU64>>,
    /// When this backend is one rank of a data-parallel group: the global
    /// batch size. Gradient scaling uses `1/global` (matching a
    /// single-replica run over the whole batch) and `forward_backward`
    /// returns the *raw* shard loss partial for the driver to combine.
    global_batch: Option<usize>,
    /// Per-layer host-tier placement (all-RAM unless `host_capacity`
    /// demands a file tier).
    tier_plan: TierPlan,
}

impl WindowedBackend {
    /// Splits an existing model into the resident shell and the offloaded
    /// layer store. `parked` is how many gradients the step's sink may hold
    /// undelivered at once (a data-parallel bucket's layers; 0 for a sink
    /// that delivers each as it comes). The accumulator ring is the only
    /// gradient back-pressure, sized here once:
    ///
    /// * [`GRAD_RING`] when the sink delivers at once and clipping is off;
    /// * `GRAD_RING + max(optimizer_workers, parked)` for a parking sink, so
    ///   a sink never waits for an accumulator only its own delivery would
    ///   free, and every actor has an update to step;
    /// * `max(GRAD_RING, layers)` with clipping on: every gradient is held
    ///   until the step's global norm is known.
    pub(crate) fn from_model(
        model: Transformer,
        hocfg: &HostOffloadConfig,
        parked: usize,
        tel: Telemetry,
    ) -> Self {
        let cfg = model.cfg;
        let mut shell = model;
        let mut blocks = std::mem::take(&mut shell.blocks).into_iter();
        let template = blocks
            .next()
            .expect("offloaded trainer needs at least one block");
        let block_elems = template.param_count();
        // A device block slot holds the layer at transfer precision — half
        // modes halve it, which is what doubles the window a fixed arena
        // budget admits. The stream clamps the window to what the arena
        // admits and sizes an unbudgeted arena to it.
        let window = LayerStream::fit_window(
            block_elems as u64 * hocfg.precision.param_bytes(),
            cfg.layers,
            hocfg.window,
            hocfg.device_capacity,
            0,
        );
        // Host-tier placement: deterministic, derived from the RAM budget
        // and the (known) layer schedule. The store pages `Tier::File`
        // layers through the async spill engine; with nothing spilled it
        // degenerates to the classic resident store.
        let tier_plan = TierPlan::plan(cfg.layers, block_elems, window, hocfg.host_capacity);
        // The store takes the blocks straight from their tensors and drops
        // each as soon as it is stored, so set-up never holds the model
        // twice; the first block stays, as the stream's shell template.
        let layers = std::iter::once(Cow::Borrowed(&template)).chain(blocks.map(Cow::Owned));
        let store = LayerStore::tiered(layers, tier_plan.tiers(), &tel)
            .expect("create spill tier swap file");
        let stream = LayerStream::new(
            template,
            cfg.layers,
            hocfg.precision,
            hocfg.window,
            hocfg.device_capacity,
            0,
            &tel,
        );
        debug_assert_eq!(stream.window(), window);
        let workers = hocfg.optimizer_workers.max(1);
        let pool = Arc::new(OptimizerPool::with_telemetry(
            Arc::clone(&store),
            workers,
            &tel,
        ));
        let ring = match (hocfg.clip_norm, parked) {
            (Some(_), _) => GRAD_RING.max(cfg.layers),
            (None, 0) => GRAD_RING,
            (None, parked) => GRAD_RING + workers.max(parked),
        };
        let grad_ring = (0..ring).map(|_| stream.zero_grads()).collect();
        tel.gauge("grad.accumulators").set(ring as i64);
        let norm_bits = Arc::new((0..cfg.layers).map(|_| AtomicU64::new(0)).collect());
        let held: Held = Arc::new(Mutex::new((0..cfg.layers).map(|_| None).collect()));
        let ctx = OffloadCtx {
            store: Arc::clone(&store),
            pool: Arc::clone(&pool),
            norm_bits: Arc::clone(&norm_bits),
            held: Arc::clone(&held),
            device: Arc::clone(stream.device()),
            tel: tel.clone(),
            wait: tel.histogram("d2h.queue_wait_ns"),
            copied: tel.counter("offload.grads"),
            precision: hocfg.precision,
            block_bytes: stream.block_bytes(),
            block_elems,
        };
        let d2h = D2hEngine::start(ctx, ring);
        WindowedBackend {
            cfg,
            shell,
            store,
            pool,
            stream,
            d2h,
            grad_ring,
            held,
            tel,
            head_scratches: Vec::new(),
            fold_plan: FoldPlan::default(),
            bp_fold_slots: Vec::new(),
            resident_fold_slots: Vec::new(),
            loss_buf: Vec::new(),
            norm_bits,
            global_batch: None,
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

    /// Cumulative nanoseconds the pipeline spent reading spilled layers'
    /// parameters off the swap file, measured whether or not telemetry is
    /// enabled.
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
    /// same shape).
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
    /// `ws.resident_grads` and hands each layer's gradient, as its backward
    /// ends, to the D2H engine, which submits the layer's optimizer update
    /// through the step's sink — or, under [`StepPlan::hold`], holds it for
    /// [`ParamBackend::release_held`].
    ///
    /// Three-way overlap: the stream's prefetcher thread runs H2D copies ahead
    /// of compute, the compute thread runs FP/BP, and the D2H engine thread
    /// accounts and routes each finished layer's gradient off the compute
    /// thread's critical path, so layer `i`'s D2H overlaps layer `i−1`'s
    /// backward. Both copy threads live as long as the backend: a step
    /// starts none.
    ///
    /// Steady-state the loop performs no per-element heap allocation: the
    /// accumulator ring, fold partials and head scratches are backend
    /// fields that are overwritten each step, and all
    /// activation tensors cycle through the thread-local scratch pool. A
    /// fold leaf writes its slot without reading it ([`Block::leaf_backward`],
    /// the routine the resident trainer runs too), so which buffer serves
    /// which layer never enters the bits.
    fn forward_backward(
        &mut self,
        batch: &[(Vec<u32>, Vec<u32>)],
        ws: &mut StepWorkspace,
        plan: &StepPlan,
        sink: &Arc<dyn GradSink>,
    ) -> f32 {
        assert!(!batch.is_empty());
        let nb = self.cfg.layers;
        let m = self.window();
        let b = batch.len();
        // A data-parallel rank scales by the *global* batch — the same f32
        // a single-replica run over the whole batch would use.
        let scale = 1.0 / self.global_batch.unwrap_or(b) as f32;

        while self.head_scratches.len() < b {
            self.head_scratches.push(self.shell.zero_grads());
        }
        for sg in self.head_scratches.iter_mut().take(b) {
            sg.zero_();
        }
        // Canonical-tree fan-in state (see `stronghold_collective::order`):
        // one merge schedule for the batch, block-shaped and resident-shaped
        // partial slots, and the per-sample raw loss buffer — all grown once
        // and reused, preserving the zero-allocation step contract.
        self.fold_plan.set_len(b);
        while self.bp_fold_slots.len() + 1 < self.fold_plan.depth() {
            self.bp_fold_slots.push(self.stream.zero_grads());
        }
        while self.resident_fold_slots.len() < self.fold_plan.depth() {
            self.resident_fold_slots.push(self.shell.zero_grads());
        }
        self.loss_buf.clear();
        self.loss_buf.resize(b, 0.0);
        if plan.want_norm {
            for bits in self.norm_bits.iter() {
                bits.store(0, Ordering::Relaxed);
            }
        }
        let StepWorkspace {
            resident_grads,
            norm_partials,
        } = ws;
        // The D2H engine hands each gradient to the sink, which delivers it
        // to the optimizer (immediately for local training; after the
        // replica rendezvous for data-parallel).
        let route = Route {
            sink: Arc::clone(sink),
            hp: plan.hp,
            want_norm: plan.want_norm,
            hold: plan.hold,
        };
        let (d2h, ring) = (&mut self.d2h, &mut self.grad_ring);
        // Nothing is in flight, and nothing held, unless an earlier step
        // unwound mid-backward; what it held goes home.
        d2h.drain();
        lock(&self.held).iter_mut().for_each(|g| drop(g.take()));
        let loss = self.stream.run(&self.store, Pass::ForwardBackward, |feed| {
            // ---- compute ("GPU") ----
            // FP, batch-major; each layer's input tensors are *moved* into
            // the checkpoint list (the block writes fresh pool tensors), so
            // no activation is ever cloned.
            let mut x: Vec<Tensor> = batch.iter().map(|(t, _)| self.shell.embed(t)).collect();
            let mut inputs: Vec<Vec<Tensor>> = Vec::with_capacity(nb);
            let mut kept: Vec<(usize, Block)> = Vec::with_capacity(m);
            for i in 0..nb {
                let (gi, block) = feed.next();
                assert_eq!(gi, i, "fp prefetch order");
                let span = self.tel.span("compute", format_args!("fp L{i}"));
                let next = x.iter().map(|xs| block.forward_no_cache(xs)).collect();
                span.end();
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

            // BP: recompute-from-checkpoint, folding each layer into a ring
            // accumulator and handing it to the D2H engine so its route to
            // the optimizer overlaps the next layer's backward. With
            // clipping active the engine releases the held updates once the
            // step's global norm is known.
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
                let span = self.tel.span("compute", format_args!("bp L{i}"));
                // Deterministic fan-in: per-sample gradients fold down the
                // canonical pairwise tree — the same association the
                // resident trainer and every other fan-in in the repo use.
                // Its root is a ring accumulator (at b = 1 the only buffer),
                // and each leaf is written once, scaled, by the block leaf
                // the resident trainer runs too.
                let acc = d2h.accumulator(ring, &self.tel);
                self.bp_fold_slots.insert(0, acc);
                fold_with(
                    &self.fold_plan,
                    &mut self.bp_fold_slots,
                    |s, slot| {
                        let dxs = block.leaf_backward(&dy[s], &inputs[i][s], slot, scale);
                        scratch::give(std::mem::replace(&mut dy[s], dxs));
                    },
                    |acc, part| acc.accumulate(part),
                );
                let grads = self.bp_fold_slots.remove(0);
                for t in std::mem::take(&mut inputs[i]) {
                    scratch::give(t); // layer i's checkpoints are consumed
                }
                span.end();
                // Free the shell before queueing the offload: the prefetcher
                // can start the next H2D while the gradient is still in the
                // D2H engine's queue.
                feed.release(block);
                d2h.submit(OffloadJob {
                    layer: i,
                    grads,
                    enqueue_ns: self.tel.now_nanos(),
                    route: route.clone(),
                });
            }

            // Embedding backward (scatter-add) per sample, then fold the
            // resident gradients in sample order — the same op sequence as
            // the reference trainer — while the D2H engine drains.
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
                |s, slot| slot.set_resident_scaled(&self.head_scratches[s], scale),
                |acc, part| acc.accumulate_scaled(part, 1.0),
            );
            std::mem::swap(resident_grads, &mut self.resident_fold_slots[0]);

            tree_sum(&self.loss_buf)
        });
        // Every job has ended; the accumulators lent to the last updates
        // come home as those retire, in whatever order — which buffer
        // serves which layer is invisible.
        d2h.drain();
        // Norm partials were recorded at delivery time (on the reduced
        // gradients); surface them to the engine's norm fold.
        if plan.want_norm {
            for (p, bits) in norm_partials.iter_mut().zip(self.norm_bits.iter()) {
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

    /// Scales each held gradient on the grid, marks its layer pending and
    /// hands the update to the actor pool, in ascending layer order; the
    /// next iteration's prefetch of a layer blocks until it is applied. A
    /// step that submitted its updates as they landed holds none.
    fn release_held(&mut self, scale: f32, hp: &AdamParams) {
        for (layer, held) in lock(&self.held).iter_mut().enumerate() {
            if let Some(mut grad) = held.take() {
                if scale != 1.0 {
                    grad.scale(scale);
                }
                self.store.mark_pending(layer);
                self.pool.submit(layer, grad, *hp);
            }
        }
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
            head_panels: None,
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
        // Pool first (a spilled update has written back when it retires),
        // then a recorded spill I/O failure, if any, is re-raised — after
        // both, every pending flag is clear and the file image is current.
        self.pool.flush();
        self.store.flush_spill();
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
        let backend = WindowedBackend::from_model(Transformer::new(cfg, seed), &hocfg, 0, tel);
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
        let backend = WindowedBackend::from_model(model, &hocfg, 0, Telemetry::disabled());
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
        let run = |optimizer_workers: usize| {
            let mut t = HostOffloadTrainer::new(
                cfg,
                24,
                HostOffloadConfig {
                    window: 2,
                    optimizer_workers,
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
        let base = run(1);
        assert_eq!(
            base,
            run(4),
            "optimizer worker count must not affect results"
        );
        assert_eq!(base, run(4), "repeat runs must be identical");
    }

    /// A sink whose hand-off of layer 1 panics.
    struct RefusingSink;

    const REFUSAL: &str = "sink refused layer 1";

    impl GradSink for RefusingSink {
        fn layer_ready(
            &self,
            layer: usize,
            grad: GradBuffer,
            deliver: &(dyn Fn(usize, GradBuffer) + Sync),
        ) {
            if layer == 1 {
                panic!("{REFUSAL}");
            }
            deliver(layer, grad);
        }
        fn reduce_resident(&self, _groups: [&mut [f32]; 4]) {}
    }

    /// A sink that panics on the D2H engine fails the step on the caller's
    /// thread with its own message; every later step fails the same way
    /// instead of waiting on the engine, and the trainer still drops. The
    /// refused gradient — the ring accumulator lent to the sink — goes home
    /// each time: `GRAD_RING + 2` failing steps would hang BP on a ring
    /// that lost one per step. With the default two actors and with one,
    /// at windows 1 and 2.
    #[test]
    fn a_sink_panic_on_the_d2h_engine_reaches_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;
        let cfg = tiny(4);
        let failing_steps = GRAD_RING + 2;
        let configs =
            [(2, 2), (1, 1), (1, 2)].map(|(optimizer_workers, window)| HostOffloadConfig {
                optimizer_workers,
                window,
                ..HostOffloadConfig::default()
            });
        for hocfg in configs {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let tel = Telemetry::disabled();
                let backend =
                    WindowedBackend::from_model(Transformer::new(cfg, 26), &hocfg, 0, tel);
                let mut t =
                    Engine::with_sink(backend, hocfg.engine_options(), Arc::new(RefusingSink));
                let data = batch(&cfg, 13);
                for _ in 0..failing_steps {
                    let failed = catch_unwind(AssertUnwindSafe(|| t.train_step(&data))).err();
                    let _ = tx.send(failed.and_then(|p| p.downcast_ref::<String>().cloned()));
                }
                drop(t);
                let _ = tx.send(None);
            });
            let next = |what: &str| {
                rx.recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("a panicking sink hung {what}, {hocfg:?}"))
            };
            for step in 0..failing_steps {
                let failed = next(&format!("step {step}"));
                assert_eq!(failed.as_deref(), Some(REFUSAL), "step {step}");
            }
            assert_eq!(next("the drop"), None);
        }
    }

    /// One optimizer actor on a `train-spill`-shaped store — 8 layers of
    /// two chunks each, 6 of them on the swap file — at windows 1 and 2,
    /// clipping off and on: every chunk of every update queues on the one
    /// actor while BP waits on the ring for an accumulator the actor still
    /// reads — with clipping, a ring of 8 held to the step's end and then
    /// released at once — and the prefetcher waits on pending updates, and
    /// three steps finish within the watchdog, bit-equal to the same
    /// trainer with two actors.
    #[test]
    fn one_actor_on_a_spilled_store_finishes_every_step() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cfg = ModelConfig::new(8, 152, 4)
            .with_seq(4)
            .with_vocab(32)
            .with_batch(1);
        assert!(cfg.block_params() as usize > crate::optimpool::SPILL_CHUNK);
        let data = batch(&cfg, 14);
        let run = move |optimizer_workers: usize, window: usize, clip_norm: Option<f32>| {
            let (tx, rx) = mpsc::channel();
            let data = data.clone();
            std::thread::spawn(move || {
                let hocfg = HostOffloadConfig {
                    window,
                    optimizer_workers,
                    clip_norm,
                    host_capacity: Some(2 * 12 * cfg.block_params()),
                    ..HostOffloadConfig::default()
                };
                let mut t = HostOffloadTrainer::new(cfg, 27, hocfg);
                assert_eq!(t.spilled_layers(), 6);
                for _ in 0..3 {
                    t.train_step(&data);
                }
                t.flush();
                assert_eq!(t.optimizer_updates(), 3 * cfg.layers);
                let _ = tx.send(
                    (0..cfg.layers)
                        .map(|i| t.block_params(i))
                        .collect::<Vec<_>>(),
                );
            });
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| {
                    panic!("{optimizer_workers} actors at window {window}, clip {clip_norm:?} hung")
                })
        };
        for (window, clip_norm) in [(1, None), (2, None), (1, Some(0.05)), (2, Some(0.05))] {
            assert!(
                run(1, window, clip_norm) == run(2, window, clip_norm),
                "window {window}, clip {clip_norm:?}: params diverged"
            );
        }
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
