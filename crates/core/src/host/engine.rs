//! The training engine: one step pipeline that *is* every single-replica
//! host trainer.
//!
//! STRONGHOLD's transparency claim (§III-A) is that training semantics do
//! not depend on *where* parameters live — resident in memory or windowed
//! through a device. This module enforces that
//! claim structurally: the step *policy* (gradient accumulation, global-norm
//! clipping, the learning-rate schedule, optimizer dispatch order,
//! telemetry bridging, and checkpoint save/load) is implemented once
//! in [`Engine`], while the placement-specific *mechanism* (how a forward/
//! backward pass materializes layers and where an optimizer update is
//! applied) lives behind the [`ParamBackend`] trait.
//!
//! Bit-identity across backends is preserved by construction: every backend
//! deposits per-layer flat gradients into the same [`StepWorkspace`] layout,
//! so the engine's single clip/LR/dispatch sequence sees identical values in
//! identical order regardless of the backend, and the resident parameter
//! groups (embedding + final LN) are stepped by engine-owned Adam states in
//! one fixed order.
//!
//! The engine also preserves the zero-allocation step contract: the
//! workspace buffers are reused across steps (`flatten_into` clears rather
//! than reallocates) and the norm accumulator lives on the stack.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{Transformer, TransformerGrads};
use stronghold_tensor::Precision;

use crate::adam::{AdamParams, AdamState};
use crate::clip::GlobalNorm;
use crate::error::RuntimeError;
use crate::schedule::LrSchedule;
use crate::telemetry::{Gauge, Telemetry};

/// Training-policy options shared by every backend.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Adam hyper-parameters. When a schedule is set, `adam.lr` is
    /// overridden per step by [`EngineOptions::schedule`].
    pub adam: AdamParams,
    /// Per-step learning-rate schedule (None → constant `adam.lr`).
    pub schedule: Option<LrSchedule>,
    /// Global gradient-norm clip threshold (None → no clipping; the
    /// gradient bits are then never touched between backward and the
    /// optimizer, preserving historical results exactly). It also picks the
    /// dispatch policy: without clipping, backends whose pipeline can stream
    /// dispatch each layer's optimizer update as soon as its gradient lands
    /// (during backward); with it, dispatch is deferred to the end of the
    /// step — whole-step clipping needs every gradient before any update.
    /// Both paths are bit-identical.
    pub clip_norm: Option<f32>,
    /// Device-residency / transfer precision (the ZeRO-Offload-style
    /// fp16-param/fp32-master split). CPU master weights and Adam moments
    /// always stay FP32; with a half mode the backend streams half-width
    /// parameters H2D and half-width gradients D2H, exactly halving link
    /// traffic and doubling the window an arena budget admits. `F32` (the
    /// default) is bit-identical to the resident trainer; half modes carry
    /// the bounded divergence stated in DESIGN.md. Recorded in every SHTS
    /// checkpoint (which still serializes FP32 masters, so modes cross-load).
    pub precision: Precision,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            adam: AdamParams::default(),
            schedule: None,
            clip_norm: None,
            precision: Precision::F32,
        }
    }
}

/// Per-step policy decisions the engine makes *before* the backward pass so
/// streaming backends can act on them mid-pipeline.
pub struct StepPlan {
    /// Adam hyper-parameters for this step, with the scheduled LR applied.
    pub hp: AdamParams,
    /// Whether the backend may dispatch block updates itself as gradients
    /// land (true exactly when clipping is off). A backend that streams
    /// must set [`StepWorkspace::streamed`]; one that cannot stream simply
    /// ignores the flag.
    pub streaming: bool,
}

/// Engine-owned gradient workspace, reused across steps.
///
/// Backends fill it during [`ParamBackend::forward_backward`]; the engine
/// then clips, schedules and dispatches from it. `block_grads[i]` is layer
/// `i`'s flat gradient in the canonical flatten order; `resident_grads`
/// holds the embedding + final-LN gradients (its `blocks` field is unused
/// by the engine — backends may use it as an accumulation target).
pub struct StepWorkspace {
    /// Per-layer flat gradients, in ascending layer order.
    pub block_grads: Vec<Vec<f32>>,
    /// Resident-group (embedding + final LN) gradient accumulator.
    pub resident_grads: TransformerGrads,
    /// Per-layer squared-norm partials (see [`GlobalNorm::layer_sum_sq`]),
    /// filled by streaming backends whose gradients are gone by the time the
    /// engine computes the norm gauge. Only read when `streamed` is set.
    pub norm_partials: Vec<f64>,
    /// Set by a backend that dispatched its own block updates mid-backward
    /// under [`StepPlan::streaming`]; tells the engine to skip the deferred
    /// dispatch loop and fold `norm_partials` instead of `block_grads`.
    pub streamed: bool,
}

/// Mutable views of the resident parameter groups, in the fixed step order
/// (token, position, final-LN gain, final-LN bias).
pub struct ResidentParamsMut<'a> {
    /// Token embedding table.
    pub token: &'a mut [f32],
    /// Position embedding table.
    pub position: &'a mut [f32],
    /// Final layer-norm gain.
    pub lnf_g: &'a mut [f32],
    /// Final layer-norm bias.
    pub lnf_b: &'a mut [f32],
}

/// Where finished gradients go before the optimizer sees them.
///
/// The engine (and, in the streaming path, the backend's D2H engine)
/// hand every completed gradient to the step's `GradSink`, which decides
/// what a "final" gradient means for this trainer:
///
/// * [`LocalSink`] — single-replica training: gradients pass through
///   untouched (the historical behaviour).
/// * `AllReduceSink` (in `host::data_parallel`) — DDP-style data
///   parallelism: gradients rendezvous with the other replicas in bucketed
///   all-reduces before any optimizer update, overlapping communication
///   with the rest of backward on the streaming path.
///
/// The sink is shared with the backend's worker threads, so it is `&self`
/// throughout and must be `Send + Sync`.
pub trait GradSink: Send + Sync {
    /// Streaming hand-off: layer `layer`'s flat gradient is complete and
    /// owned by `grad`. The sink forwards it (possibly later, possibly
    /// together with other layers) to `deliver`, which routes it into the
    /// backend's optimizer pipeline. Called from backend worker threads.
    fn layer_ready(&self, layer: usize, grad: Vec<f32>, deliver: &(dyn Fn(usize, Vec<f32>) + Sync));
    /// Deferred hand-off: the whole step's per-layer gradients, reduced in
    /// place before clipping / dispatch. `grads[i]` is layer `i`'s flat
    /// gradient.
    fn reduce_step(&self, grads: &mut [Vec<f32>]);
    /// Reduces the resident parameter-group gradients in the fixed step
    /// order (token, position, final-LN gain, final-LN bias). Called every
    /// step, streaming or not — resident gradients never stream.
    fn reduce_resident(&self, groups: [&mut [f32]; 4]);
}

/// The identity sink: every gradient is final as produced (single-replica
/// training).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalSink;

impl GradSink for LocalSink {
    fn layer_ready(
        &self,
        layer: usize,
        grad: Vec<f32>,
        deliver: &(dyn Fn(usize, Vec<f32>) + Sync),
    ) {
        deliver(layer, grad);
    }
    fn reduce_step(&self, _grads: &mut [Vec<f32>]) {}
    fn reduce_resident(&self, _groups: [&mut [f32]; 4]) {}
}

/// A parameter-placement backend: the mechanism half of a trainer.
///
/// Implementations own the model parameters (wherever they live) and the
/// machinery to run a forward/backward pass over them; the [`Engine`] owns
/// everything else. The contract for [`ParamBackend::forward_backward`]:
/// zero and then fill `ws.block_grads` (one flat vector per layer, batch
/// mean-scaled) and `ws.resident_grads`, and return the mean loss. When
/// `plan.streaming` is false no optimizer work happens there — the engine
/// dispatches updates afterwards through
/// [`ParamBackend::dispatch_block_update`] so that clipping and the LR
/// schedule see the whole step's gradients. When `plan.streaming` is true a
/// pipelined backend may instead submit each block's update itself (with
/// `plan.hp`) as soon as that layer's gradient is complete, overlapping the
/// optimizer with the rest of backward; it must then set `ws.streamed`, and
/// fill `ws.norm_partials[i]` (via [`GlobalNorm::layer_sum_sq`]) whenever
/// telemetry is enabled so the engine can still publish `step.grad_norm`.
pub trait ParamBackend {
    /// Model configuration.
    fn config(&self) -> ModelConfig;
    /// Number of transformer blocks.
    fn num_blocks(&self) -> usize;
    /// The telemetry handle the backend records into.
    fn telemetry(&self) -> &Telemetry;
    /// A zeroed resident-group gradient accumulator shaped for this model.
    fn new_resident_grads(&self) -> TransformerGrads;
    /// Runs one forward/backward pass over `batch`, filling `ws`; returns
    /// the mean loss (or, for a rank of a data-parallel group, the raw
    /// shard loss partial — see `host::data_parallel`). On the streaming
    /// path every finished layer gradient must be routed through
    /// `sink.layer_ready` rather than submitted directly, so a reducing sink
    /// can rendezvous it first.
    fn forward_backward(
        &mut self,
        batch: &[(Vec<u32>, Vec<u32>)],
        ws: &mut StepWorkspace,
        plan: &StepPlan,
        sink: &dyn GradSink,
    ) -> f32;
    /// Applies (or dispatches asynchronously) layer `i`'s optimizer update
    /// with the hyper-parameters chosen by the engine for this step.
    fn dispatch_block_update(&mut self, layer: usize, grads: &[f32], hp: &AdamParams);
    /// Mutable access to the resident parameter groups.
    fn resident_params_mut(&mut self) -> ResidentParamsMut<'_>;
    /// Mean loss over a batch without updating.
    fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32;
    /// Serializes the full model (config + parameters) as a
    /// [`stronghold_model::serialize`] container. Callers flush first.
    fn model_blob(&self) -> Bytes;
    /// Snapshot of layer `i`'s Adam state. Callers flush first.
    fn block_adam_snapshot(&self, layer: usize) -> AdamState;
    /// Flat parameters of block `i` in the canonical flatten order, after
    /// any update of that layer still in flight (the equivalence suites
    /// compare these across backends).
    fn block_params(&self, layer: usize) -> Vec<f32>;
    /// Blocks until every in-flight optimizer update has been applied.
    fn flush(&self) {}
}

/// Magic for the universal training-state container: `SHTS`.
pub const STATE_MAGIC: u32 = 0x5348_5453;
/// Training-state format version. Bumped whenever the layout changes; load
/// fails with [`RuntimeError::Checkpoint`] on any other value. Version 2
/// added the precision tag + flags bytes after the version byte.
pub const STATE_VERSION: u8 = 2;
/// Flags bit 0: the serialized parameters are full-precision FP32 masters
/// (always set by [`Engine::save_training_state`] — masters never leave the
/// CPU store at reduced precision). A blob without this bit carries
/// device-rounded values and can only resume under its recorded precision.
pub const STATE_FLAG_FP32_MASTERS: u8 = 1;

/// A decoded training-state blob: everything needed to resume bit-exactly.
pub struct TrainingState {
    /// Completed optimizer steps at save time (drives the LR schedule).
    pub step: u64,
    /// The model (config + parameters).
    pub model: Transformer,
    /// Per-block Adam states, in layer order.
    pub block_adams: Vec<AdamState>,
    /// Resident-group Adam states: token, position, lnf gain, lnf bias.
    pub resident_adams: [AdamState; 4],
    /// Precision mode the trainer was running when the state was saved.
    pub precision: Precision,
    /// Whether the serialized parameters are FP32 masters (see
    /// [`STATE_FLAG_FP32_MASTERS`]). When set, the blob resumes bit-exactly
    /// under *any* precision mode; when clear, only under `precision`.
    pub fp32_masters: bool,
}

fn bad(msg: String) -> RuntimeError {
    RuntimeError::Checkpoint(msg)
}

fn get_adam(blob: &mut Bytes, expect: usize, what: &str) -> Result<AdamState, RuntimeError> {
    if blob.remaining() < 16 {
        return Err(bad(format!("{what}: truncated adam header")));
    }
    let t = blob.get_u64_le();
    let n = blob.get_u64_le() as usize;
    if n != expect {
        return Err(bad(format!(
            "{what}: {n} moment elements, model expects {expect}"
        )));
    }
    if blob.remaining() < n * 8 {
        return Err(bad(format!(
            "{what}: need {} moment bytes, have {}",
            n * 8,
            blob.remaining()
        )));
    }
    let m = (0..n).map(|_| blob.get_f32_le()).collect();
    let v = (0..n).map(|_| blob.get_f32_le()).collect();
    Ok(AdamState { m, v, t })
}

fn put_adam(buf: &mut BytesMut, st: &AdamState) {
    buf.put_u64_le(st.t);
    buf.put_u64_le(st.m.len() as u64);
    buf.reserve(st.m.len() * 8);
    for v in st.m.iter().chain(st.v.iter()) {
        buf.put_f32_le(*v);
    }
}

impl TrainingState {
    /// Parses and validates a training-state blob. Every failure mode —
    /// wrong magic, unknown version, truncation, trailing bytes, or
    /// optimizer state that does not match the embedded model — is a typed
    /// [`RuntimeError::Checkpoint`], never a panic.
    pub fn decode(mut blob: Bytes) -> Result<TrainingState, RuntimeError> {
        if blob.remaining() < 4 + 1 + 1 + 1 + 8 + 8 {
            return Err(bad(format!(
                "header: need {} bytes, have {}",
                4 + 1 + 1 + 1 + 8 + 8,
                blob.remaining()
            )));
        }
        let magic = blob.get_u32();
        if magic != STATE_MAGIC {
            return Err(bad(format!("bad magic {magic:#010x}")));
        }
        let version = blob.get_u8();
        if version != STATE_VERSION {
            return Err(bad(format!(
                "unsupported training-state version {version} (this build reads {STATE_VERSION})"
            )));
        }
        let prec_tag = blob.get_u8();
        let precision = Precision::from_tag(prec_tag)
            .ok_or_else(|| bad(format!("unknown precision tag {prec_tag}")))?;
        let flags = blob.get_u8();
        if flags & !STATE_FLAG_FP32_MASTERS != 0 {
            return Err(bad(format!("unknown state flags {flags:#04x}")));
        }
        let fp32_masters = flags & STATE_FLAG_FP32_MASTERS != 0;
        let step = blob.get_u64_le();
        let model_len = blob.get_u64_le() as usize;
        if blob.remaining() < model_len {
            return Err(bad(format!(
                "model blob: need {model_len} bytes, have {}",
                blob.remaining()
            )));
        }
        let model = stronghold_model::serialize::load(blob.split_to(model_len))
            .map_err(|e| bad(format!("model blob: {e}")))?;
        if blob.remaining() < 8 {
            return Err(bad("block count: truncated".into()));
        }
        let nblocks = blob.get_u64_le() as usize;
        if nblocks != model.blocks.len() {
            return Err(bad(format!(
                "blob has {nblocks} block optimizer states, model has {} blocks",
                model.blocks.len()
            )));
        }
        let block_adams = (0..nblocks)
            .map(|i| {
                get_adam(
                    &mut blob,
                    model.blocks[i].param_count(),
                    &format!("block {i} adam"),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let token = get_adam(&mut blob, model.embedding.token.numel(), "token adam")?;
        let position = get_adam(&mut blob, model.embedding.position.numel(), "position adam")?;
        let lnf_g = get_adam(&mut blob, model.lnf_g.numel(), "lnf gain adam")?;
        let lnf_b = get_adam(&mut blob, model.lnf_b.numel(), "lnf bias adam")?;
        if blob.has_remaining() {
            return Err(bad(format!(
                "{} trailing bytes in training state",
                blob.remaining()
            )));
        }
        Ok(TrainingState {
            step,
            model,
            block_adams,
            resident_adams: [token, position, lnf_g, lnf_b],
            precision,
            fp32_masters,
        })
    }

    /// Fails with [`RuntimeError::Checkpoint`] if the blob's embedded model
    /// configuration differs from the one the caller intends to train.
    pub fn expect_config(&self, cfg: &ModelConfig) -> Result<(), RuntimeError> {
        if self.model.cfg != *cfg {
            return Err(bad(format!(
                "config mismatch: blob was saved with {:?}, trainer expects {cfg:?}",
                self.model.cfg
            )));
        }
        Ok(())
    }

    /// Fails with [`RuntimeError::Checkpoint`] if the blob can only resume
    /// under its recorded precision and the caller wants a different one.
    /// Blobs carrying FP32 masters (everything [`Engine::save_training_state`]
    /// writes) cross-load freely — a bf16 run's checkpoint resumes bit-exactly
    /// under f32 and vice versa, because the masters *are* the f32 state.
    pub fn expect_precision(&self, precision: Precision) -> Result<(), RuntimeError> {
        if !self.fp32_masters && self.precision != precision {
            return Err(bad(format!(
                "precision mismatch: blob holds device-rounded {} values (no FP32 \
                 masters), trainer expects {}",
                self.precision.name(),
                precision.name()
            )));
        }
        Ok(())
    }
}

fn scale_in_place(v: &mut [f32], s: f32) {
    for x in v.iter_mut() {
        *x *= s;
    }
}

/// Gauges publish fractional values as fixed-point ×10⁶ integers (the
/// telemetry layer's gauges are `i64`).
fn fixed_point_x1e6(v: f32) -> i64 {
    (v as f64 * 1e6).round() as i64
}

/// The training engine over a [`ParamBackend`] — the trainer itself:
/// [`HostOffloadTrainer`](crate::host::HostOffloadTrainer) and
/// [`HostResidentTrainer`](crate::host::HostResidentTrainer) are this type
/// over their backend, and it derefs (read-only) to the backend for the
/// placement-specific reads.
pub struct Engine<B: ParamBackend> {
    backend: B,
    opts: EngineOptions,
    ws: StepWorkspace,
    sink: std::sync::Arc<dyn GradSink>,
    step: u64,
    token_adam: AdamState,
    pos_adam: AdamState,
    lnf_g_adam: AdamState,
    lnf_b_adam: AdamState,
    tel: Telemetry,
    lr_gauge: Gauge,
    norm_gauge: Gauge,
}

/// Read-only access to the placement backend's own accessors
/// (`trainer.window()`, `trainer.model()`, …). Deliberately no `DerefMut`:
/// mutation goes through [`Engine::backend_mut`].
impl<B: ParamBackend> std::ops::Deref for Engine<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.backend
    }
}

impl<B: ParamBackend> Engine<B> {
    /// Wraps a freshly-constructed backend with zero optimizer state and
    /// the identity [`LocalSink`].
    pub fn from_backend(backend: B, opts: EngineOptions) -> Self {
        Engine::with_sink(backend, opts, std::sync::Arc::new(LocalSink))
    }

    /// Wraps a backend with an explicit gradient sink (the data-parallel
    /// trainer installs its bucketed all-reduce sink here).
    pub fn with_sink(backend: B, opts: EngineOptions, sink: std::sync::Arc<dyn GradSink>) -> Self {
        let cfg = backend.config();
        let n = backend.num_blocks();
        let ws = StepWorkspace {
            block_grads: vec![Vec::new(); n],
            resident_grads: backend.new_resident_grads(),
            norm_partials: vec![0.0; n],
            streamed: false,
        };
        let tel = backend.telemetry().clone();
        let lr_gauge = tel.gauge("step.lr");
        let norm_gauge = tel.gauge("step.grad_norm");
        Engine {
            backend,
            opts,
            ws,
            sink,
            step: 0,
            token_adam: AdamState::new(cfg.vocab * cfg.hidden),
            pos_adam: AdamState::new(cfg.seq * cfg.hidden),
            lnf_g_adam: AdamState::new(cfg.hidden),
            lnf_b_adam: AdamState::new(cfg.hidden),
            tel,
            lr_gauge,
            norm_gauge,
        }
    }

    /// Wraps a backend restored from a checkpoint, adopting the saved step
    /// counter and resident-group Adam states. (Block Adam states travel
    /// inside the backend, which owns their storage.)
    pub fn resume(backend: B, opts: EngineOptions, step: u64, resident: [AdamState; 4]) -> Self {
        let mut e = Engine::from_backend(backend, opts);
        let [token, position, lnf_g, lnf_b] = resident;
        e.token_adam = token;
        e.pos_adam = position;
        e.lnf_g_adam = lnf_g;
        e.lnf_b_adam = lnf_b;
        e.step = step;
        e
    }

    /// Completed optimizer steps (drives the LR schedule).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The telemetry handle the engine and backend record into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Mutable access to the placement backend (shared access is `Deref`).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// One training step over a batch; returns the mean loss.
    ///
    /// This is the *only* site in the crate that sequences clip → LR
    /// schedule → optimizer dispatch, so the step semantics cannot drift
    /// between backends.
    pub fn train_step(&mut self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        assert!(!batch.is_empty());
        // The per-step hyper-parameters are fixed *before* the pass so a
        // streaming backend can dispatch optimizer updates mid-backward
        // with the same scheduled LR the deferred path would use.
        let mut hp = self.opts.adam;
        if let Some(schedule) = self.opts.schedule {
            hp.lr = schedule.at(self.step);
        }
        // Streaming requires clipping off: whole-step clipping must see
        // every gradient before any update is applied.
        let plan = StepPlan {
            hp,
            streaming: self.opts.clip_norm.is_none(),
        };
        self.ws.streamed = false;
        if plan.streaming && self.tel.is_enabled() {
            self.ws.norm_partials.fill(0.0);
        }
        let loss = self
            .backend
            .forward_backward(batch, &mut self.ws, &plan, &*self.sink);

        // Gradient rendezvous: on the streaming path the sink already saw
        // every block gradient via `layer_ready`; on the deferred path it
        // reduces the whole step here. The resident groups never stream.
        // Either way this happens *before* the norm, so clipping sees the
        // reduced (e.g. replica-summed) gradients — exactly what a
        // single-replica run over the global batch would clip.
        if !self.ws.streamed {
            self.sink.reduce_step(&mut self.ws.block_grads);
        }
        {
            let rg = &mut self.ws.resident_grads;
            self.sink.reduce_resident([
                rg.embedding.token.data_mut(),
                rg.embedding.position.data_mut(),
                rg.lnf_g.data_mut(),
                rg.lnf_b.data_mut(),
            ]);
        }

        // Global gradient norm: a deterministic layer-ordered reduction
        // (blocks ascending, then token, position, lnf gain, lnf bias).
        // Computed only when clipping or telemetry needs it; reading the
        // gradients cannot perturb them, so enabling telemetry stays
        // bit-neutral. A streamed step folds the per-layer f64 partials the
        // backend recorded (the block gradients are already in flight to the
        // optimizer); the fold order and arithmetic are identical, so the
        // gauge value matches the deferred path bit-for-bit.
        let mut clip_scale = 1.0f32;
        if self.opts.clip_norm.is_some() || self.tel.is_enabled() {
            let mut acc = GlobalNorm::new();
            if self.ws.streamed {
                for part in &self.ws.norm_partials {
                    acc.add_layer_sum_sq(*part);
                }
            } else {
                for g in &self.ws.block_grads {
                    acc.add_layer(g);
                }
            }
            let rg = &self.ws.resident_grads;
            acc.add_layer(rg.embedding.token.data());
            acc.add_layer(rg.embedding.position.data());
            acc.add_layer(rg.lnf_g.data());
            acc.add_layer(rg.lnf_b.data());
            self.norm_gauge.set(fixed_point_x1e6(acc.norm()));
            if let Some(max_norm) = self.opts.clip_norm {
                clip_scale = acc.clip_scale(max_norm);
            }
        }
        // A streamed step can never need scaling: streaming is only planned
        // when clipping is off, so the scale is exactly 1.0.
        debug_assert!(!(self.ws.streamed && clip_scale != 1.0));
        // With clipping disabled (or within budget) the scale is exactly 1.0
        // and the gradient bits are never touched.
        if clip_scale != 1.0 {
            for g in self.ws.block_grads.iter_mut() {
                scale_in_place(g, clip_scale);
            }
            let rg = &mut self.ws.resident_grads;
            scale_in_place(rg.embedding.token.data_mut(), clip_scale);
            scale_in_place(rg.embedding.position.data_mut(), clip_scale);
            scale_in_place(rg.lnf_g.data_mut(), clip_scale);
            scale_in_place(rg.lnf_b.data_mut(), clip_scale);
        }

        self.lr_gauge.set(fixed_point_x1e6(hp.lr));

        // Optimizer dispatch: per-block updates in ascending layer order
        // (resident applies inline; windowed hands off to the concurrent
        // actor pool), then the resident groups in fixed order.
        // A streamed step already submitted the block updates mid-backward.
        if !self.ws.streamed {
            for (i, g) in self.ws.block_grads.iter().enumerate() {
                self.backend.dispatch_block_update(i, g, &hp);
            }
        }
        let rg = &self.ws.resident_grads;
        let rp = self.backend.resident_params_mut();
        self.token_adam
            .step(rp.token, rg.embedding.token.data(), &hp);
        self.pos_adam
            .step(rp.position, rg.embedding.position.data(), &hp);
        self.lnf_g_adam.step(rp.lnf_g, rg.lnf_g.data(), &hp);
        self.lnf_b_adam.step(rp.lnf_b, rg.lnf_b.data(), &hp);

        self.step += 1;
        // Publish cumulative GEMM kernel throughput (read-only bridge, so
        // it cannot perturb the step it reports on).
        crate::telemetry::record_kernel_stats(&self.tel);
        loss
    }

    /// Mean loss over a batch without updating (evaluation).
    pub fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        self.backend.eval_loss(batch)
    }

    /// Blocks until every in-flight optimizer update has been applied —
    /// including, for a tiered store, the spill-tier write-backs.
    pub fn flush(&self) {
        self.backend.flush();
    }

    /// Flat parameters of block `i` (see [`ParamBackend::block_params`]).
    pub fn block_params(&self, i: usize) -> Vec<f32> {
        self.backend.block_params(i)
    }

    /// Serializes the *full* training state — format version, step counter,
    /// model parameters, and every Adam moment — so training resumes
    /// **bit-exactly** on any backend (the fine-tuning checkpoint/resume
    /// workflow of §III-G).
    pub fn save_training_state(&self) -> Bytes {
        self.backend.flush();
        let model_blob = self.backend.model_blob();
        let mut buf = BytesMut::new();
        buf.put_u32(STATE_MAGIC);
        buf.put_u8(STATE_VERSION);
        buf.put_u8(self.opts.precision.tag());
        // The model blob is read from the CPU store, which always holds
        // full-precision masters — never the device's rounded copies.
        buf.put_u8(STATE_FLAG_FP32_MASTERS);
        buf.put_u64_le(self.step);
        buf.put_u64_le(model_blob.len() as u64);
        buf.extend_from_slice(&model_blob);
        let n = self.backend.num_blocks();
        buf.put_u64_le(n as u64);
        for i in 0..n {
            put_adam(&mut buf, &self.backend.block_adam_snapshot(i));
        }
        for st in [
            &self.token_adam,
            &self.pos_adam,
            &self.lnf_g_adam,
            &self.lnf_b_adam,
        ] {
            put_adam(&mut buf, st);
        }
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_rounds() {
        assert_eq!(fixed_point_x1e6(1.5e-4), 150);
        assert_eq!(fixed_point_x1e6(0.0), 0);
        assert_eq!(fixed_point_x1e6(2.0), 2_000_000);
    }

    #[test]
    fn decode_rejects_garbage() {
        let e = TrainingState::decode(Bytes::from(vec![0u8; 3]))
            .err()
            .expect("must fail");
        assert!(matches!(e, RuntimeError::Checkpoint(_)), "{e}");
        let e = TrainingState::decode(Bytes::from(vec![0u8; 64]))
            .err()
            .expect("must fail");
        assert!(matches!(e, RuntimeError::Checkpoint(_)), "{e}");
    }
}
