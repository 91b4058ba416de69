//! Concurrent CPU optimizer pool (§III-E1).
//!
//! STRONGHOLD creates multiple optimizers at initialization and dispatches
//! them as asynchronous actors so several layers' parameter updates run in
//! parallel on the multi-core CPU, concurrently with GPU backward
//! computation. The original system rides on Ray's gRPC actor layer; this
//! reproduction uses a crossbeam-channel worker pool with identical
//! semantics (documented substitution in DESIGN.md).
//!
//! Correctness note mirrored from the paper (§III-A "no stale updates"):
//! each update touches exactly one layer's parameters and optimizer state,
//! and a layer's parameters cannot be *read* (prefetched for the next
//! iteration) while its update is pending — enforced by [`LayerStore`].
//!
//! Mixed precision (ZeRO-Offload-style split): the store always holds
//! **FP32 master** parameters and Adam moments, regardless of the trainer's
//! device/transfer precision. Under a half mode the backends round
//! gradients through the transfer format *before* submission
//! ("convert-on-ingest" — the `Vec<f32>` arriving here already carries the
//! half-grid values), so the fused AdamW step below runs unchanged at the
//! memory-bandwidth floor and checkpoints serialize bit-exact FP32 masters.
//!
//! Spilled layers (§III-G) are updated in place on the file: the actor
//! running the update pages params, m and v in one chunk at a time
//! through a small staging triple it owns, steps the chunk and writes it
//! back before reading the next, as ZeRO-Infinity steps NVMe-resident
//! optimizer state sub-group by sub-group. An update therefore holds
//! `3 × SPILL_CHUNK` floats per actor, never a whole layer's state, and
//! nothing outlives it: the write-back has landed when `pending_update`
//! clears.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::adam::{self, AdamParams, AdamState};
use crate::nvme::NvmeStore;
use crate::telemetry::{Gauge, Telemetry};
use crate::tier::{io_failure, Tier, TierPlan, TierStore};
use crate::{lock, wait};

/// Floats per component (params, m, v) a spilled update pages through its
/// actor's staging triple at once — 1 MiB each. A power-of-two multiple of
/// the widest vector tier's 16 lanes, so every chunk starts where the
/// whole-layer kernel runs a full vector: the vectorized body and the
/// scalar tail cover the same elements, and the chunked step is
/// bit-identical to the resident one.
const SPILL_CHUNK: usize = 1 << 18;

/// An optimizer actor's reusable page-in buffers for spilled updates: one
/// chunk each of params, m and v.
pub(crate) type Staging = [Vec<f32>; 3];

/// Per-layer parameter + optimizer-state storage, the "CPU RAM" side of the
/// offloading runtime. All access is through layer-granular locks.
///
/// Placement is per-layer ([`Tier`]): a slot either holds its FP32 masters
/// and Adam moments resident in RAM (the classic mode), or pages them
/// through a file slot on the [`TierStore`] spill engine (§III-G). The API
/// surface is identical either way, and — because f32 ↔ le-bytes file round
/// trips are bit-exact — so is the training math.
pub struct LayerStore {
    slots: Arc<Vec<SlotCell>>,
    /// Per-layer parameter counts (valid even for spilled layers whose
    /// RAM-side `params` vector is empty between fills).
    lens: Vec<usize>,
    placement: Vec<Tier>,
    tier: Option<TierStore>,
    /// Built without Adam moments ([`LayerStore::without_moments`]): no
    /// layer ever takes an update.
    read_only: bool,
}

pub(crate) struct SlotCell {
    pub(crate) lock: Mutex<Slot>,
    pub(crate) cv: Condvar,
}

pub(crate) struct Slot {
    /// Resident layers: the authoritative masters. Spilled layers: an
    /// evict-after-read fill cache (empty unless `filled`).
    pub(crate) params: Vec<f32>,
    /// Resident layers: the authoritative moments. Spilled layers: `m`/`v`
    /// are empty (they live in the file slot) and only `t` is meaningful.
    pub(crate) adam: AdamState,
    pub(crate) pending_update: bool,
    /// Spilled layers only: index into the swap file.
    pub(crate) file_slot: usize,
    /// Spilled layers only: a completed fill is cached in `params`.
    pub(crate) filled: bool,
    /// Spilled layers only: a fill job is queued or running.
    pub(crate) fill_inflight: bool,
    /// Spilled layers only: the first swap-file I/O failure on this layer.
    /// Every later access re-raises it (see [`Slot::check_io`]).
    pub(crate) failure: Option<String>,
}

impl Slot {
    fn resident(params: Vec<f32>) -> Self {
        let n = params.len();
        Slot {
            params,
            adam: AdamState::new(n),
            pending_update: false,
            file_slot: usize::MAX,
            filled: false,
            fill_inflight: false,
            failure: None,
        }
    }

    /// Re-raises a recorded spill I/O failure as a panic on the calling
    /// thread. The worker or actor that hit it recorded it and woke every
    /// waiter instead of dying, so nothing is left blocked.
    fn check_io(&self) {
        if let Some(msg) = &self.failure {
            panic!("{msg}");
        }
    }
}

impl LayerStore {
    /// Builds an all-resident store from per-layer flat parameter vectors.
    pub fn new(layer_params: Vec<Vec<f32>>) -> Arc<Self> {
        let lens = layer_params.iter().map(Vec::len).collect();
        let slots = layer_params.into_iter().map(Slot::resident).collect();
        Self::all_resident(slots, lens, false)
    }

    /// An all-resident store holding parameters only — no Adam moments. The
    /// read-only store of the serving engine, whose layers are flat images
    /// of `params` parameters each: a serving-form block's image carries
    /// panel padding, which is layout, so the store counts parameters, not
    /// image floats. [`LayerStore::apply_update`] on it fails the
    /// optimizer's length check.
    pub(crate) fn without_moments(images: Vec<Vec<f32>>, params: usize) -> Arc<Self> {
        let lens = vec![params; images.len()];
        let bare = |params| Slot {
            params,
            ..Slot::resident(Vec::new())
        };
        Self::all_resident(images.into_iter().map(bare).collect(), lens, true)
    }

    fn all_resident(slots: Vec<Slot>, lens: Vec<usize>, read_only: bool) -> Arc<Self> {
        let cell = |slot| SlotCell {
            lock: Mutex::new(slot),
            cv: Condvar::new(),
        };
        Arc::new(LayerStore {
            slots: Arc::new(slots.into_iter().map(cell).collect()),
            placement: vec![Tier::Ram; lens.len()],
            lens,
            tier: None,
            read_only,
        })
    }

    /// Builds a store whose layers are placed per `plan`: `Tier::Ram` slots
    /// behave exactly as in [`LayerStore::new`]; `Tier::File` slots write
    /// their initial params + zero moments to a fresh swap file and page
    /// through the tier's async fill thread. Falls back to the plain
    /// resident store when the plan spills nothing.
    ///
    /// # Panics
    /// Panics if spilled layers have non-uniform parameter counts (the swap
    /// file uses fixed-size slots).
    pub fn tiered(
        layer_params: Vec<Vec<f32>>,
        plan: &TierPlan,
        tel: &Telemetry,
    ) -> std::io::Result<Arc<Self>> {
        let lens: Vec<usize> = layer_params.iter().map(Vec::len).collect();
        let placement: Vec<Tier> = plan.tiers().to_vec();
        assert_eq!(placement.len(), lens.len(), "plan vs layer count");
        let spilled: Vec<usize> = (0..lens.len())
            .filter(|l| placement[*l] == Tier::File)
            .collect();
        if spilled.is_empty() {
            return Ok(LayerStore::new(layer_params));
        }
        let n = lens[spilled[0]];
        assert!(
            spilled.iter().all(|l| lens[*l] == n),
            "spilled layers must have uniform parameter counts"
        );
        let nvme = NvmeStore::create(spilled.len(), 3 * n)?;
        let mut scratch = Vec::new();
        let zeros = vec![0.0f32; n];
        let mut slots = Vec::with_capacity(lens.len());
        let mut next_file_slot = 0usize;
        for (l, p) in layer_params.into_iter().enumerate() {
            let slot = if placement[l] == Tier::File {
                let fs = next_file_slot;
                next_file_slot += 1;
                nvme.write_at(fs, 0, &p, &mut scratch)?;
                nvme.write_at(fs, n, &zeros, &mut scratch)?;
                nvme.write_at(fs, 2 * n, &zeros, &mut scratch)?;
                // Nothing in RAM: params, m and v live in the file slot.
                Slot {
                    file_slot: fs,
                    ..Slot::resident(Vec::new())
                }
            } else {
                Slot::resident(p)
            };
            slots.push(SlotCell {
                lock: Mutex::new(slot),
                cv: Condvar::new(),
            });
        }
        let slots = Arc::new(slots);
        let tier = TierStore::new(nvme, Arc::clone(&slots), n, tel);
        Ok(Arc::new(LayerStore {
            slots,
            lens,
            placement,
            tier: Some(tier),
            read_only: false,
        }))
    }

    /// Whether the store holds parameters only, so no layer ever changes.
    pub(crate) fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the store holds no layers.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reads a layer's parameters (the H2D prefetch source). Blocks while an
    /// update for the layer is pending, which is exactly the dependency the
    /// paper's pipeline enforces between iteration k's optimizer and
    /// iteration k+1's prefetch.
    pub fn read_params(&self, layer: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_params_into(layer, &mut out);
        out
    }

    /// [`LayerStore::read_params`] into a caller-owned buffer, clearing it
    /// first.
    pub fn read_params_into(&self, layer: usize, out: &mut Vec<f32>) {
        self.with_params(layer, |params| {
            out.clear();
            out.extend_from_slice(params);
        })
    }

    /// Lends a layer's parameters to `f` without copying them — the read
    /// the H2D stream loads device shells from. Blocks while an update for
    /// the layer is pending. A resident layer is lent under its slot lock;
    /// a spilled layer's fill cache is consumed (and evicted), with a
    /// demand fill issued if no prefill landed ahead of the read. Time
    /// spent blocked on a fill accrues to the store's fill-wait clock.
    ///
    /// # Panics
    /// Panics on the calling thread if the layer's swap-file I/O failed,
    /// naming the layer, the file slot and the error.
    pub(crate) fn with_params<R>(&self, layer: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            let mut slot = lock(&cell.lock);
            while slot.pending_update {
                slot = wait(&cell.cv, slot);
            }
            return f(&slot.params);
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let t0 = std::time::Instant::now();
        let mut slot = lock(&cell.lock);
        let buf = loop {
            slot.check_io();
            if slot.pending_update {
                slot = wait(&cell.cv, slot);
                continue;
            }
            if slot.filled {
                slot.filled = false;
                break std::mem::take(&mut slot.params);
            }
            if !slot.fill_inflight {
                // Demand fill: flag it, then enqueue outside the slot lock
                // (bounded-channel backpressure must never block a worker's
                // access to this slot).
                slot.fill_inflight = true;
                let fs = slot.file_slot;
                drop(slot);
                tier.enqueue_fill(layer, fs);
                slot = lock(&cell.lock);
                continue;
            }
            slot = wait(&cell.cv, slot);
        };
        drop(slot);
        tier.add_fill_wait(t0.elapsed().as_nanos() as u64);
        let out = f(&buf);
        tier.give_buffer(buf);
        out
    }

    /// Issues an asynchronous fill of a spilled layer ahead of its read —
    /// the schedule-driven prefetch of the file tier. No-op for resident
    /// layers, layers already filled/filling or failed, and layers whose
    /// update is still in flight (the file image is stale until the
    /// write-back lands; the eventual read falls back to a demand fill).
    pub fn prefill(&self, layer: usize) {
        let Some(tier) = &self.tier else { return };
        if self.placement[layer] != Tier::File {
            return;
        }
        let cell = &self.slots[layer];
        let fs = {
            let mut slot = lock(&cell.lock);
            if slot.pending_update || slot.filled || slot.fill_inflight || slot.failure.is_some() {
                return;
            }
            slot.fill_inflight = true;
            slot.file_slot
        };
        tier.enqueue_fill(layer, fs);
    }

    /// Marks a layer as having an in-flight update (called when gradients
    /// are offloaded, before the optimizer task is queued).
    pub fn mark_pending(&self, layer: usize) {
        lock(&self.slots[layer].lock).pending_update = true;
    }

    /// Applies an Adam update for a layer and releases waiters.
    ///
    /// Resident layers step in place. Spilled layers step straight through
    /// their file slot, chunk by chunk (see the module docs): 12·S bytes in,
    /// 12·S out, all on the calling thread, and `pending_update` clears only
    /// once the last chunk is written back, so readers and checkpoints never
    /// observe a stale file image. A failed swap-file access does not panic
    /// here — the caller may be an optimizer actor whose death would strand
    /// `flush` — but is recorded and re-raised by the next access to the
    /// layer and by [`LayerStore::flush_spill`].
    pub fn apply_update(&self, layer: usize, grads: &[f32], hp: &AdamParams) {
        self.apply_update_with(layer, grads, hp, &mut Staging::default());
    }

    /// [`LayerStore::apply_update`] paging a spilled layer through the
    /// caller's reusable `staging` buffers.
    pub(crate) fn apply_update_with(
        &self,
        layer: usize,
        grads: &[f32],
        hp: &AdamParams,
        staging: &mut Staging,
    ) {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            let mut slot = lock(&cell.lock);
            let Slot { params, adam, .. } = &mut *slot;
            adam.step(params, grads, hp);
            slot.pending_update = false;
            cell.cv.notify_all();
            return;
        }
        assert_eq!(grads.len(), self.lens[layer], "adam: params vs grads");
        let tier = self.tier.as_ref().expect("tiered store");
        let (fs, t) = {
            let mut slot = lock(&cell.lock);
            // No fill may observe or race the rewrite. Callers mark the
            // layer pending before submitting, and prefill skips pending
            // layers, so in the pipeline the flag is already set and the
            // wait is dead — but the protocol stays safe under any caller.
            slot.pending_update = true;
            while slot.fill_inflight {
                slot = wait(&cell.cv, slot);
            }
            if slot.filled {
                slot.filled = false;
                tier.give_buffer(std::mem::take(&mut slot.params));
            }
            (slot.file_slot, slot.adam.t + 1)
        };
        let stepped = step_in_file(tier, fs, grads, t, hp, staging);
        let mut slot = lock(&cell.lock);
        match stepped {
            Ok(()) => {
                slot.adam.t = t;
                tier.count_update();
            }
            Err(e) => {
                slot.failure
                    .get_or_insert(io_failure(layer, fs, "update", &e));
            }
        }
        slot.pending_update = false;
        cell.cv.notify_all();
    }

    /// Snapshot of a layer's parameters. Resident layers impose no ordering
    /// guarantees (tests); spilled layers wait out any in-flight update so
    /// the file image read back is current.
    pub fn snapshot(&self, layer: usize) -> Vec<f32> {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            return lock(&cell.lock).params.clone();
        }
        let mut out = Vec::new();
        self.read_params_into(layer, &mut out);
        out
    }

    /// Total parameter count across layers.
    pub fn total_params(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Parameter count of one layer (used to validate gradient submissions
    /// before they reach an actor — a malformed gradient must fail fast on
    /// the submitting thread, not poison a pool worker).
    pub fn param_len(&self, layer: usize) -> usize {
        self.lens[layer]
    }

    /// Snapshot of a layer's Adam moment state (checkpointing). Callers must
    /// flush the optimizer pool first; for resident layers this does not
    /// wait for pending updates, for spilled layers it waits out an
    /// in-flight update before reading the file image.
    ///
    /// # Panics
    /// Panics if a spilled layer's swap-file I/O failed (now or earlier).
    pub fn adam_snapshot(&self, layer: usize) -> AdamState {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            return lock(&cell.lock).adam.clone();
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let (fs, t) = {
            let mut slot = lock(&cell.lock);
            while slot.pending_update {
                slot = wait(&cell.cv, slot);
            }
            slot.check_io();
            (slot.file_slot, slot.adam.t)
        };
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut scratch = Vec::new();
        for (off, buf) in [(n, &mut m), (2 * n, &mut v)] {
            if let Err(e) = tier.nvme().read_at(fs, off, buf, &mut scratch) {
                panic!("{}", io_failure(layer, fs, "adam snapshot", &e));
            }
        }
        AdamState { m, v, t }
    }

    /// Replaces a layer's Adam moment state (checkpoint restore).
    ///
    /// # Panics
    /// Panics if the state's moment length does not match the layer.
    pub fn set_adam(&self, layer: usize, state: AdamState) {
        assert_eq!(
            state.m.len(),
            self.lens[layer],
            "adam state length mismatch for layer {layer}"
        );
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            lock(&cell.lock).adam = state;
            return;
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let fs = {
            let mut slot = lock(&cell.lock);
            while slot.pending_update || slot.fill_inflight {
                slot = wait(&cell.cv, slot);
            }
            slot.adam.t = state.t;
            slot.file_slot
        };
        let mut scratch = Vec::new();
        for (off, buf) in [(n, &state.m), (2 * n, &state.v)] {
            if let Err(e) = tier.nvme().write_at(fs, off, buf, &mut scratch) {
                panic!("{}", io_failure(layer, fs, "adam restore", &e));
            }
        }
    }

    /// How many layers page through the file tier.
    pub fn spilled_layers(&self) -> usize {
        self.placement.iter().filter(|t| **t == Tier::File).count()
    }

    /// The spill engine, when this store is tiered.
    pub fn tier_store(&self) -> Option<&TierStore> {
        self.tier.as_ref()
    }

    /// Blocks until every enqueued fill has completed. Run after the
    /// optimizer-pool flush — which has landed every write-back, since an
    /// update writes back inside `apply_update` — it leaves nothing in
    /// flight.
    ///
    /// # Panics
    /// Panics with the first recorded swap-file I/O failure of any layer,
    /// so a failed fill or update surfaces at the step boundary.
    pub fn flush_spill(&self) {
        if let Some(tier) = &self.tier {
            tier.quiesce();
            for cell in self.slots.iter() {
                lock(&cell.lock).check_io();
            }
        }
    }

    /// Cumulative nanoseconds readers spent blocked on file-tier fills.
    pub fn fill_wait_nanos(&self) -> u64 {
        self.tier.as_ref().map_or(0, TierStore::fill_wait_nanos)
    }
}

/// Adam step `t` of the spilled layer in `file_slot`, in place on the swap
/// file: each [`SPILL_CHUNK`] of params, m and v is read into `staging`,
/// stepped with the resident path's formula, and written back before the
/// next is read.
fn step_in_file(
    tier: &TierStore,
    file_slot: usize,
    grads: &[f32],
    t: u64,
    hp: &AdamParams,
    staging: &mut Staging,
) -> std::io::Result<()> {
    let n = grads.len();
    let (nvme, tel) = (tier.nvme(), tier.telemetry());
    let chunk = SPILL_CHUNK.min(n);
    for buf in staging.iter_mut().filter(|buf| buf.len() < chunk) {
        buf.resize(chunk, 0.0);
    }
    let [params, m, v] = staging;
    // Byte staging of a big-endian host; untouched on little-endian ones.
    let mut scratch = Vec::new();
    for start in (0..n).step_by(SPILL_CHUNK) {
        let len = SPILL_CHUNK.min(n - start);
        let (p, m, v) = (&mut params[..len], &mut m[..len], &mut v[..len]);
        {
            let _s = tel.span("spill-read", "update-page-in");
            nvme.read_at(file_slot, start, p, &mut scratch)?;
            nvme.read_at(file_slot, n + start, m, &mut scratch)?;
            nvme.read_at(file_slot, 2 * n + start, v, &mut scratch)?;
        }
        adam::fused_step(p, &grads[start..start + len], m, v, t, hp);
        let _s = tel.span("spill-write", "update-write-back");
        nvme.write_at(file_slot, start, p, &mut scratch)?;
        nvme.write_at(file_slot, n + start, m, &mut scratch)?;
        nvme.write_at(file_slot, 2 * n + start, v, &mut scratch)?;
    }
    Ok(())
}

/// An asynchronous parameter-update task. Carries its own hyper-params so a
/// per-step learning-rate schedule reaches the actors without reconfiguring
/// the pool.
struct UpdateTask {
    layer: usize,
    grads: Vec<f32>,
    hp: AdamParams,
}

/// Cap on the gradient-buffer free list. In steady state at most
/// `layers` buffers are in flight at once, and each retains the capacity
/// of the largest layer it ever carried.
const MAX_RECYCLED: usize = 64;

/// The concurrent optimizer pool: `workers` actor threads applying
/// update tasks against a shared [`LayerStore`].
pub struct OptimizerPool {
    store: Arc<LayerStore>,
    tx: Option<Sender<UpdateTask>>,
    inflight: Arc<(Mutex<usize>, Condvar)>,
    updates: Arc<AtomicUsize>,
    handles: Vec<std::thread::JoinHandle<()>>,
    queue_depth: Gauge,
    recycle: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl OptimizerPool {
    /// Spawns `workers` optimizer actors over `store`, recording per-update
    /// latency (`optim.update_ns`), cumulative worker busy time
    /// (`optim.busy_ns`) and live queue depth (`optim.queue_depth`) into
    /// `tel`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_telemetry(store: Arc<LayerStore>, workers: usize, tel: &Telemetry) -> Self {
        assert!(workers > 0);
        let (tx, rx) = unbounded::<UpdateTask>();
        let mut pool = OptimizerPool {
            store,
            tx: Some(tx),
            inflight: Arc::new((Mutex::new(0usize), Condvar::new())),
            updates: Arc::new(AtomicUsize::new(0)),
            handles: Vec::with_capacity(workers),
            queue_depth: tel.gauge("optim.queue_depth"),
            recycle: Arc::new(Mutex::new(Vec::new())),
        };
        for w in 0..workers {
            pool.spawn_worker(w, rx.clone(), tel.clone());
        }
        pool
    }

    /// Spawns actor thread `w` on the shared task channel.
    fn spawn_worker(&mut self, w: usize, rx: Receiver<UpdateTask>, tel: Telemetry) {
        let store = Arc::clone(&self.store);
        let inflight = Arc::clone(&self.inflight);
        let updates = Arc::clone(&self.updates);
        let queue_depth = self.queue_depth.clone();
        let recycle = Arc::clone(&self.recycle);
        crate::telemetry::count_spawn();
        self.handles.push(
            std::thread::Builder::new()
                .name(format!("optim-{w}"))
                .spawn(move || {
                    let update_ns = tel.histogram("optim.update_ns");
                    let busy_ns = tel.counter("optim.busy_ns");
                    let mut staging = Staging::default();
                    while let Ok(task) = rx.recv() {
                        queue_depth.add(-1);
                        let t0 = tel.now_nanos();
                        store.apply_update_with(task.layer, &task.grads, &task.hp, &mut staging);
                        let dt = tel.now_nanos().saturating_sub(t0);
                        update_ns.record(dt);
                        busy_ns.add(dt);
                        updates.fetch_add(1, Ordering::SeqCst);
                        {
                            let mut free = lock(&recycle);
                            if free.len() < MAX_RECYCLED {
                                free.push(task.grads);
                            }
                        }
                        let (count, cv) = &*inflight;
                        let mut n = lock(count);
                        *n -= 1;
                        if *n == 0 {
                            cv.notify_all();
                        }
                    }
                })
                .expect("spawn optimizer worker"),
        );
    }

    /// Submits an asynchronous update for `layer` with the hyper-params of
    /// this one update (so a per-step [`crate::schedule::LrSchedule`]
    /// reaches the actors). The caller must have called
    /// [`LayerStore::mark_pending`] when the gradients left the GPU.
    ///
    /// The gradients are copied into a buffer drawn from the pool's free
    /// list (refilled by workers as updates retire), so steady-state
    /// submission allocates nothing and the caller keeps its own buffer
    /// for reuse — the "D2H copy" of §III-E3 without a fresh staging
    /// vector per layer per step.
    pub fn submit_with(&self, layer: usize, grads: &[f32], hp: AdamParams) {
        let mut buf = self.recycled_buffer();
        buf.extend_from_slice(grads);
        self.submit_owned(layer, buf, hp);
    }

    /// An empty gradient buffer drawn from the pool's free list (refilled by
    /// workers as updates retire). Fill it and hand it back through
    /// [`OptimizerPool::submit_owned`] — the offload thread flattens layer
    /// gradients *directly* into such a buffer, so a streamed update pays no
    /// copy beyond the flatten itself.
    pub fn recycled_buffer(&self) -> Vec<f32> {
        match lock(&self.recycle).pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Submits an update whose gradient buffer the caller already owns
    /// (typically one from [`OptimizerPool::recycled_buffer`]); the buffer
    /// travels to the worker without another copy and returns to the free
    /// list when the update retires.
    pub fn submit_owned(&self, layer: usize, grads: Vec<f32>, hp: AdamParams) {
        assert_eq!(
            grads.len(),
            self.store.param_len(layer),
            "gradient length mismatch for layer {layer}"
        );
        {
            let (count, _) = &*self.inflight;
            *lock(count) += 1;
        }
        self.queue_depth.add(1);
        self.tx
            .as_ref()
            .expect("pool alive")
            .send(UpdateTask { layer, grads, hp })
            .expect("optimizer pool channel closed");
    }

    /// Blocks until every submitted update has been applied.
    pub fn flush(&self) {
        let (count, cv) = &*self.inflight;
        let mut n = lock(count);
        while *n > 0 {
            n = wait(cv, n);
        }
    }

    /// Total updates applied since creation.
    pub fn updates_applied(&self) -> usize {
        self.updates.load(Ordering::SeqCst)
    }
}

impl Drop for OptimizerPool {
    fn drop(&mut self) {
        self.flush();
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_init(layer: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| (layer * n + i) as f32 * 0.01).collect()
    }

    fn store_with(layers: usize, n: usize) -> Arc<LayerStore> {
        LayerStore::new((0..layers).map(|l| layer_init(l, n)).collect())
    }

    #[test]
    fn recycler_reuses_and_takes_buffers_back() {
        let store = store_with(1, 8);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 1, &Telemetry::disabled());
        // Nothing retired yet: a draw is a fresh, unallocated buffer.
        assert_eq!(pool.recycled_buffer().capacity(), 0);
        // A buffer retired by a worker is drawn again: contents cleared,
        // capacity kept.
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0.5; 8]);
        store.mark_pending(0);
        pool.submit_owned(0, buf, AdamParams::default());
        pool.flush();
        let again = pool.recycled_buffer();
        assert!(again.is_empty());
        assert!(again.capacity() >= 64);
        // The free list held exactly that one buffer.
        assert_eq!(pool.recycled_buffer().capacity(), 0);
    }

    /// Any number of actors stepping layers at once — resident, or spilled
    /// through one swap file — leaves params and Adam moments bit-equal to
    /// the sequential resident reference.
    #[test]
    fn pool_matches_sequential_adam_any_worker_count() {
        let hp = AdamParams::default();
        let grads: Vec<Vec<f32>> = (0..6)
            .map(|l| (0..32).map(|i| ((l + i) as f32).cos()).collect())
            .collect();

        // Sequential reference.
        let seq = store_with(6, 32);
        for (l, g) in grads.iter().enumerate() {
            seq.apply_update(l, g, &hp);
        }

        for workers in [1, 2, 4, 8] {
            let spilled = fully_spilled((0..6).map(|l| layer_init(l, 32)).collect());
            for (kind, store) in [("resident", store_with(6, 32)), ("spilled", spilled)] {
                let pool = OptimizerPool::with_telemetry(
                    Arc::clone(&store),
                    workers,
                    &Telemetry::disabled(),
                );
                for (l, g) in grads.iter().enumerate() {
                    store.mark_pending(l);
                    pool.submit_with(l, g, hp);
                }
                pool.flush();
                for l in 0..6 {
                    let (got, want) = (store.adam_snapshot(l), seq.adam_snapshot(l));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let ctx = format!("{kind} layer {l}, workers {workers}");
                    assert_eq!(bits(&store.snapshot(l)), bits(&seq.snapshot(l)), "{ctx}");
                    assert_eq!(bits(&got.m), bits(&want.m), "m, {ctx}");
                    assert_eq!(bits(&got.v), bits(&want.v), "v, {ctx}");
                    assert_eq!(got.t, want.t, "t, {ctx}");
                }
                assert_eq!(pool.updates_applied(), 6);
            }
        }
    }

    #[test]
    fn read_params_waits_for_pending_update() {
        let hp = AdamParams::default();
        // The resident store and the fully spilled one (whose write-back
        // must land before the read is released) honour the same contract.
        let spilled = fully_spilled(vec![(0..8).map(|i| i as f32 * 0.01).collect()]);
        for store in [store_with(1, 8), spilled] {
            let before = store.snapshot(0);
            store.mark_pending(0);
            let store2 = Arc::clone(&store);
            let reader = std::thread::spawn(move || store2.read_params(0));
            // Give the reader time to block, then apply the update.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(
                !reader.is_finished(),
                "reader should block on pending update"
            );
            store.apply_update(0, &[1.0; 8], &hp);
            let seen = reader.join().unwrap();
            assert_ne!(seen, before, "reader must not observe stale params");
            assert_eq!(
                seen,
                store.snapshot(0),
                "reader must observe post-update params"
            );
        }
    }

    fn fully_spilled(layer_params: Vec<Vec<f32>>) -> Arc<LayerStore> {
        let (layers, n) = (layer_params.len(), layer_params[0].len());
        let plan = TierPlan::plan(layers, n, 1, Some(0));
        let store = LayerStore::tiered(layer_params, &plan, &Telemetry::disabled()).unwrap();
        assert_eq!(store.spilled_layers(), layers);
        store
    }

    /// The spilled update steps its layer chunk by chunk; a resident store
    /// steps it whole. Around every chunk boundary — a layer shorter than
    /// one vector, one short of a chunk, exactly one, and two plus a ragged
    /// tail — the two must agree bit for bit on params, m, v and `t`.
    #[test]
    fn chunk_boundaries_are_invisible() {
        let hp = AdamParams::default();
        let first_diff = |a: &[f32], b: &[f32]| {
            assert_eq!(a.len(), b.len());
            a.iter()
                .zip(b)
                .position(|(x, y)| x.to_bits() != y.to_bits())
        };
        for n in [15, SPILL_CHUNK - 1, SPILL_CHUNK, 2 * SPILL_CHUNK + 37] {
            let init: Vec<f32> = (0..n).map(|i| ((i % 997) as f32 * 0.37).sin()).collect();
            let resident = LayerStore::new(vec![init.clone()]);
            let spilled = fully_spilled(vec![init]);
            for k in 0..3 {
                let grads: Vec<f32> = (0..n)
                    .map(|i| ((i * 7 + k * 13) % 1009) as f32 * 1e-3 - 0.5)
                    .collect();
                resident.apply_update(0, &grads, &hp);
                spilled.apply_update(0, &grads, &hp);
            }
            let params = first_diff(&spilled.snapshot(0), &resident.snapshot(0));
            assert_eq!(params, None, "first differing param, n = {n}");
            let (got, want) = (spilled.adam_snapshot(0), resident.adam_snapshot(0));
            assert_eq!(
                first_diff(&got.m, &want.m),
                None,
                "first differing m, n = {n}"
            );
            assert_eq!(
                first_diff(&got.v, &want.v),
                None,
                "first differing v, n = {n}"
            );
            assert_eq!((got.t, want.t), (3, 3), "t, n = {n}");
        }
    }

    /// A chunked update whose swap-file I/O fails must not kill its actor
    /// (the pool's in-flight count would never drain): `flush` returns,
    /// and the failure is re-raised on the thread that next touches the
    /// layer, or flushes the spill tier, naming layer, file slot and error.
    #[test]
    fn a_failed_spilled_update_wakes_flush_and_reraises_on_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let store = fully_spilled(vec![vec![0.25; 64]; 2]);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 1, &Telemetry::disabled());
        let nvme = store.tier_store().unwrap().nvme();
        std::fs::OpenOptions::new()
            .write(true)
            .open(nvme.path())
            .unwrap()
            .set_len(0)
            .unwrap();
        store.mark_pending(1);
        pool.submit_with(1, &[0.5; 64], AdamParams::default());
        pool.flush();
        assert_eq!(pool.updates_applied(), 1, "the actor survived");
        let message = |f: &dyn Fn()| {
            let panic = catch_unwind(AssertUnwindSafe(f)).expect_err("must re-raise");
            panic.downcast_ref::<String>().cloned().unwrap()
        };
        for msg in [
            message(&|| drop(store.read_params(1))),
            message(&|| store.flush_spill()),
        ] {
            assert!(
                msg.contains("layer 1, file slot 1, update: failed to fill whole buffer"),
                "{msg}"
            );
        }
    }

    #[test]
    fn many_updates_across_layers_complete() {
        let store = store_with(16, 64);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 4, &Telemetry::disabled());
        for iter in 0..10 {
            for l in 0..16 {
                store.mark_pending(l);
                pool.submit_with(
                    l,
                    &vec![0.01 * (iter + 1) as f32; 64],
                    AdamParams::default(),
                );
            }
            pool.flush();
        }
        assert_eq!(pool.updates_applied(), 160);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn malformed_gradient_rejected_at_submit() {
        let store = store_with(2, 8);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 2, &Telemetry::disabled());
        store.mark_pending(0);
        pool.submit_with(0, &[1.0; 5], AdamParams::default()); // wrong length: panics here, not in a worker
    }

    #[test]
    fn telemetry_counts_updates_and_latency() {
        let tel = Telemetry::enabled();
        let store = store_with(4, 32);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 2, &tel);
        for l in 0..4 {
            store.mark_pending(l);
            pool.submit_with(l, &[0.5; 32], AdamParams::default());
        }
        pool.flush();
        let h = tel.histogram("optim.update_ns");
        assert_eq!(h.count(), 4, "one latency sample per update");
        assert_eq!(tel.counter("optim.busy_ns").get(), h.sum());
        let depth = tel.gauge("optim.queue_depth");
        assert_eq!(depth.get(), 0, "queue drained");
        assert!(depth.peak() >= 1);
    }

    #[test]
    fn store_total_params() {
        let store = store_with(3, 10);
        assert_eq!(store.total_params(), 30);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }
}
