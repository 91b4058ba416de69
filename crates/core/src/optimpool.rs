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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::adam::{AdamParams, AdamState};
use crate::nvme::NvmeStore;
use crate::telemetry::{Gauge, Telemetry};
use crate::tier::{Tier, TierPlan, TierStore};

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
    /// Spilled layers only: the update write-back is queued or running
    /// (`pending_update` stays set until it lands).
    pub(crate) spill_inflight: bool,
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
            spill_inflight: false,
        }
    }
}

impl LayerStore {
    /// Builds an all-resident store from per-layer flat parameter vectors.
    pub fn new(layer_params: Vec<Vec<f32>>) -> Arc<Self> {
        Self::all_resident(layer_params.into_iter().map(Slot::resident).collect())
    }

    /// An all-resident store holding parameters only — no Adam moments. The
    /// read-only store of the serving engine; [`LayerStore::apply_update`]
    /// on it fails the optimizer's length check.
    pub(crate) fn without_moments(layer_params: Vec<Vec<f32>>) -> Arc<Self> {
        let bare = |params| Slot {
            params,
            ..Slot::resident(Vec::new())
        };
        Self::all_resident(layer_params.into_iter().map(bare).collect())
    }

    fn all_resident(slots: Vec<Slot>) -> Arc<Self> {
        let lens: Vec<usize> = slots.iter().map(|s| s.params.len()).collect();
        let cell = |slot| SlotCell {
            lock: Mutex::new(slot),
            cv: Condvar::new(),
        };
        Arc::new(LayerStore {
            slots: Arc::new(slots.into_iter().map(cell).collect()),
            placement: vec![Tier::Ram; lens.len()],
            lens,
            tier: None,
        })
    }

    /// Builds a store whose layers are placed per `plan`: `Tier::Ram` slots
    /// behave exactly as in [`LayerStore::new`]; `Tier::File` slots write
    /// their initial params + zero moments to a fresh swap file and page
    /// through `spill_workers` async I/O threads. Falls back to the plain
    /// resident store when the plan spills nothing.
    ///
    /// # Panics
    /// Panics if spilled layers have non-uniform parameter counts (the swap
    /// file uses fixed-size slots).
    pub fn tiered(
        layer_params: Vec<Vec<f32>>,
        plan: &TierPlan,
        spill_workers: usize,
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
                Slot {
                    params: Vec::new(),
                    adam: AdamState {
                        m: Vec::new(),
                        v: Vec::new(),
                        t: 0,
                    },
                    pending_update: false,
                    file_slot: fs,
                    filled: false,
                    fill_inflight: false,
                    spill_inflight: false,
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
        let tier = TierStore::new(nvme, Arc::clone(&slots), n, spill_workers, tel);
        Ok(Arc::new(LayerStore {
            slots,
            lens,
            placement,
            tier: Some(tier),
        }))
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
    /// spent blocked on a fill accrues to the store's fill-wait clock — the
    /// autotuner's spill stall signal.
    pub(crate) fn with_params<R>(&self, layer: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            let mut slot = cell.lock.lock();
            while slot.pending_update {
                cell.cv.wait(&mut slot);
            }
            return f(&slot.params);
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let t0 = std::time::Instant::now();
        let mut slot = cell.lock.lock();
        let buf = loop {
            if slot.pending_update || slot.spill_inflight {
                cell.cv.wait(&mut slot);
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
                slot = cell.lock.lock();
                continue;
            }
            cell.cv.wait(&mut slot);
        };
        drop(slot);
        tier.add_fill_wait(t0.elapsed().as_nanos() as u64);
        let out = f(&buf);
        tier.give_buffer(buf);
        out
    }

    /// Issues an asynchronous fill of a spilled layer ahead of its read —
    /// the schedule-driven prefetch of the file tier. No-op for resident
    /// layers, layers already filled/filling, or layers whose update is
    /// still in flight (the file image is stale until the write-back lands;
    /// the eventual read falls back to a demand fill).
    pub fn prefill(&self, layer: usize) {
        let Some(tier) = &self.tier else { return };
        if self.placement[layer] != Tier::File {
            return;
        }
        let cell = &self.slots[layer];
        let fs = {
            let mut slot = cell.lock.lock();
            if slot.pending_update || slot.spill_inflight || slot.filled || slot.fill_inflight {
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
        self.slots[layer].lock.lock().pending_update = true;
    }

    /// Applies an Adam update for a layer and releases waiters.
    ///
    /// Resident layers step in place. Spilled layers page params + moments
    /// in from the file slot (12·S bytes), step, then hand the written-back
    /// state to the spill workers — `pending_update` stays set until the
    /// write lands, so readers and checkpoints never observe a stale file
    /// image.
    pub fn apply_update(&self, layer: usize, grads: &[f32], hp: &AdamParams) {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            let mut slot = cell.lock.lock();
            let Slot { params, adam, .. } = &mut *slot;
            adam.step(params, grads, hp);
            slot.pending_update = false;
            cell.cv.notify_all();
            return;
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let (fs, t) = {
            let mut slot = cell.lock.lock();
            // Defensive: no fill may observe or race the rewrite. Prefill
            // skips pending layers, so in the steady pipeline both branches
            // are dead — but the protocol stays safe under any caller.
            while slot.fill_inflight {
                cell.cv.wait(&mut slot);
            }
            if slot.filled {
                let buf = std::mem::take(&mut slot.params);
                slot.filled = false;
                tier.give_buffer(buf);
            }
            (slot.file_slot, slot.adam.t)
        };
        let mut params = tier.buffer();
        let mut m = tier.buffer();
        let mut v = tier.buffer();
        let mut scratch = tier.byte_scratch();
        {
            let _s = tier.telemetry().span("spill-read", "update-page-in");
            tier.nvme()
                .read_at(fs, 0, &mut params, &mut scratch)
                .expect("spill update read params");
            tier.nvme()
                .read_at(fs, n, &mut m, &mut scratch)
                .expect("spill update read m");
            tier.nvme()
                .read_at(fs, 2 * n, &mut v, &mut scratch)
                .expect("spill update read v");
        }
        tier.count_f2h(12 * n as u64);
        tier.give_byte_scratch(scratch);
        let mut adam = AdamState { m, v, t };
        adam.step(&mut params, grads, hp);
        {
            let mut slot = cell.lock.lock();
            slot.adam.t = adam.t;
            slot.spill_inflight = true;
        }
        tier.enqueue_spill(layer, fs, params, adam.m, adam.v);
    }

    /// Snapshot of a layer's parameters. Resident layers impose no ordering
    /// guarantees (tests); spilled layers wait out any in-flight update so
    /// the file image read back is current.
    pub fn snapshot(&self, layer: usize) -> Vec<f32> {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            return cell.lock.lock().params.clone();
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
    /// flush the optimizer pool (and, for tiered stores, the spill engine —
    /// [`LayerStore::flush_spill`]) first; for resident layers this does not
    /// wait for pending updates, for spilled layers it waits out an
    /// in-flight write-back before reading the file image.
    pub fn adam_snapshot(&self, layer: usize) -> AdamState {
        let cell = &self.slots[layer];
        if self.placement[layer] == Tier::Ram {
            return cell.lock.lock().adam.clone();
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let (fs, t) = {
            let mut slot = cell.lock.lock();
            while slot.pending_update || slot.spill_inflight {
                cell.cv.wait(&mut slot);
            }
            (slot.file_slot, slot.adam.t)
        };
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut scratch = tier.byte_scratch();
        tier.nvme()
            .read_at(fs, n, &mut m, &mut scratch)
            .expect("adam snapshot read m");
        tier.nvme()
            .read_at(fs, 2 * n, &mut v, &mut scratch)
            .expect("adam snapshot read v");
        tier.give_byte_scratch(scratch);
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
            cell.lock.lock().adam = state;
            return;
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let fs = {
            let mut slot = cell.lock.lock();
            while slot.pending_update || slot.spill_inflight || slot.fill_inflight {
                cell.cv.wait(&mut slot);
            }
            slot.adam.t = state.t;
            slot.file_slot
        };
        let mut scratch = tier.byte_scratch();
        tier.nvme()
            .write_at(fs, n, &state.m, &mut scratch)
            .expect("set_adam write m");
        tier.nvme()
            .write_at(fs, 2 * n, &state.v, &mut scratch)
            .expect("set_adam write v");
        tier.give_byte_scratch(scratch);
    }

    /// Per-layer placement under the active [`TierPlan`] (all `Ram` for
    /// plain stores).
    pub fn placement(&self) -> &[Tier] {
        &self.placement
    }

    /// How many layers page through the file tier.
    pub fn spilled_layers(&self) -> usize {
        self.placement.iter().filter(|t| **t == Tier::File).count()
    }

    /// The spill engine, when this store is tiered.
    pub fn tier_store(&self) -> Option<&TierStore> {
        self.tier.as_ref()
    }

    /// Blocks until every enqueued fill/spill has completed. Callers
    /// checkpointing a tiered store run this *after* the optimizer-pool
    /// flush (updates enqueue their write-backs inside `apply_update`, so
    /// pool-then-tier ordering drains everything).
    pub fn flush_spill(&self) {
        if let Some(tier) = &self.tier {
            tier.quiesce();
        }
    }

    /// Cumulative nanoseconds readers spent blocked on file-tier fills.
    pub fn fill_wait_nanos(&self) -> u64 {
        self.tier.as_ref().map_or(0, TierStore::fill_wait_nanos)
    }

    /// Current spill-worker count (0 for plain stores).
    pub fn spill_workers(&self) -> usize {
        self.tier.as_ref().map_or(0, TierStore::workers)
    }

    /// Live-resizes the spill-worker pool; no-op for plain stores.
    pub fn set_spill_workers(&self, workers: usize) {
        if let Some(tier) = &self.tier {
            tier.set_workers(workers);
        }
    }
}

/// An asynchronous parameter-update task. Carries its own hyper-params so a
/// per-step learning-rate schedule reaches the actors without reconfiguring
/// the pool.
struct UpdateTask {
    layer: usize,
    grads: Vec<f32>,
    hp: AdamParams,
}

/// What travels over the pool channel: a real update, or a retire sentinel
/// consumed by exactly one worker when the pool is shrunk live.
enum Task {
    Update(UpdateTask),
    Retire,
}

/// Cap on the gradient-buffer free list. In steady state at most
/// `layers` buffers are in flight at once, and each retains the capacity
/// of the largest layer it ever carried.
const MAX_RECYCLED: usize = 64;

/// The concurrent optimizer pool: `workers` actor threads applying
/// update tasks against a shared [`LayerStore`].
pub struct OptimizerPool {
    store: Arc<LayerStore>,
    hp: AdamParams,
    tx: Option<Sender<Task>>,
    rx: Receiver<Task>,
    tel: Telemetry,
    inflight: Arc<(Mutex<usize>, Condvar)>,
    updates: Arc<AtomicUsize>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    spawned: usize,
    queue_depth: Gauge,
    recycle: Arc<Mutex<Vec<Vec<f32>>>>,
    reuses: AtomicUsize,
}

impl OptimizerPool {
    /// Spawns `workers` optimizer actors over `store` with hyper-params `hp`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(store: Arc<LayerStore>, hp: AdamParams, workers: usize) -> Self {
        OptimizerPool::with_telemetry(store, hp, workers, &Telemetry::disabled())
    }

    /// [`OptimizerPool::new`] recording per-update latency
    /// (`optim.update_ns`), cumulative worker busy time (`optim.busy_ns`)
    /// and live queue depth (`optim.queue_depth`) into `tel`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_telemetry(
        store: Arc<LayerStore>,
        hp: AdamParams,
        workers: usize,
        tel: &Telemetry,
    ) -> Self {
        assert!(workers > 0);
        let (tx, rx) = unbounded::<Task>();
        let mut pool = OptimizerPool {
            store,
            hp,
            tx: Some(tx),
            rx,
            tel: tel.clone(),
            inflight: Arc::new((Mutex::new(0usize), Condvar::new())),
            updates: Arc::new(AtomicUsize::new(0)),
            handles: Vec::with_capacity(workers),
            workers: 0,
            spawned: 0,
            queue_depth: tel.gauge("optim.queue_depth"),
            recycle: Arc::new(Mutex::new(Vec::new())),
            reuses: AtomicUsize::new(0),
        };
        for _ in 0..workers {
            pool.spawn_worker();
        }
        pool
    }

    /// Spawns one more actor thread on the shared task channel.
    fn spawn_worker(&mut self) {
        let w = self.spawned;
        self.spawned += 1;
        self.workers += 1;
        let rx = self.rx.clone();
        let store = Arc::clone(&self.store);
        let inflight = Arc::clone(&self.inflight);
        let updates = Arc::clone(&self.updates);
        let tel = self.tel.clone();
        let queue_depth = self.queue_depth.clone();
        let recycle = Arc::clone(&self.recycle);
        self.handles.push(
            std::thread::Builder::new()
                .name(format!("optim-{w}"))
                .spawn(move || {
                    let update_ns = tel.histogram("optim.update_ns");
                    let busy_ns = tel.counter("optim.busy_ns");
                    while let Ok(task) = rx.recv() {
                        let task = match task {
                            Task::Update(t) => t,
                            Task::Retire => break,
                        };
                        queue_depth.add(-1);
                        let t0 = tel.now_nanos();
                        store.apply_update(task.layer, &task.grads, &task.hp);
                        let dt = tel.now_nanos().saturating_sub(t0);
                        update_ns.record(dt);
                        busy_ns.add(dt);
                        updates.fetch_add(1, Ordering::SeqCst);
                        {
                            let mut free = recycle.lock();
                            if free.len() < MAX_RECYCLED {
                                free.push(task.grads);
                            }
                        }
                        let (lock, cv) = &*inflight;
                        let mut n = lock.lock();
                        *n -= 1;
                        if *n == 0 {
                            cv.notify_all();
                        }
                    }
                })
                .expect("spawn optimizer worker"),
        );
    }

    /// Live-resizes the pool to `workers` actors (clamped to at least 1).
    /// Growth spawns new threads on the shared channel immediately; shrink
    /// enqueues retire sentinels, each consumed by exactly one worker after
    /// it drains whatever updates precede the sentinel in FIFO order — so a
    /// resize never reorders or drops updates. Intended to run between
    /// steps; worker count never affects update results (each task touches
    /// one layer under its own lock), so a live resize is bit-invisible.
    pub fn set_workers(&mut self, workers: usize) {
        let target = workers.max(1);
        while self.workers < target {
            self.spawn_worker();
        }
        while self.workers > target {
            self.tx
                .as_ref()
                .expect("pool alive")
                .send(Task::Retire)
                .expect("optimizer pool channel closed");
            self.workers -= 1;
        }
    }

    /// Current actor-thread count (retiring workers are counted out as soon
    /// as their sentinel is enqueued).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Updates submitted but not yet applied — the pool's live backlog, as
    /// sampled by the autotuner at step boundaries.
    pub fn pending(&self) -> usize {
        *self.inflight.0.lock()
    }

    /// Submits an asynchronous update for `layer`. The caller must have
    /// called [`LayerStore::mark_pending`] when the gradients left the GPU.
    ///
    /// The gradients are copied into a buffer drawn from the pool's free
    /// list (refilled by workers as updates retire), so steady-state
    /// submission allocates nothing and the caller keeps its own buffer
    /// for reuse — the "D2H copy" of §III-E3 without a fresh staging
    /// vector per layer per step.
    pub fn submit(&self, layer: usize, grads: &[f32]) {
        self.submit_with(layer, grads, self.hp);
    }

    /// [`OptimizerPool::submit`] with explicit hyper-params for this one
    /// update — the hook through which the training engine drives a
    /// per-step [`crate::schedule::LrSchedule`] into the async actors.
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
        match self.recycle.lock().pop() {
            Some(mut buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns an unused buffer to the free list without submitting an
    /// update — for callers (e.g. a gradient sink) that drew more recycled
    /// buffers than they ended up dispatching.
    pub fn give_back(&self, mut buf: Vec<f32>) {
        buf.clear();
        let mut free = self.recycle.lock();
        if free.len() < MAX_RECYCLED {
            free.push(buf);
        }
    }

    /// How many [`OptimizerPool::recycled_buffer`] calls were satisfied from
    /// the free list instead of allocating — the zero-allocation suite
    /// asserts this climbs once the pipeline reaches steady state.
    pub fn buffer_reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
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
            let (lock, _) = &*self.inflight;
            *lock.lock() += 1;
        }
        self.queue_depth.add(1);
        self.tx
            .as_ref()
            .expect("pool alive")
            .send(Task::Update(UpdateTask { layer, grads, hp }))
            .expect("optimizer pool channel closed");
    }

    /// Blocks until every submitted update has been applied.
    pub fn flush(&self) {
        let (lock, cv) = &*self.inflight;
        let mut n = lock.lock();
        while *n > 0 {
            cv.wait(&mut n);
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

    fn store_with(layers: usize, n: usize) -> Arc<LayerStore> {
        LayerStore::new(
            (0..layers)
                .map(|l| (0..n).map(|i| (l * n + i) as f32 * 0.01).collect())
                .collect(),
        )
    }

    #[test]
    fn recycler_reuses_and_takes_buffers_back() {
        let store = store_with(1, 8);
        let pool = OptimizerPool::new(Arc::clone(&store), AdamParams::default(), 1);
        assert_eq!(pool.buffer_reuses(), 0);
        // Nothing retired yet: first draw allocates fresh.
        let buf = pool.recycled_buffer();
        assert_eq!(pool.buffer_reuses(), 0);
        // Returned buffers are drawn again (capacity preserved, contents
        // cleared) and counted as reuses.
        pool.give_back({
            let mut b = buf;
            b.extend_from_slice(&[1.0; 8]);
            b
        });
        let again = pool.recycled_buffer();
        assert!(again.is_empty());
        assert_eq!(pool.buffer_reuses(), 1);
        // Buffers retired by workers also land on the free list.
        store.mark_pending(0);
        pool.submit(0, &[0.5; 8]);
        pool.flush();
        let _ = pool.recycled_buffer();
        assert_eq!(pool.buffer_reuses(), 2);
    }

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
            let store = store_with(6, 32);
            let pool = OptimizerPool::new(Arc::clone(&store), hp, workers);
            for (l, g) in grads.iter().enumerate() {
                store.mark_pending(l);
                pool.submit(l, g);
            }
            pool.flush();
            for l in 0..6 {
                assert_eq!(
                    store.snapshot(l),
                    seq.snapshot(l),
                    "layer {l}, workers {workers}"
                );
            }
            assert_eq!(pool.updates_applied(), 6);
        }
    }

    #[test]
    fn read_params_waits_for_pending_update() {
        use crate::tier::SpillPolicy;
        let hp = AdamParams::default();
        // The resident store and the fully spilled one (whose write-back
        // must land before the read is released) honour the same contract.
        let spilled = LayerStore::tiered(
            vec![(0..8).map(|i| i as f32 * 0.01).collect()],
            &TierPlan::plan(1, 8, 1, None, SpillPolicy::All),
            1,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(spilled.spilled_layers(), 1);
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

    #[test]
    fn many_updates_across_layers_complete() {
        let store = store_with(16, 64);
        let pool = OptimizerPool::new(Arc::clone(&store), AdamParams::default(), 4);
        for iter in 0..10 {
            for l in 0..16 {
                store.mark_pending(l);
                pool.submit(l, &vec![0.01 * (iter + 1) as f32; 64]);
            }
            pool.flush();
        }
        assert_eq!(pool.updates_applied(), 160);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn malformed_gradient_rejected_at_submit() {
        let store = store_with(2, 8);
        let pool = OptimizerPool::new(Arc::clone(&store), AdamParams::default(), 2);
        store.mark_pending(0);
        pool.submit(0, &[1.0; 5]); // wrong length: panics here, not in a worker
    }

    #[test]
    fn telemetry_counts_updates_and_latency() {
        let tel = Telemetry::enabled();
        let store = store_with(4, 32);
        let pool =
            OptimizerPool::with_telemetry(Arc::clone(&store), AdamParams::default(), 2, &tel);
        for l in 0..4 {
            store.mark_pending(l);
            pool.submit(l, &[0.5; 32]);
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
    fn live_worker_resize_preserves_results() {
        let hp = AdamParams::default();
        let grads: Vec<Vec<f32>> = (0..8)
            .map(|l| (0..16).map(|i| ((l * 3 + i) as f32).sin()).collect())
            .collect();

        let seq = store_with(8, 16);
        for _ in 0..3 {
            for (l, g) in grads.iter().enumerate() {
                seq.apply_update(l, g, &hp);
            }
        }

        let store = store_with(8, 16);
        let mut pool = OptimizerPool::new(Arc::clone(&store), hp, 1);
        for round in 0..3 {
            for (l, g) in grads.iter().enumerate() {
                store.mark_pending(l);
                pool.submit(l, g);
            }
            pool.flush();
            // Resize between rounds: grow, then shrink back below start.
            pool.set_workers([4, 2, 1][round]);
            assert_eq!(pool.workers(), [4, 2, 1][round]);
        }
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.updates_applied(), 24);
        for l in 0..8 {
            assert_eq!(store.snapshot(l), seq.snapshot(l), "layer {l}");
        }
        // Shrink to zero clamps to one worker and the pool still works.
        pool.set_workers(0);
        assert_eq!(pool.workers(), 1);
        store.mark_pending(0);
        pool.submit(0, &grads[0]);
        pool.flush();
        assert_eq!(pool.updates_applied(), 25);
    }

    #[test]
    fn store_total_params() {
        let store = store_with(3, 10);
        assert_eq!(store.total_params(), 30);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }
}
