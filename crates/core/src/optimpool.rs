//! Concurrent CPU optimizer pool (§III-E1).
//!
//! STRONGHOLD creates multiple optimizers at initialization and dispatches
//! them as asynchronous actors so several layers' parameter updates run in
//! parallel on the multi-core CPU, concurrently with GPU backward
//! computation. The original system rides on Ray's gRPC actor layer; this
//! reproduction runs the actors on the crate's channel-fed worker primitive
//! (`crate::actor`) with identical semantics (documented substitution in
//! DESIGN.md).
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
//!
//! Gradients reach the actors in the pool's own buffers, a fixed set
//! allocated when the pool is built: one per actor, since an actor steps
//! one update at a time and a buffer beyond that would only hold a queued
//! gradient (a data-parallel rank, whose sink parks a whole bucket, holds
//! a bucket's worth). A [`GradBuffer`] goes home when it drops — its update
//! retired, or a panic unwound past it — and a draw from a pool with none
//! home waits for one instead of allocating. So the pool's host footprint
//! is a closed form of the config, `buffers × layer`, and the wait is the
//! pipeline's second back-pressure after the D2H gradient ring: the D2H
//! engine holds a ring accumulator while it waits, so BP waits behind it.

use std::ops::{Deref, DerefMut};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::actor::Actor;
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
pub(crate) const SPILL_CHUNK: usize = 1 << 18;

/// An optimizer actor's reusable page-in buffers for spilled updates: one
/// chunk each of params, m and v.
pub(crate) type Staging = [Vec<f32>; 3];

/// Per-layer parameter + optimizer-state storage, the "CPU RAM" side of the
/// offloading runtime. All access is through layer-granular locks.
///
/// Placement is per-layer ([`Tier`]): a slot either holds its FP32 masters
/// and Adam moments resident in RAM (the classic mode), or keeps them in a
/// file slot of the [`TierStore`] swap file (§III-G), read and updated in
/// place there. The API surface is identical either way, and — because
/// f32 ↔ le-bytes file round trips are bit-exact — so is the training math.
pub struct LayerStore {
    slots: Vec<SlotCell>,
    /// Per-layer parameter counts (valid for spilled layers too, whose
    /// RAM-side `params` vector is empty).
    lens: Vec<usize>,
    placement: Vec<Tier>,
    tier: Option<TierStore>,
    /// Built without Adam moments ([`LayerStore::without_moments`]): no
    /// layer ever takes an update.
    read_only: bool,
}

struct SlotCell {
    lock: Mutex<Slot>,
    cv: Condvar,
}

struct Slot {
    /// Resident layers: the authoritative masters. Spilled layers: empty.
    params: Vec<f32>,
    /// Resident layers: the authoritative moments. Spilled layers: `m`/`v`
    /// are empty (they live in the file slot) and only `t` is meaningful.
    adam: AdamState,
    pending_update: bool,
    /// Spilled layers only: index into the swap file.
    file_slot: usize,
    /// Spilled layers only: a reader is reading the layer's parameters
    /// off its file slot. An update waits for it to clear, and so does the
    /// next reader.
    reading: bool,
    /// Spilled layers only: the first swap-file I/O failure on this layer.
    /// Every later access re-raises it (see [`Slot::check_io`]).
    failure: Option<String>,
}

impl Slot {
    fn resident(params: Vec<f32>) -> Self {
        let n = params.len();
        Slot {
            params,
            adam: AdamState::new(n),
            pending_update: false,
            file_slot: usize::MAX,
            reading: false,
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
            slots: slots.into_iter().map(cell).collect(),
            placement: vec![Tier::Ram; lens.len()],
            lens,
            tier: None,
            read_only,
        })
    }

    /// Builds a store whose layers are placed per `plan`: `Tier::Ram` slots
    /// behave exactly as in [`LayerStore::new`]; `Tier::File` slots write
    /// their initial params + zero moments to a fresh swap file, where they
    /// are read and updated in place. The zeros are written, not left as
    /// the sized file's holes (which read back as zeros too): with holes,
    /// `train-spill`'s steady-state step ran ~5 % slower. Falls back to the
    /// plain resident store when the plan spills nothing.
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
        Ok(Arc::new(LayerStore {
            slots,
            lens,
            placement,
            tier: Some(TierStore::new(nvme, n, tel)),
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
        out.clear();
        self.with_params(layer, |masters| match masters {
            Masters::Ram(params) => out.extend_from_slice(params),
            Masters::File(file) => {
                out.resize(file.len(), 0.0);
                file.read(0, out);
            }
        })
    }

    /// Lends a layer's parameters to `f` without copying them — the read
    /// the H2D stream loads device shells from. Blocks while an update for
    /// the layer is pending. A resident layer is lent as its slice, under
    /// its slot lock; a spilled layer as its file range, which `f` reads
    /// straight into its own memory while the slot's `reading` flag holds
    /// the next update (and the next reader) off. No lock is held across
    /// the file I/O. The lend of a spilled layer is one `spill-read` span,
    /// counts its `4·S` bytes and accrues to the store's fill-wait clock.
    ///
    /// # Panics
    /// Panics on the calling thread if the layer's swap-file I/O failed,
    /// now or earlier, naming the layer, the file slot and the error.
    pub(crate) fn with_params<R>(&self, layer: usize, f: impl FnOnce(Masters<'_>) -> R) -> R {
        let cell = &self.slots[layer];
        let mut slot = lock(&cell.lock);
        if self.placement[layer] == Tier::Ram {
            while slot.pending_update {
                slot = wait(&cell.cv, slot);
            }
            return f(Masters::Ram(&slot.params));
        }
        let tier = self.tier.as_ref().expect("tiered store");
        loop {
            slot.check_io();
            if !slot.pending_update && !slot.reading {
                break;
            }
            slot = wait(&cell.cv, slot);
        }
        slot.reading = true;
        let file = SpillRange {
            tier,
            cell,
            layer,
            file_slot: slot.file_slot,
            len: self.lens[layer],
        };
        drop(slot);
        let t0 = std::time::Instant::now();
        let out = {
            let _s = tier.telemetry().span("spill-read", "fill");
            f(Masters::File(&file))
        };
        tier.count_read(t0.elapsed().as_nanos() as u64);
        out
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
    /// here — the unwind would leave `pending_update` set and strand the
    /// layer's readers — but is recorded and re-raised by the next access to
    /// the layer and by [`LayerStore::flush_spill`].
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
            // No reader may observe or race the rewrite: a read that began
            // before the layer was marked pending finishes first.
            slot.pending_update = true;
            while slot.reading {
                slot = wait(&cell.cv, slot);
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
            while slot.pending_update || slot.reading {
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

    /// Re-raises the first recorded swap-file I/O failure of any layer, so
    /// a failed read or update surfaces at the step boundary. Run after the
    /// optimizer-pool flush, which has landed every write-back: an update
    /// writes back inside `apply_update`.
    ///
    /// # Panics
    /// Panics with that failure.
    pub fn flush_spill(&self) {
        if self.tier.is_some() {
            for cell in &self.slots {
                lock(&cell.lock).check_io();
            }
        }
    }

    /// Cumulative nanoseconds readers spent reading spilled layers'
    /// parameters off the swap file.
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

/// A layer's FP32 masters as [`LayerStore::with_params`] lends them.
pub(crate) enum Masters<'a> {
    /// A resident layer's slice, lent under its slot lock.
    Ram(&'a [f32]),
    /// A spilled layer's range of its file slot.
    File(&'a SpillRange<'a>),
}

/// A spilled layer's parameters on the swap file, lent while its slot's
/// `reading` flag is set; the flag clears, and the slot's waiters wake,
/// when the lend ends, whether it returns or unwinds.
pub(crate) struct SpillRange<'a> {
    tier: &'a TierStore,
    cell: &'a SlotCell,
    layer: usize,
    file_slot: usize,
    len: usize,
}

impl SpillRange<'_> {
    /// Parameter count of the layer.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Reads the layer's parameters `off..off + out.len()` straight into
    /// `out`.
    ///
    /// # Panics
    /// Panics if the range passes the layer's end, and if the read fails:
    /// the failure is first recorded on the layer's slot, so every later
    /// access re-raises it.
    pub(crate) fn read(&self, off: usize, out: &mut [f32]) {
        assert!(off + out.len() <= self.len, "read past the layer's end");
        let read = self
            .tier
            .nvme()
            .read_at(self.file_slot, off, out, &mut Vec::new());
        if let Err(e) = read {
            let msg = io_failure(self.layer, self.file_slot, "fill", &e);
            lock(&self.cell.lock)
                .failure
                .get_or_insert_with(|| msg.clone());
            panic!("{msg}");
        }
    }
}

impl Drop for SpillRange<'_> {
    fn drop(&mut self) {
        lock(&self.cell.lock).reading = false;
        self.cell.cv.notify_all();
    }
}

/// An asynchronous parameter-update task. Carries its own hyper-params so a
/// per-step learning-rate schedule reaches the actors without reconfiguring
/// the pool.
struct UpdateTask {
    layer: usize,
    grads: GradBuffer,
    hp: AdamParams,
}

/// The pool's gradient buffers not on loan, and the condvar a draw waits on
/// while there are none.
type Bank = (Mutex<Vec<Vec<f32>>>, Condvar);

/// One of the optimizer pool's fixed gradient buffers, on loan from
/// [`OptimizerPool::recycled_buffer`]. Dropping it is the only way back:
/// it returns to the pool's free list when its update retires, and equally
/// when a sink drops it or a panic unwinds past it, so no path loses one
/// and the fixed pool never runs dry for good.
pub struct GradBuffer {
    buf: Vec<f32>,
    bank: Arc<Bank>,
}

impl Deref for GradBuffer {
    type Target = Vec<f32>;

    fn deref(&self) -> &Vec<f32> {
        &self.buf
    }
}

impl DerefMut for GradBuffer {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.buf
    }
}

impl Drop for GradBuffer {
    fn drop(&mut self) {
        let (free, retired) = &*self.bank;
        lock(free).push(std::mem::take(&mut self.buf));
        retired.notify_one();
    }
}

/// The concurrent optimizer pool: `workers` actor threads applying
/// update tasks against a shared [`LayerStore`], fed from a fixed set of
/// gradient buffers.
pub struct OptimizerPool {
    store: Arc<LayerStore>,
    updates: Arc<AtomicUsize>,
    queue_depth: Gauge,
    bank: Arc<Bank>,
    actors: Actor<UpdateTask>,
}

impl OptimizerPool {
    /// Spawns `workers` optimizer actors over `store` and allocates the
    /// pool's `buffers` gradient buffers, each as long as the store's
    /// largest layer and touched once, so the pool's whole footprint is
    /// resident from here on. One buffer per actor keeps every actor busy
    /// — a buffer beyond that would only hold a queued gradient — so
    /// `buffers` is `workers` unless a sink parks gradients before
    /// delivering them (a data-parallel bucket). Records per-update latency
    /// (`optim.update_ns`), cumulative worker busy time (`optim.busy_ns`),
    /// live queue depth (`optim.queue_depth`), the buffer count
    /// (`optim.grad_buffers`) and one `adam L{layer}` span per update on
    /// the `optim` track into `tel`.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `buffers < workers`.
    pub fn with_telemetry(
        store: Arc<LayerStore>,
        workers: usize,
        buffers: usize,
        tel: &Telemetry,
    ) -> Self {
        assert!(workers > 0 && buffers >= workers);
        let len = (0..store.len()).map(|l| store.param_len(l)).max();
        let len = len.unwrap_or(0);
        let free = (0..buffers)
            .map(|_| {
                // Written once, so every page is resident from the start.
                let mut buf = Vec::with_capacity(len);
                buf.resize(len, 0.0);
                buf.clear();
                buf
            })
            .collect();
        let bank = Arc::new((Mutex::new(free), Condvar::new()));
        tel.gauge("optim.grad_buffers").set(buffers as i64);
        let updates = Arc::new(AtomicUsize::new(0));
        let queue_depth = tel.gauge("optim.queue_depth");
        let names = (0..workers).map(|w| format!("optim-{w}"));
        let actors = Actor::start(names, None, || {
            let (store, updates, queue_depth) = (
                Arc::clone(&store),
                Arc::clone(&updates),
                queue_depth.clone(),
            );
            let update_ns = tel.histogram("optim.update_ns");
            let busy_ns = tel.counter("optim.busy_ns");
            let (tel, mut staging) = (tel.clone(), Staging::default());
            move |task: UpdateTask| {
                queue_depth.add(-1);
                let t0 = tel.now_nanos();
                let span = tel.span("optim", format_args!("adam L{}", task.layer));
                store.apply_update_with(task.layer, &task.grads, &task.hp, &mut staging);
                span.end();
                let dt = tel.now_nanos().saturating_sub(t0);
                update_ns.record(dt);
                busy_ns.add(dt);
                updates.fetch_add(1, Ordering::SeqCst);
            }
        });
        OptimizerPool {
            store,
            updates,
            queue_depth,
            bank,
            actors,
        }
    }

    /// Submits an asynchronous update for `layer` with the hyper-params of
    /// this one update (so a per-step [`crate::schedule::LrSchedule`]
    /// reaches the actors). The caller must have called
    /// [`LayerStore::mark_pending`] when the gradients left the GPU.
    ///
    /// The gradients are copied into one of the pool's buffers, so
    /// submission allocates nothing and the caller keeps its own buffer
    /// for reuse — the "D2H copy" of §III-E3 without a fresh staging
    /// vector per layer per step. A malformed gradient is rejected before a
    /// buffer is drawn.
    pub fn submit_with(&self, layer: usize, grads: &[f32], hp: AdamParams) {
        self.check_len(layer, grads.len());
        let mut buf = self.recycled_buffer();
        buf.extend_from_slice(grads);
        self.submit_owned(layer, buf, hp);
    }

    /// An empty gradient buffer from the pool's fixed set. When every
    /// buffer is on loan this waits until one comes back — an update
    /// retires, or a holder drops its buffer — and never allocates: a
    /// drained pool is back-pressure on the thread drawing, as the
    /// gradient ring is on BP. Fill the buffer and hand it back through
    /// [`OptimizerPool::submit_owned`] — the offload thread flattens layer
    /// gradients *directly* into one, so a streamed update pays no copy
    /// beyond the flatten itself.
    pub fn recycled_buffer(&self) -> GradBuffer {
        let (free, retired) = &*self.bank;
        let mut free = lock(free);
        let mut buf = loop {
            match free.pop() {
                Some(buf) => break buf,
                None => free = wait(retired, free),
            }
        };
        drop(free);
        buf.clear();
        GradBuffer {
            buf,
            bank: Arc::clone(&self.bank),
        }
    }

    /// Submits an update whose gradient buffer the caller already drew from
    /// [`OptimizerPool::recycled_buffer`]; the buffer travels to the worker
    /// without another copy and returns to the pool when the update retires.
    pub fn submit_owned(&self, layer: usize, grads: GradBuffer, hp: AdamParams) {
        self.check_len(layer, grads.len());
        self.queue_depth.add(1);
        self.actors.send(UpdateTask { layer, grads, hp });
    }

    /// A gradient fails fast on the submitting thread, not in an actor.
    fn check_len(&self, layer: usize, len: usize) {
        assert_eq!(
            len,
            self.store.param_len(layer),
            "gradient length mismatch for layer {layer}"
        );
    }

    /// Blocks until every submitted update has been applied.
    ///
    /// # Panics
    /// Re-raises, on the calling thread, the first panic that ended an
    /// update since the last flush.
    pub fn flush(&self) {
        if let Some(panic) = self.actors.flush() {
            resume_unwind(panic);
        }
    }

    /// Total updates applied since creation.
    pub fn updates_applied(&self) -> usize {
        self.updates.load(Ordering::SeqCst)
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

    /// Runs `body` on its own thread and fails if it has not returned
    /// within ten seconds: a draw that never wakes fails, not hangs.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the body returned");
    }

    #[test]
    fn recycler_reuses_and_takes_buffers_back() {
        let store = store_with(1, 8);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 1, 1, &Telemetry::disabled());
        // The buffer was allocated with the pool, one layer long.
        let mut buf = pool.recycled_buffer();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 8);
        let home = buf.as_ptr();
        buf.extend_from_slice(&[0.5; 8]);
        store.mark_pending(0);
        pool.submit_owned(0, buf, AdamParams::default());
        pool.flush();
        // The retired update handed it back: same allocation, cleared.
        let again = pool.recycled_buffer();
        assert_eq!(again.as_ptr(), home);
        assert!(again.is_empty());
        // A buffer dropped without an update goes back too.
        drop(again);
        assert_eq!(pool.recycled_buffer().as_ptr(), home);
    }

    /// With all `C` buffers lent to updates still running, the `C + 1`-th
    /// draw waits — it does not allocate — and returns as soon as one of
    /// those updates retires.
    #[test]
    fn a_dry_pool_blocks_the_next_draw_until_an_update_retires() {
        const C: usize = 2;
        let store = store_with(C, 8);
        let pool = Arc::new(OptimizerPool::with_telemetry(
            Arc::clone(&store),
            C,
            C,
            &Telemetry::disabled(),
        ));
        // Each update waits on its slot's lock, held here.
        let mut held = Vec::new();
        for l in 0..C {
            store.mark_pending(l);
            held.push(lock(&store.slots[l].lock));
            pool.submit_with(l, &[0.5; 8], AdamParams::default());
        }
        let (drawn, draws) = std::sync::mpsc::channel();
        let drawer = Arc::clone(&pool);
        std::thread::spawn(move || {
            let buf = drawer.recycled_buffer();
            let _ = drawn.send(buf.capacity());
        });
        let wait = std::time::Duration::from_millis(100);
        assert!(
            draws.recv_timeout(wait).is_err(),
            "a dry pool lent a buffer"
        );
        drop(held.pop());
        let capacity = draws
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a retired update frees the draw");
        assert!(capacity >= 8, "the retired buffer, not a new one");
        drop(held);
        within_watchdog(move || pool.flush());
    }

    /// A buffer comes home from every exit: an update that unwinds on its
    /// actor, and a malformed gradient refused before any buffer is drawn.
    /// With one buffer in all, a lost one hangs the next draw.
    #[test]
    fn no_exit_loses_a_buffer() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        within_watchdog(|| {
            // No Adam moments: every update panics on its actor.
            let store = LayerStore::without_moments(vec![vec![0.25; 8]; 2], 8);
            let pool = OptimizerPool::with_telemetry(store, 1, 1, &Telemetry::disabled());
            for l in 0..2 {
                pool.submit_with(l, &[0.5; 8], AdamParams::default());
                let failed = catch_unwind(AssertUnwindSafe(|| pool.flush()));
                assert!(failed.is_err(), "the update's panic reaches flush");
            }
            let held = pool.recycled_buffer();
            let refused = catch_unwind(AssertUnwindSafe(|| {
                pool.submit_with(0, &[0.5; 5], AdamParams::default())
            }));
            assert!(refused.is_err(), "a short gradient is refused");
            drop(held);
            drop(pool.recycled_buffer());
        });
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

    /// A spilled layer's direct read and its update exclude each other
    /// without a lock held across the file I/O: an update waits for a read
    /// in flight on the layer, and a read waits for a pending update. Each
    /// read sees the params a resident store holds at the same point, bit
    /// for bit, and after both updates the params and moments match too.
    #[test]
    fn a_spilled_read_and_its_update_exclude_each_other() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        within_watchdog(|| {
            let hp = AdamParams::default();
            let init = layer_init(0, 40);
            let grads = [vec![0.5; 40], vec![-0.25; 40]];
            let resident = LayerStore::new(vec![init.clone()]);
            let spilled = fully_spilled(vec![init]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let blocked = Duration::from_millis(100);

            // An update waits for a read in flight.
            let (reading, read_started) = channel();
            let (release, released) = channel::<()>();
            let reader = {
                let spilled = Arc::clone(&spilled);
                std::thread::spawn(move || {
                    spilled.with_params(0, |masters| {
                        let Masters::File(file) = masters else {
                            panic!("a spilled layer is lent as its file range");
                        };
                        reading.send(()).unwrap();
                        released.recv().unwrap();
                        let mut out = vec![0.0; file.len()];
                        file.read(0, &mut out);
                        out
                    })
                })
            };
            read_started.recv().unwrap();
            let updater = {
                let (spilled, grads) = (Arc::clone(&spilled), grads[0].clone());
                std::thread::spawn(move || spilled.apply_update(0, &grads, &hp))
            };
            std::thread::sleep(blocked);
            assert!(!updater.is_finished(), "an update ran under a read");
            release.send(()).unwrap();
            let seen = reader.join().unwrap();
            assert_eq!(
                bits(&seen),
                bits(&resident.snapshot(0)),
                "the read saw the update"
            );
            updater.join().unwrap();
            resident.apply_update(0, &grads[0], &hp);
            assert_eq!(bits(&spilled.read_params(0)), bits(&resident.snapshot(0)));

            // A read waits for a pending update.
            spilled.mark_pending(0);
            let reader = {
                let spilled = Arc::clone(&spilled);
                std::thread::spawn(move || spilled.read_params(0))
            };
            std::thread::sleep(blocked);
            assert!(!reader.is_finished(), "a read ran under a pending update");
            spilled.apply_update(0, &grads[1], &hp);
            resident.apply_update(0, &grads[1], &hp);
            let seen = reader.join().unwrap();
            assert_eq!(
                bits(&seen),
                bits(&resident.snapshot(0)),
                "the read missed the update"
            );
            let (got, want) = (spilled.adam_snapshot(0), resident.adam_snapshot(0));
            assert_eq!(
                (bits(&got.m), bits(&got.v), got.t),
                (bits(&want.m), bits(&want.v), want.t)
            );
        });
    }

    fn fully_spilled(layer_params: Vec<Vec<f32>>) -> Arc<LayerStore> {
        let (layers, n) = (layer_params.len(), layer_params[0].len());
        let plan = TierPlan::plan(layers, n, 1, Some(0));
        let store = LayerStore::tiered(layer_params, &plan, &Telemetry::disabled()).unwrap();
        assert_eq!(store.spilled_layers(), layers);
        store
    }

    /// A fresh spilled layer's moments are written zeros, not the swap
    /// file's holes (see [`LayerStore::tiered`]), and read back as zeros.
    #[test]
    fn a_fresh_spilled_layer_has_written_zero_moments() {
        let n = SPILL_CHUNK + 37;
        let store = fully_spilled(vec![layer_init(0, n), layer_init(1, n)]);
        let nvme = store.tier.as_ref().expect("tiered store").nvme();
        assert_eq!(nvme.bytes_written(), 2 * 3 * 4 * n as u64);
        for l in 0..2 {
            let fresh = store.adam_snapshot(l);
            assert_eq!((fresh.m.len(), fresh.v.len(), fresh.t), (n, n, 0));
            assert!(
                fresh.m.iter().chain(&fresh.v).all(|x| x.to_bits() == 0),
                "layer {l}: moments not all +0.0"
            );
        }
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
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 1, 1, &Telemetry::disabled());
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
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 4, 4, &Telemetry::disabled());
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
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), 2, 2, &Telemetry::disabled());
        store.mark_pending(0);
        pool.submit_with(0, &[1.0; 5], AdamParams::default()); // wrong length: panics here, not in a worker
    }

    /// Three steps of 4 layers: one latency sample per update, and the
    /// pool's gradient buffers are the ones it was built with, one per
    /// actor, before the first update and after the last.
    #[test]
    fn telemetry_counts_updates_and_latency() {
        let tel = Telemetry::enabled();
        let (layers, workers) = (4, 2);
        let store = store_with(layers, 32);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), workers, workers, &tel);
        let buffers = tel.gauge("optim.grad_buffers");
        assert_eq!(buffers.get(), workers as i64, "allocated when built");
        for _ in 0..3 {
            for l in 0..layers {
                store.mark_pending(l);
                pool.submit_with(l, &[0.5; 32], AdamParams::default());
            }
            pool.flush();
        }
        let h = tel.histogram("optim.update_ns");
        assert_eq!(
            h.count(),
            3 * layers as u64,
            "one latency sample per update"
        );
        assert_eq!(tel.counter("optim.busy_ns").get(), h.sum());
        let depth = tel.gauge("optim.queue_depth");
        assert_eq!(depth.get(), 0, "queue drained");
        assert!(depth.peak() >= 1);
        assert_eq!(buffers.get(), workers as i64, "never another buffer");
        assert_eq!(buffers.peak(), workers as i64, "never another buffer");
    }

    #[test]
    fn store_total_params() {
        let store = store_with(3, 10);
        assert_eq!(store.total_params(), 30);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }
}
