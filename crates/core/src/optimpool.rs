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
//! device/transfer precision. Under a half mode each gradient value is
//! rounded through the transfer format on its way to the update
//! ("convert-on-ingest"), so the fused AdamW step below runs unchanged at
//! the memory-bandwidth floor and checkpoints serialize bit-exact FP32
//! masters.
//!
//! An update is stepped in `SPILL_CHUNK`s, one routine for every layer
//! (`LayerStore::step_chunk`), and the chunks of one update are dealt to
//! every actor, so a layer's update — the step boundary's layer 0 above
//! all — runs on all of them at once. A resident layer keeps its masters
//! and moments as one lock per chunk, so two actors step disjoint chunks
//! side by side. A spilled layer (§III-G) is stepped in place on the file:
//! the actor pages the chunk's params, m and v in through a small staging
//! triple it owns, steps it and writes it back, as ZeRO-Infinity steps
//! NVMe-resident optimizer state sub-group by sub-group. An update holds
//! `3 × SPILL_CHUNK` floats per actor, never a whole layer's state. The
//! layer's `pending_update` clears, and its Adam `t` commits, only when the
//! last chunk retires: readers and checkpoints never see a stale image.
//!
//! A gradient reaches the actors as a [`GradBuffer`]. A sink that delivers
//! each gradient as soon as it lands lends the D2H engine's ring
//! accumulator itself: each chunk's gradient is round-copied out of it, a
//! cache-sized piece at a time, into the actor's own staging right before
//! Adam reads it, so no layer-sized host copy of a gradient exists, and
//! the accumulator goes home to BP when the update's last chunk retires.
//! A sink that parks gradients (a data-parallel bucket) and the clipped
//! deferred dispatch hold a host copy instead, in one of the pool's
//! layer-sized buffers, read by the same chunk routine. Those buffers are
//! allocated on a path's first draw, at most `buffers` of them, and a draw
//! from a pool with none home and none left to allocate waits instead of
//! allocating, so the pool's host footprint stays a closed form of the
//! config.

use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use crossbeam_channel::Sender;
use stronghold_model::block::{Block, BlockGrads};
use stronghold_tensor::pool;
use stronghold_tensor::simd::round_copy;
use stronghold_tensor::Precision;

use crate::actor::Actor;
use crate::adam::{self, AdamParams, AdamState};
use crate::clip::NormLanes;
use crate::nvme::NvmeStore;
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry};
use crate::tier::{io_failure, Tier, TierStore};
use crate::{lock, wait};

/// Floats per chunk of an update: the unit the actors share out, the lock
/// granule of a resident layer, and what a spilled update pages through
/// its actor's staging triple at once (1 MiB per component). A
/// power-of-two multiple of the widest vector tier's 16 lanes, so every
/// chunk starts where the whole-layer kernel runs a full vector: the
/// vectorized body and the scalar tail cover the same elements, and the
/// chunked step is bit-identical to a whole-layer one.
pub(crate) const SPILL_CHUNK: usize = 1 << 18;

/// Floats of a chunk's gradient an actor round-copies out of a ring
/// accumulator at once (64 KiB): small enough to stay in the core's L2
/// cache until Adam reads it back, and a multiple of 16, so each piece
/// starts on a full vector too.
const GRAD_PIECE: usize = 1 << 14;

/// An optimizer actor's reusable buffers: one chunk each of a spilled
/// layer's params, m and v, and one piece of a lent gradient.
#[derive(Default)]
struct Staging {
    page: [Vec<f32>; 3],
    grad: Vec<f32>,
}

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
    /// Per-layer parameter counts (valid for spilled layers too, which hold
    /// nothing in RAM).
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
    /// Resident layers: the authoritative masters and moments, one lock
    /// per [`SPILL_CHUNK`]. Read under the slot lock while no update is
    /// pending; stepped chunk by chunk while one is. Spilled layers: empty.
    ram: Vec<Mutex<RamChunk>>,
    /// Spilled layers only: index into the swap file.
    file_slot: usize,
}

/// One chunk of a resident layer: its masters and Adam moments.
#[derive(Default)]
struct RamChunk {
    params: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

struct Slot {
    /// Adam steps committed.
    t: u64,
    pending_update: bool,
    /// Spilled layers only: a reader is reading the layer's parameters
    /// off its file slot. An update waits for it to clear, and so does the
    /// next reader.
    reading: bool,
    /// Spilled layers only: the first swap-file I/O failure on this layer.
    /// Every later access re-raises it (see [`Slot::check_io`]).
    failure: Option<String>,
}

impl Slot {
    /// Re-raises a recorded spill I/O failure as a panic on the calling
    /// thread. The worker or actor that hit it recorded it and woke every
    /// waiter instead of dying, so nothing is left blocked.
    fn check_io(&self) {
        if let Some(msg) = &self.failure {
            panic!("{msg}");
        }
    }
}

impl SlotCell {
    fn new(ram: Vec<Mutex<RamChunk>>, file_slot: usize) -> Self {
        SlotCell {
            lock: Mutex::new(Slot {
                t: 0,
                pending_update: false,
                reading: false,
                failure: None,
            }),
            cv: Condvar::new(),
            ram,
            file_slot,
        }
    }

    /// A resident layer: `image` copied once into its chunks. A layer of
    /// more than one chunk fills its chunks on the kernel pool, one task
    /// per chunk, each allocating and writing only its own memory; one
    /// chunk, the whole of every small model's layer, is filled inline and
    /// starts no pool helper. The Adam moments come later
    /// ([`SlotCell::zero_moments`]).
    fn resident(image: &impl LayerImage) -> Self {
        let n = image.len();
        let ram: Vec<Mutex<RamChunk>> = (0..n.div_ceil(SPILL_CHUNK).max(1))
            .map(|_| Mutex::default())
            .collect();
        pool::for_each(0..ram.len(), |c| {
            let (lo, hi) = (c * SPILL_CHUNK, ((c + 1) * SPILL_CHUNK).min(n));
            let params = &mut lock(&ram[c]).params;
            params.reserve_exact(hi - lo);
            image.append_range(lo, hi - lo, params);
        });
        SlotCell::new(ram, usize::MAX)
    }

    /// Gives a resident layer its Adam moments, written as zeros chunk by
    /// chunk on the kernel pool like [`SlotCell::resident`]'s params, so
    /// their pages are faulted in here and not by the layer's first update:
    /// left to that update, `train-stream`'s 200 MB of moments were faulted
    /// in by the optimizer actors beside BP, and the first step took about
    /// twice a steady one. The store calls it once the caller's blocks are
    /// gone, so the moments never sit beside a block not yet stored.
    fn zero_moments(&self) {
        let written_zeros = |k| {
            // Opaque to the optimizer, so the allocation and the zeros
            // written into it cannot fold into one calloc that leaves the
            // pages to the first update again.
            let mut z: Vec<f32> = std::hint::black_box(Vec::with_capacity(k));
            z.resize(k, 0.0);
            z
        };
        pool::for_each(0..self.ram.len(), |c| {
            let mut chunk = lock(&self.ram[c]);
            let k = chunk.params.len();
            chunk.m = written_zeros(k);
            chunk.v = written_zeros(k);
        });
    }
}

/// A layer's parameters in canonical flat order, as a [`LayerStore`] is
/// built from them: a block's tensors, or a flat vector.
pub(crate) trait LayerImage: Sync {
    /// The image's storage, contiguous pieces in order.
    fn parts(&self) -> impl Iterator<Item = &[f32]>;

    /// Floats in the image.
    fn len(&self) -> usize {
        self.parts().map(<[f32]>::len).sum()
    }

    /// Appends the image's floats `off..off + len` to `out`.
    ///
    /// # Panics
    /// Panics if the range passes the image's end.
    fn append_range(&self, off: usize, len: usize, out: &mut Vec<f32>) {
        let (mut start, mut done) = (0, 0);
        for part in self.parts() {
            if done == len {
                break;
            }
            let end = start + part.len();
            if off + done < end {
                let from = off + done - start;
                let k = (part.len() - from).min(len - done);
                out.extend_from_slice(&part[from..from + k]);
                done += k;
            }
            start = end;
        }
        assert_eq!(done, len, "read past the image's end");
    }
}

impl LayerImage for Vec<f32> {
    fn parts(&self) -> impl Iterator<Item = &[f32]> {
        std::iter::once(self.as_slice())
    }
}

impl LayerImage for Block {
    fn parts(&self) -> impl Iterator<Item = &[f32]> {
        self.param_slices().into_iter()
    }
}

/// A block the caller keeps (the windowed backend's shell template)
/// beside the blocks it hands over.
impl LayerImage for Cow<'_, Block> {
    fn parts(&self) -> impl Iterator<Item = &[f32]> {
        self.as_ref().parts()
    }
}

impl LayerStore {
    /// Builds an all-resident store from per-layer flat parameter vectors.
    pub fn new(layer_params: Vec<Vec<f32>>) -> Arc<Self> {
        let placement = vec![Tier::Ram; layer_params.len()];
        Self::tiered(layer_params, &placement, &Telemetry::disabled())
            .expect("an all-resident store does no I/O")
    }

    /// An all-resident store holding parameters only — no Adam moments. The
    /// read-only store of the serving engine, whose layers are flat images
    /// of `params` parameters each: a serving-form block's image carries
    /// panel padding, which is layout, so the store counts parameters, not
    /// image floats. Each image is one chunk, uncopied: no layer is ever
    /// stepped. An update of one of its layers fails the optimizer's
    /// length check.
    pub(crate) fn without_moments(images: Vec<Vec<f32>>, params: usize) -> Arc<Self> {
        let lens = vec![params; images.len()];
        let slots = images
            .into_iter()
            .map(|params| {
                let chunk = RamChunk {
                    params,
                    ..RamChunk::default()
                };
                SlotCell::new(vec![Mutex::new(chunk)], usize::MAX)
            })
            .collect();
        Arc::new(LayerStore {
            slots,
            placement: vec![Tier::Ram; lens.len()],
            lens,
            tier: None,
            read_only: true,
        })
    }

    /// Builds a store whose layers are placed per `placement` (a
    /// [`TierPlan`](crate::tier::TierPlan)'s tiers), taking each layer in
    /// turn from `layers` and dropping it as soon as it is stored, so the
    /// caller's model is never held twice. `Tier::Ram` slots copy the
    /// layer once into their chunks ([`SlotCell::resident`]) and get their
    /// moments once every layer is stored ([`SlotCell::zero_moments`]).
    /// `Tier::File` slots write the layer to a fresh swap file, its
    /// parameters straight from its storage and then its zero moments from
    /// one reused chunk of zeros, and are read and updated in place there.
    /// The zeros are written, not left as the sized file's holes (which
    /// read back as zeros too): with holes, `train-spill`'s steady-state
    /// step ran ~5 % slower.
    ///
    /// # Panics
    /// Panics if `layers` does not yield one layer per placement, or if
    /// the spilled layers have non-uniform parameter counts (the swap file
    /// uses fixed-size slots).
    pub(crate) fn tiered<I: LayerImage>(
        layers: impl IntoIterator<Item = I>,
        placement: &[Tier],
        tel: &Telemetry,
    ) -> std::io::Result<Arc<Self>> {
        let spilled = placement.iter().filter(|t| **t == Tier::File).count();
        let mut lens = Vec::with_capacity(placement.len());
        let mut slots = Vec::with_capacity(placement.len());
        let mut file_slots = 0;
        // The swap file, sized at the first spilled layer, and the chunk
        // of zeros every spilled layer's moments are written from.
        let mut file: Option<(Arc<NvmeStore>, Vec<f32>)> = None;
        let mut scratch = Vec::new();
        for (l, layer) in layers.into_iter().enumerate() {
            let n = layer.len();
            lens.push(n);
            if placement[l] == Tier::Ram {
                slots.push(SlotCell::resident(&layer));
                continue;
            }
            let (nvme, zeros) = match &file {
                Some(file) => file,
                None => file.insert((
                    NvmeStore::create(spilled, 3 * n)?,
                    vec![0.0; n.min(SPILL_CHUNK)],
                )),
            };
            assert_eq!(
                3 * n,
                nvme.slot_floats(),
                "spilled layers must have uniform parameter counts"
            );
            let fs = file_slots;
            file_slots += 1;
            let mut off = 0;
            for part in layer.parts() {
                nvme.write_at(fs, off, part, &mut scratch)?;
                off += part.len();
            }
            while off < 3 * n {
                let k = zeros.len().min(3 * n - off);
                nvme.write_at(fs, off, &zeros[..k], &mut scratch)?;
                off += k;
            }
            // Nothing in RAM: params, m and v live in the file slot.
            slots.push(SlotCell::new(Vec::new(), fs));
        }
        assert_eq!(lens.len(), placement.len(), "plan vs layer count");
        for slot in &slots {
            slot.zero_moments();
        }
        Ok(Arc::new(LayerStore {
            slots,
            placement: placement.to_vec(),
            tier: file.map(|(nvme, _)| {
                let n = nvme.slot_floats() / 3;
                TierStore::new(nvme, n, tel)
            }),
            lens,
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
            Masters::Ram(ram) => ram.append_to(out),
            Masters::File(file) => {
                out.resize(file.len(), 0.0);
                file.read(0, out);
            }
        })
    }

    /// Lends a layer's parameters to `f` without copying them — the read
    /// the H2D stream loads device shells from. Blocks while an update for
    /// the layer is pending. A resident layer is lent as its chunks, under
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
            return f(Masters::Ram(RamMasters(&cell.ram)));
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

    /// Applies an Adam update for a layer on the calling thread and releases
    /// waiters: every chunk through the routine the pool's actors share, so
    /// a resident layer steps in place and a spilled one straight through
    /// its file slot (12·S bytes in, 12·S out), and `pending_update` clears
    /// only once the last chunk is written back, so readers and checkpoints
    /// never observe a stale file image. A failed swap-file access does not
    /// panic here — the unwind would leave `pending_update` set and strand
    /// the layer's readers — but is recorded and re-raised by the next
    /// access to the layer and by [`LayerStore::flush_spill`].
    pub fn apply_update(&self, layer: usize, grads: &[f32], hp: &AdamParams) {
        assert_eq!(grads.len(), self.lens[layer], "adam: params vs grads");
        let t = self.enter_update(layer);
        let mut staging = Staging::default();
        let mut stepped = true;
        for index in 0..self.chunks(layer) {
            stepped &= self.step_chunk(layer, index, GradSource::Flat(grads), t, hp, &mut staging);
        }
        self.end_update(layer, stepped);
    }

    /// Chunks an update of `layer` is stepped in (at least one).
    fn chunks(&self, layer: usize) -> usize {
        self.lens[layer].div_ceil(SPILL_CHUNK).max(1)
    }

    /// Opens a chunk's share of an update of `layer`: marks the layer
    /// pending, waits out a read of a spilled layer still in flight (one
    /// that began before the layer was marked), and returns the Adam step
    /// the update commits. Every chunk of one update sees the same step:
    /// it commits only at [`LayerStore::end_update`].
    fn enter_update(&self, layer: usize) -> u64 {
        let cell = &self.slots[layer];
        let mut slot = lock(&cell.lock);
        slot.pending_update = true;
        while slot.reading {
            slot = wait(&cell.cv, slot);
        }
        slot.t + 1
    }

    /// Adam step `t` of chunk `index` of `layer`, with the gradient read
    /// from `grads` one [`GRAD_PIECE`] at a time — the one update routine of
    /// every layer. A resident chunk steps in place under its own lock; a
    /// spilled one is paged into `staging`, stepped with the same formula,
    /// and written back. Returns false, with the failure recorded on the
    /// layer, if its swap-file I/O failed.
    ///
    /// # Panics
    /// Panics if the store holds no Adam moments, and if a chunk's moments
    /// do not match its masters.
    fn step_chunk(
        &self,
        layer: usize,
        index: usize,
        grads: GradSource<'_>,
        t: u64,
        hp: &AdamParams,
        staging: &mut Staging,
    ) -> bool {
        let stepped = self.try_step_chunk(layer, index, grads, t, hp, staging);
        if let Err(e) = &stepped {
            let cell = &self.slots[layer];
            lock(&cell.lock)
                .failure
                .get_or_insert_with(|| io_failure(layer, cell.file_slot, "update", e));
        }
        stepped.is_ok()
    }

    fn try_step_chunk(
        &self,
        layer: usize,
        index: usize,
        grads: GradSource<'_>,
        t: u64,
        hp: &AdamParams,
        staging: &mut Staging,
    ) -> std::io::Result<()> {
        assert!(!self.read_only, "adam: params vs state: no Adam moments");
        let (n, cell) = (self.lens[layer], &self.slots[layer]);
        let start = index * SPILL_CHUNK;
        let len = SPILL_CHUNK.min(n - start);
        let Staging { page, grad } = staging;
        // Byte staging of a big-endian host; untouched on little-endian ones.
        let mut scratch = Vec::new();
        let file = self
            .tier
            .as_ref()
            .filter(|_| self.placement[layer] == Tier::File);
        let mut ram;
        let [p, m, v] = match file {
            Some(tier) => {
                for buf in page.iter_mut().filter(|buf| buf.len() < len) {
                    buf.resize(len, 0.0);
                }
                let [p, m, v] = page;
                let (p, m, v) = (&mut p[..len], &mut m[..len], &mut v[..len]);
                let _s = tier.telemetry().span("spill-read", "update-page-in");
                let nvme = tier.nvme();
                nvme.read_at(cell.file_slot, start, p, &mut scratch)?;
                nvme.read_at(cell.file_slot, n + start, m, &mut scratch)?;
                nvme.read_at(cell.file_slot, 2 * n + start, v, &mut scratch)?;
                [p, m, v]
            }
            None => {
                ram = lock(&cell.ram[index]);
                let RamChunk { params, m, v } = &mut *ram;
                [params.as_mut_slice(), m.as_mut_slice(), v.as_mut_slice()]
            }
        };
        assert_eq!(m.len(), p.len(), "adam: params vs state");
        for off in (0..len).step_by(GRAD_PIECE) {
            let r = off..len.min(off + GRAD_PIECE);
            let g = grads.piece(start + off, r.len(), grad);
            adam::fused_step(&mut p[r.clone()], g, &mut m[r.clone()], &mut v[r], t, hp);
        }
        if let Some(tier) = file {
            let _s = tier.telemetry().span("spill-write", "update-write-back");
            let nvme = tier.nvme();
            nvme.write_at(cell.file_slot, start, p, &mut scratch)?;
            nvme.write_at(cell.file_slot, n + start, m, &mut scratch)?;
            nvme.write_at(cell.file_slot, 2 * n + start, v, &mut scratch)?;
        }
        Ok(())
    }

    /// Closes an update of `layer` once its last chunk has retired: commits
    /// its Adam step if every chunk stepped, clears `pending_update` and
    /// wakes the layer's waiters either way, so nothing is left blocked.
    fn end_update(&self, layer: usize, stepped: bool) {
        let cell = &self.slots[layer];
        let mut slot = lock(&cell.lock);
        if stepped {
            slot.t += 1;
            if let Some(tier) = self
                .tier
                .as_ref()
                .filter(|_| self.placement[layer] == Tier::File)
            {
                tier.count_update();
            }
        }
        slot.pending_update = false;
        cell.cv.notify_all();
    }

    /// Snapshot of a layer's parameters. Resident layers impose no ordering
    /// guarantees (tests); spilled layers wait out any in-flight update so
    /// the file image read back is current.
    pub fn snapshot(&self, layer: usize) -> Vec<f32> {
        let mut out = Vec::new();
        if self.placement[layer] == Tier::Ram {
            RamMasters(&self.slots[layer].ram).append_to(&mut out);
        } else {
            self.read_params_into(layer, &mut out);
        }
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
            let t = lock(&cell.lock).t;
            let (mut m, mut v) = (Vec::new(), Vec::new());
            for chunk in &cell.ram {
                let chunk = lock(chunk);
                m.extend_from_slice(&chunk.m);
                v.extend_from_slice(&chunk.v);
            }
            return AdamState { m, v, t };
        }
        let tier = self.tier.as_ref().expect("tiered store");
        let n = self.lens[layer];
        let t = {
            let mut slot = lock(&cell.lock);
            while slot.pending_update {
                slot = wait(&cell.cv, slot);
            }
            slot.check_io();
            slot.t
        };
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut scratch = Vec::new();
        let fs = cell.file_slot;
        for (off, buf) in [(n, &mut m), (2 * n, &mut v)] {
            if let Err(e) = tier.nvme().read_at(fs, off, buf, &mut scratch) {
                panic!("{}", io_failure(layer, fs, "adam snapshot", &e));
            }
        }
        AdamState { m, v, t }
    }

    /// Replaces a layer's Adam moment state (checkpoint restore), once no
    /// update or read of the layer is in flight.
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
        let mut slot = lock(&cell.lock);
        while slot.pending_update || slot.reading {
            slot = wait(&cell.cv, slot);
        }
        slot.t = state.t;
        if self.placement[layer] == Tier::Ram {
            let parts = state.m.chunks(SPILL_CHUNK).zip(state.v.chunks(SPILL_CHUNK));
            for (chunk, (m, v)) in cell.ram.iter().zip(parts) {
                let mut chunk = lock(chunk);
                chunk.m.copy_from_slice(m);
                chunk.v.copy_from_slice(v);
            }
            return;
        }
        drop(slot);
        let tier = self.tier.as_ref().expect("tiered store");
        let (n, fs) = (self.lens[layer], cell.file_slot);
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
    /// optimizer-pool flush, which has landed every write-back: an update's
    /// last chunk writes back before it retires.
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

/// A layer's FP32 masters as [`LayerStore::with_params`] lends them.
pub(crate) enum Masters<'a> {
    /// A resident layer's chunks, lent under its slot lock.
    Ram(RamMasters<'a>),
    /// A spilled layer's range of its file slot.
    File(&'a SpillRange<'a>),
}

/// A resident layer's masters, chunk by chunk.
pub(crate) struct RamMasters<'a>(&'a [Mutex<RamChunk>]);

impl RamMasters<'_> {
    /// Floats in the layer's image.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|c| lock(c).params.len()).sum()
    }

    /// Copies the image's floats `off..off + out.len()` into `out`, each
    /// rounded through `precision` on the way ([`round_copy`]).
    ///
    /// # Panics
    /// Panics if the range passes the image's end.
    pub(crate) fn read_as(&self, off: usize, out: &mut [f32], precision: Precision) {
        let (mut start, mut done) = (0, 0);
        for chunk in self.0 {
            if done == out.len() {
                break;
            }
            let chunk = lock(chunk);
            let end = start + chunk.params.len();
            if off + done < end {
                let from = off + done - start;
                let k = (chunk.params.len() - from).min(out.len() - done);
                round_copy(
                    precision,
                    &chunk.params[from..from + k],
                    &mut out[done..done + k],
                );
                done += k;
            }
            start = end;
        }
        assert_eq!(done, out.len(), "read past the layer's end");
    }

    fn append_to(&self, out: &mut Vec<f32>) {
        for chunk in self.0 {
            out.extend_from_slice(&lock(chunk).params);
        }
    }
}

/// A spilled layer's parameters on the swap file, lent while its slot's
/// `reading` flag is set; the flag clears, and the slot's waiters wake,
/// when the lend ends, whether it returns or unwinds.
pub(crate) struct SpillRange<'a> {
    tier: &'a TierStore,
    cell: &'a SlotCell,
    layer: usize,
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
        let fs = self.cell.file_slot;
        let read = self.tier.nvme().read_at(fs, off, out, &mut Vec::new());
        if let Err(e) = read {
            let msg = io_failure(self.layer, fs, "fill", &e);
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

/// Where an update reads its gradient from.
#[derive(Clone, Copy)]
enum GradSource<'a> {
    /// A flat host copy, already on the transfer grid.
    Flat(&'a [f32]),
    /// A ring accumulator, each value rounded through the transfer
    /// precision as it is read.
    Ring(&'a BlockGrads, Precision),
}

impl<'a> GradSource<'a> {
    /// The flat gradient's floats `off..off + len`: a slice of a host copy,
    /// or round-copied out of an accumulator into `stage`.
    fn piece<'s>(self, off: usize, len: usize, stage: &'s mut Vec<f32>) -> &'s [f32]
    where
        'a: 's,
    {
        match self {
            GradSource::Flat(flat) => &flat[off..off + len],
            GradSource::Ring(acc, precision) => {
                if stage.len() < len {
                    stage.resize(len, 0.0);
                }
                acc.read_flat_as(off, &mut stage[..len], precision);
                &stage[..len]
            }
        }
    }
}

/// The pool's layer-sized gradient buffers: allocated on first draw, at
/// most `cap` of them, and the condvar a draw waits on while none is home
/// and none is left to allocate.
struct Bank {
    shelf: Mutex<Shelf>,
    retired: Condvar,
    /// Floats per buffer: the store's largest layer.
    len: usize,
    cap: usize,
    /// `optim.grad_buffers`: buffers allocated so far.
    made: Gauge,
}

struct Shelf {
    free: Vec<Vec<f32>>,
    made: usize,
}

/// A layer's gradient on its way to an update, handed to the step's sink
/// and on to the optimizer pool. It is either one of the pool's host
/// buffers, on loan from [`OptimizerPool::recycled_buffer`] (it derefs to
/// the `Vec`), or — from a sink that delivers each gradient at once — the
/// D2H engine's ring accumulator itself, which has no host copy to deref
/// to: the update reads it chunk by chunk. Dropping it is the only way
/// back: a buffer returns to the pool's free list and an accumulator goes
/// home to BP when its update retires, and equally when a sink drops it or
/// a panic unwinds past it, so no path loses one.
pub struct GradBuffer {
    grads: Grads,
}

// The ring variant carries the accumulator by value: boxing it would
// allocate once per update.
#[allow(clippy::large_enum_variant)]
enum Grads {
    Host {
        buf: Vec<f32>,
        bank: Arc<Bank>,
    },
    Ring {
        acc: Option<BlockGrads>,
        /// Flat gradient elements of the block.
        len: usize,
        precision: Precision,
        home: Sender<BlockGrads>,
    },
}

impl GradBuffer {
    /// Lends ring accumulator `acc` (`len` flat elements, read through
    /// `precision`); it goes back over `home` when the loan ends.
    pub(crate) fn ring(
        acc: BlockGrads,
        len: usize,
        precision: Precision,
        home: Sender<BlockGrads>,
    ) -> Self {
        GradBuffer {
            grads: Grads::Ring {
                acc: Some(acc),
                len,
                precision,
                home,
            },
        }
    }

    fn flat_len(&self) -> usize {
        match &self.grads {
            Grads::Host { buf, .. } => buf.len(),
            Grads::Ring { len, .. } => *len,
        }
    }

    fn source(&self) -> GradSource<'_> {
        match &self.grads {
            Grads::Host { buf, .. } => GradSource::Flat(buf),
            Grads::Ring { acc, precision, .. } => {
                GradSource::Ring(acc.as_ref().expect("accumulator on loan"), *precision)
            }
        }
    }

    /// Writes the flat gradient into `out`, clearing it first.
    pub(crate) fn flatten_into(&self, out: &mut Vec<f32>) {
        match self.source() {
            GradSource::Flat(flat) => {
                out.clear();
                out.extend_from_slice(flat);
            }
            GradSource::Ring(acc, precision) => acc.flatten_into_as(out, precision),
        }
    }

    /// [`crate::clip::GlobalNorm::layer_sum_sq`] of the flat gradient, bit for bit; an
    /// accumulator is read a stack-sized piece at a time.
    pub(crate) fn sum_sq(&self) -> f64 {
        const PIECE: usize = 1 << 10;
        let mut lanes = NormLanes::default();
        match self.source() {
            GradSource::Flat(flat) => lanes.add(flat),
            GradSource::Ring(acc, precision) => {
                let mut stage = [0.0f32; PIECE];
                let len = self.flat_len();
                for off in (0..len).step_by(PIECE) {
                    let piece = &mut stage[..PIECE.min(len - off)];
                    acc.read_flat_as(off, piece, precision);
                    lanes.add(piece);
                }
            }
        }
        lanes.total()
    }
}

impl Deref for GradBuffer {
    type Target = Vec<f32>;

    /// # Panics
    /// Panics on a lent ring accumulator, which has no host copy.
    fn deref(&self) -> &Vec<f32> {
        match &self.grads {
            Grads::Host { buf, .. } => buf,
            Grads::Ring { .. } => panic!("a lent ring accumulator has no host copy"),
        }
    }
}

impl DerefMut for GradBuffer {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        match &mut self.grads {
            Grads::Host { buf, .. } => buf,
            Grads::Ring { .. } => panic!("a lent ring accumulator has no host copy"),
        }
    }
}

impl Drop for GradBuffer {
    fn drop(&mut self) {
        match &mut self.grads {
            Grads::Host { buf, bank } => {
                lock(&bank.shelf).free.push(std::mem::take(buf));
                bank.retired.notify_one();
            }
            Grads::Ring { acc, home, .. } => {
                if let Some(acc) = acc.take() {
                    let _ = home.send(acc);
                }
            }
        }
    }
}

/// One chunk of one layer's update: the unit of work an actor takes.
struct Chunk {
    layer: usize,
    index: usize,
}

/// The update a layer has in flight, and the countdown of its chunks.
/// One per layer, made with the pool, so an update allocates nothing.
#[derive(Default)]
struct Inflight {
    job: RwLock<Option<Job>>,
    /// Chunks not yet retired.
    left: AtomicUsize,
    /// When the first chunk started (0: none has).
    start_ns: AtomicU64,
    /// A chunk's swap-file I/O failed: the Adam step does not commit.
    failed: AtomicBool,
    /// A chunk panicked: the step does not commit, nor count as applied.
    panicked: AtomicBool,
}

struct Job {
    grads: GradBuffer,
    /// This update's hyper-params, so a per-step learning-rate schedule
    /// reaches the actors without reconfiguring the pool.
    hp: AdamParams,
}

/// What the pool and its actors share.
struct Shared {
    store: Arc<LayerStore>,
    inflight: Vec<Inflight>,
    updates: AtomicUsize,
    tel: Telemetry,
    queue_depth: Gauge,
    update_ns: Histogram,
    busy_ns: Counter,
}

impl Shared {
    /// Runs chunk `index` of `layer`'s update on an actor, through its
    /// reusable `staging`.
    fn run_chunk(&self, Chunk { layer, index }: Chunk, staging: &mut Staging) {
        let inflight = &self.inflight[layer];
        // Declared first, so it retires the chunk after the job's read
        // guard is released, on return and on unwind alike.
        let _retire = Retire {
            shared: self,
            layer,
        };
        let now = self.tel.now_nanos().max(1);
        let first = inflight
            .start_ns
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire);
        if first.is_ok() {
            self.queue_depth.add(-1);
        }
        let t = self.store.enter_update(layer);
        let job = inflight.job.read().unwrap_or_else(PoisonError::into_inner);
        let job = job.as_ref().expect("an update in flight");
        let source = job.grads.source();
        if !self
            .store
            .step_chunk(layer, index, source, t, &job.hp, staging)
        {
            inflight.failed.store(true, Ordering::Relaxed);
        }
    }

    /// The last chunk of `layer`'s update has retired: the step commits
    /// (unless a chunk failed), the layer's readers wake, the update is one
    /// `adam L{layer}` span and one `optim.update_ns` sample, and its
    /// gradient goes home.
    fn retire(&self, layer: usize) {
        let inflight = &self.inflight[layer];
        let job = inflight
            .job
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let panicked = inflight.panicked.load(Ordering::Relaxed);
        let failed = panicked || inflight.failed.load(Ordering::Relaxed);
        self.store.end_update(layer, !failed);
        let (start, end) = (
            inflight.start_ns.load(Ordering::Acquire),
            self.tel.now_nanos(),
        );
        if self.tel.is_enabled() {
            self.tel
                .record_span("optim", &format!("adam L{layer}"), start, end);
        }
        if !panicked {
            let dt = end.saturating_sub(start);
            self.update_ns.record(dt);
            self.busy_ns.add(dt);
            self.updates.fetch_add(1, Ordering::SeqCst);
        }
        drop(job);
    }
}

/// Retires one chunk when it drops; the last chunk of an update to retire
/// closes the update.
struct Retire<'a> {
    shared: &'a Shared,
    layer: usize,
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let inflight = &self.shared.inflight[self.layer];
        if std::thread::panicking() {
            inflight.panicked.store(true, Ordering::Relaxed);
        }
        if inflight.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.retire(self.layer);
        }
    }
}

/// The concurrent optimizer pool: `workers` actor threads stepping the
/// chunks of update tasks against a shared [`LayerStore`].
pub struct OptimizerPool {
    shared: Arc<Shared>,
    bank: Arc<Bank>,
    actors: Actor<Chunk>,
}

impl OptimizerPool {
    /// Spawns `workers` optimizer actors over `store`. The pool may hold up
    /// to `buffers` host gradient buffers, each as long as the store's
    /// largest layer, allocated — and touched once, so its pages are
    /// resident from then on — when a draw first finds none home. A sink
    /// that delivers each gradient at once lends its ring accumulators
    /// instead and never draws one; one buffer per actor keeps every actor
    /// busy otherwise, so `buffers` is `workers` unless a sink parks
    /// gradients before delivering them (a data-parallel bucket). Records
    /// per-update latency, first chunk started to last retired
    /// (`optim.update_ns`, summed into `optim.busy_ns`), live queue depth
    /// in updates (`optim.queue_depth`), the buffers allocated
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
        let bank = Arc::new(Bank {
            shelf: Mutex::new(Shelf {
                free: Vec::with_capacity(buffers),
                made: 0,
            }),
            retired: Condvar::new(),
            len: len.unwrap_or(0),
            cap: buffers,
            made: tel.gauge("optim.grad_buffers"),
        });
        let shared = Arc::new(Shared {
            inflight: (0..store.len()).map(|_| Inflight::default()).collect(),
            store,
            updates: AtomicUsize::new(0),
            tel: tel.clone(),
            queue_depth: tel.gauge("optim.queue_depth"),
            update_ns: tel.histogram("optim.update_ns"),
            busy_ns: tel.counter("optim.busy_ns"),
        });
        let names = (0..workers).map(|w| format!("optim-{w}"));
        let actors = Actor::start(names, None, || {
            let (shared, mut staging) = (Arc::clone(&shared), Staging::default());
            move |chunk: Chunk| shared.run_chunk(chunk, &mut staging)
        });
        OptimizerPool {
            shared,
            bank,
            actors,
        }
    }

    /// Submits an asynchronous update for `layer` with the hyper-params of
    /// this one update (so a per-step [`crate::schedule::LrSchedule`]
    /// reaches the actors). The caller must have called
    /// [`LayerStore::mark_pending`] when the gradients left the GPU.
    ///
    /// The gradients are copied into one of the pool's buffers, so the
    /// caller keeps its own buffer for reuse. A malformed gradient is
    /// rejected before a buffer is drawn.
    pub fn submit_with(&self, layer: usize, grads: &[f32], hp: AdamParams) {
        self.check_len(layer, grads.len());
        let mut buf = self.recycled_buffer();
        buf.extend_from_slice(grads);
        self.submit_owned(layer, buf, hp);
    }

    /// An empty gradient buffer from the pool's fixed set: a free one, else
    /// a new one while fewer than `buffers` exist, else it waits until one
    /// comes back — an update retires, or a holder drops its buffer. A
    /// drained pool is back-pressure on the thread drawing, as the
    /// gradient ring is on BP. Fill the buffer and hand it back through
    /// [`OptimizerPool::submit_owned`] — the offload thread flattens a
    /// gradient a sink will park *directly* into one, so it pays no copy
    /// beyond the flatten itself.
    pub fn recycled_buffer(&self) -> GradBuffer {
        let bank = &*self.bank;
        let mut shelf = lock(&bank.shelf);
        let buf = loop {
            if let Some(mut buf) = shelf.free.pop() {
                buf.clear();
                break buf;
            }
            if shelf.made < bank.cap {
                shelf.made += 1;
                bank.made.set(shelf.made as i64);
                // Written once, so every page is resident from the start.
                let mut buf = Vec::with_capacity(bank.len);
                buf.resize(bank.len, 0.0);
                buf.clear();
                break buf;
            }
            shelf = wait(&bank.retired, shelf);
        };
        GradBuffer {
            grads: Grads::Host {
                buf,
                bank: Arc::clone(&self.bank),
            },
        }
    }

    /// Submits an update whose gradient the caller already holds as a
    /// [`GradBuffer`]: it travels to the actors without another copy, its
    /// chunks are dealt to every actor, and it goes home when the last
    /// chunk retires.
    ///
    /// # Panics
    /// Panics if the gradient's length is not the layer's, or if the layer
    /// still has an update in flight.
    pub fn submit_owned(&self, layer: usize, grads: GradBuffer, hp: AdamParams) {
        self.check_len(layer, grads.flat_len());
        let inflight = &self.shared.inflight[layer];
        {
            let mut job = inflight.job.write().unwrap_or_else(PoisonError::into_inner);
            assert!(job.is_none(), "layer {layer} has an update in flight");
            *job = Some(Job { grads, hp });
        }
        let chunks = self.shared.store.chunks(layer);
        inflight.left.store(chunks, Ordering::Release);
        inflight.start_ns.store(0, Ordering::Release);
        inflight.failed.store(false, Ordering::Relaxed);
        inflight.panicked.store(false, Ordering::Relaxed);
        self.shared.queue_depth.add(1);
        for index in 0..chunks {
            self.actors.send(Chunk { layer, index });
        }
    }

    /// A gradient fails fast on the submitting thread, not in an actor.
    fn check_len(&self, layer: usize, len: usize) {
        assert_eq!(
            len,
            self.shared.store.param_len(layer),
            "gradient length mismatch for layer {layer}"
        );
    }

    /// Blocks until every submitted update has been applied.
    ///
    /// # Panics
    /// Re-raises, on the calling thread, the first panic that ended an
    /// update's chunk since the last flush.
    pub fn flush(&self) {
        if let Some(panic) = self.actors.flush() {
            resume_unwind(panic);
        }
    }

    /// Total updates applied since creation.
    pub fn updates_applied(&self) -> usize {
        self.shared.updates.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::GlobalNorm;
    use crate::tier::TierPlan;
    use proptest::prelude::*;

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
        let store = LayerStore::tiered(layer_params, plan.tiers(), &Telemetry::disabled()).unwrap();
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
    /// pool allocates no gradient buffer until the first draw and never
    /// more than one per actor.
    #[test]
    fn telemetry_counts_updates_and_latency() {
        let tel = Telemetry::enabled();
        let (layers, workers) = (4, 2);
        let store = store_with(layers, 32);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), workers, workers, &tel);
        let buffers = tel.gauge("optim.grad_buffers");
        assert_eq!(buffers.get(), 0, "none allocated before a draw");
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
        assert!(buffers.get() >= 1, "the draws allocated");
        assert!(
            buffers.peak() <= workers as i64,
            "one buffer per actor at most"
        );
    }

    /// A flat gradient laid out as a block's gradient tensors (canonical
    /// order) — what a ring accumulator holds.
    fn ring_grads(hidden: usize, heads: usize, flat: &[f32]) -> BlockGrads {
        use stronghold_model::block::Block;
        let block = Block::new(hidden, heads, &mut stronghold_tensor::init::seeded_rng(3));
        let mut g = block.zero_grads();
        let mut off = 0;
        for t in [
            &mut g.ln1_g,
            &mut g.ln1_b,
            &mut g.attn.qkv.weight,
            &mut g.attn.qkv.bias,
            &mut g.attn.proj.weight,
            &mut g.attn.proj.bias,
            &mut g.ln2_g,
            &mut g.ln2_b,
            &mut g.fc1.weight,
            &mut g.fc1.bias,
            &mut g.fc2.weight,
            &mut g.fc2.bias,
        ] {
            let n = t.numel();
            t.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        assert_eq!(off, flat.len(), "{hidden} x {heads} block");
        g
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Gradient values spanning the half formats' range, rounding edges
    /// included.
    fn gradient(n: usize, seed: u64) -> Vec<f32> {
        use rand::Rng;
        let mut rng = stronghold_tensor::init::seeded_rng(seed);
        (0..n)
            .map(|_| rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-6i32..3)))
            .collect()
    }

    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::F16];

    /// Block shapes `(hidden, heads)` whose flat lengths are not a multiple
    /// of 16 (1 089 and 268 349 floats) or fill one chunk and a ragged
    /// second (268 349).
    const SHAPES: [(usize, usize); 2] = [(9, 3), (149, 1)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// A layer stepped as chunks, dealt in a shuffled order to 1, 2 or 4
        /// actors that each step whatever chunk they draw next, is bitwise
        /// `AdamState::step` on the flattened, rounded gradient: params,
        /// m, v and t after two steps, resident or spilled, at f32, bf16
        /// and f16, reading the gradient from a ring accumulator or from a
        /// host copy.
        #[test]
        fn prop_chunks_dealt_to_actors_step_the_whole_layer(
            shape in 0usize..2,
            precision in 0usize..3,
            spilled in 0usize..2,
            actors in 0usize..3,
            ring in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            use rand::Rng;
            let ((hidden, heads), precision) = (SHAPES[shape], PRECISIONS[precision]);
            let actors = [1, 2, 4][actors];
            let hp = AdamParams { lr: 1e-2, ..AdamParams::default() };
            let n = 12 * hidden * hidden + 13 * hidden;
            let init = gradient(n, seed);
            let store = if spilled == 1 {
                fully_spilled(vec![init.clone()])
            } else {
                LayerStore::new(vec![init.clone()])
            };
            let (mut want_p, mut want) = (init, AdamState::new(n));
            let mut rng = stronghold_tensor::init::seeded_rng(seed ^ 0x5eed);
            for step in 0..2u64 {
                let acc = ring_grads(hidden, heads, &gradient(n, seed + 1 + step));
                let mut flat = Vec::new();
                acc.flatten_into_as(&mut flat, precision);
                want.step(&mut want_p, &flat, &hp);

                let source = if ring == 1 {
                    GradSource::Ring(&acc, precision)
                } else {
                    GradSource::Flat(&flat)
                };
                let mut deck: Vec<usize> = (0..store.chunks(0)).collect();
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.gen_range(0..i + 1));
                }
                let next = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..actors {
                        s.spawn(|| {
                            let mut staging = Staging::default();
                            while let Some(&index) = deck.get(next.fetch_add(1, Ordering::SeqCst)) {
                                let t = store.enter_update(0);
                                assert!(store.step_chunk(0, index, source, t, &hp, &mut staging));
                            }
                        });
                    }
                });
                store.end_update(0, true);
            }
            let got = store.adam_snapshot(0);
            prop_assert_eq!(bits(&store.snapshot(0)), bits(&want_p));
            // The lend a shell loads from reads the same masters, cut
            // anywhere, across chunk edges too.
            let cut = rng.gen_range(0..n + 1);
            let mut lent = vec![0.0; n];
            store.with_params(0, |masters| match masters {
                Masters::Ram(ram) => {
                    ram.read_as(0, &mut lent[..cut], Precision::F32);
                    ram.read_as(cut, &mut lent[cut..], Precision::F32);
                }
                Masters::File(file) => {
                    file.read(0, &mut lent[..cut]);
                    file.read(cut, &mut lent[cut..]);
                }
            });
            prop_assert_eq!(bits(&lent), bits(&want_p));
            prop_assert_eq!(bits(&got.m), bits(&want.m));
            prop_assert_eq!(bits(&got.v), bits(&want.v));
            prop_assert_eq!(got.t, want.t);
        }
    }

    /// The pool deals a lent accumulator's chunks to its actors and steps
    /// the layer as `AdamState::step` does on the rounded flat gradient;
    /// the accumulator comes home when the update retires, and the flat
    /// gradient's norm partial reads the same through the loan.
    #[test]
    fn a_lent_accumulator_is_stepped_by_every_actor_and_comes_home() {
        let (hidden, heads) = SHAPES[1];
        let n = 12 * hidden * hidden + 13 * hidden;
        let hp = AdamParams::default();
        let init = gradient(n, 7);
        let flat_in = gradient(n, 8);
        for workers in [1, 2, 4] {
            for precision in [Precision::F32, Precision::Bf16] {
                let ctx = format!("{workers} actors, {}", precision.name());
                let mut flat = Vec::new();
                ring_grads(hidden, heads, &flat_in).flatten_into_as(&mut flat, precision);
                let (mut want_p, mut want) = (init.clone(), AdamState::new(n));
                want.step(&mut want_p, &flat, &hp);
                let spilled = fully_spilled(vec![init.clone()]);
                for store in [LayerStore::new(vec![init.clone()]), spilled] {
                    let pool = OptimizerPool::with_telemetry(
                        Arc::clone(&store),
                        workers,
                        workers,
                        &Telemetry::disabled(),
                    );
                    let (home, back) = crossbeam_channel::bounded(1);
                    let lent =
                        GradBuffer::ring(ring_grads(hidden, heads, &flat_in), n, precision, home);
                    assert_eq!(
                        lent.sum_sq().to_bits(),
                        GlobalNorm::layer_sum_sq(&flat).to_bits(),
                        "{ctx}: norm partial"
                    );
                    store.mark_pending(0);
                    pool.submit_owned(0, lent, hp);
                    pool.flush();
                    assert!(back.try_recv().is_ok(), "{ctx}: the accumulator came home");
                    let got = store.adam_snapshot(0);
                    assert_eq!(bits(&store.snapshot(0)), bits(&want_p), "{ctx}");
                    assert_eq!(
                        (bits(&got.m), bits(&got.v), got.t),
                        (bits(&want.m), bits(&want.v), 1)
                    );
                    assert_eq!(pool.updates_applied(), 1);
                }
            }
        }
    }

    /// An update that panics mid-layer — chunk 1 of 3, whose moments were
    /// cut short — ends on its actor while the other chunks still run: at 1
    /// and 2 actors `flush` re-raises the panic, the lent accumulator comes
    /// home, the layer's readers wake, and its Adam step does not commit.
    #[test]
    fn an_update_panicking_mid_layer_sends_its_accumulator_home() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        within_watchdog(|| {
            let (hidden, heads) = (210, 2);
            let n = 12 * hidden * hidden + 13 * hidden;
            for workers in [1, 2] {
                let store = LayerStore::new(vec![gradient(n, 9)]);
                assert_eq!(store.chunks(0), 3);
                lock(&store.slots[0].ram[1]).m.clear();
                let pool = OptimizerPool::with_telemetry(
                    Arc::clone(&store),
                    workers,
                    workers,
                    &Telemetry::disabled(),
                );
                let (home, back) = crossbeam_channel::bounded(1);
                let acc = ring_grads(hidden, heads, &gradient(n, 10));
                store.mark_pending(0);
                pool.submit_owned(
                    0,
                    GradBuffer::ring(acc, n, Precision::F32, home),
                    AdamParams::default(),
                );
                let panic = catch_unwind(AssertUnwindSafe(|| pool.flush())).expect_err("re-raised");
                let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("adam: params vs state"), "{msg}");
                assert!(
                    back.try_recv().is_ok(),
                    "{workers} actors: the accumulator came home"
                );
                drop(store.read_params(0));
                assert_eq!(store.adam_snapshot(0).t, 0, "the step did not commit");
                assert_eq!(pool.updates_applied(), 0);
            }
        });
    }

    #[test]
    fn store_total_params() {
        let store = store_with(3, 10);
        assert_eq!(store.total_params(), 30);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
    }
}
