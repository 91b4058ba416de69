//! Tiered parameter placement and the file-backed spill tier (§III-G).
//!
//! STRONGHOLD memory-maps an NVMe swap file so secondary storage extends the
//! working-set ceiling beyond host RAM; ZeRO-Infinity generalizes the idea
//! into a GPU ↔ CPU ↔ NVMe hierarchy and 10Cache adds heterogeneous,
//! cost-aware per-tensor placement from measured tier bandwidths. This module
//! makes the third tier real in the functional substrate:
//!
//! * [`Tier`] — where one layer's FP32 master parameters + Adam moments
//!   live: host RAM (the classic [`crate::optimpool::LayerStore`] slot) or a
//!   file slot on the [`crate::nvme::NvmeStore`] swap file.
//! * [`TierPlan`] — the per-layer placement decision, derived
//!   *deterministically* from a `host_capacity` byte budget and the known
//!   layer schedule. Measured bandwidths ([`TierBandwidths`]) only
//!   *annotate* predicted migration cost; they never change the plan, so
//!   placement is reproducible run to run. Placement is invisible to the
//!   math either way: f32 ↔ little-endian file round trips are bit-exact,
//!   so a spilled layer trains bit-identically to a resident one.
//! * [`TierStore`] — the async fill engine: one spill thread over a
//!   bounded channel. Fills (file → host) are issued ahead
//!   of the working window by the layer stream's prefetcher — the access
//!   pattern is fully known, so disk reads hide under compute exactly like
//!   H2D prefetch. Fill buffers circulate through one free list, so a run
//!   holds at most the fills in flight plus the one being lent (`m + 2` at
//!   window `m`). The update side is not here: an Adam update of a spilled
//!   layer pages in, steps and writes back chunk by chunk on the optimizer
//!   actor that runs it ([`crate::optimpool::LayerStore::apply_update`]).
//!
//! A failed swap-file read is recorded on the layer's slot and wakes its
//! waiters; the next access re-raises it as a panic on the accessing
//! thread, and `flush` re-raises it too — a failing disk aborts the run, it
//! never leaves a reader waiting for a fill that will not land.
//!
//! Telemetry: `spill.f2h_bytes` / `spill.h2f_bytes` counters meter every
//! byte crossing the file boundary (zero-tolerance tested against the
//! closed-form per-step formulas below), `spill.queue_wait_ns` records how
//! long fills sat queued, and an always-on fill-wait clock totals the time
//! readers spent blocked on fills, whether or not telemetry is enabled.
//!
//! # Per-step traffic formulas
//!
//! For a spilled layer of `S` parameters in a model of `nb` blocks with
//! window `m` (f32 everywhere — the device transfer precision never touches
//! this tier):
//!
//! * file → host: `4·S` (FP fill) `+ 4·S` if the layer is re-fetched for BP
//!   (`layer < nb − m`) `+ 12·S` (the update pages params + m + v back in);
//! * host → file: `12·S` (the update writes params + m + v back out).
//!
//! The fill cache is *evict-after-read*: a filled layer leaves RAM as soon
//! as the prefetcher stages it, so at most a window's worth of fills is
//! resident at once and the `host_capacity` budget holds through the FP→BP
//! turn.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::actor::Actor;
use crate::lock;
use crate::nvme::NvmeStore;
use crate::telemetry::{Counter, Telemetry};

/// Where one layer's FP32 masters + Adam moments live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tier {
    /// Host RAM — the classic resident `LayerStore` slot.
    #[default]
    Ram,
    /// A slot on the file-backed swap store (params, m, v contiguously).
    File,
}

/// Measured tier bandwidths (bytes per nanosecond), as probed by
/// [`crate::host::profiler::measure_tier_bandwidths`]. Used only to
/// *annotate* a [`TierPlan`] with predicted per-layer migration cost —
/// placement itself stays deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierBandwidths {
    /// Host-RAM copy bandwidth.
    pub ram_bytes_per_ns: f64,
    /// Swap-file read bandwidth.
    pub file_read_bytes_per_ns: f64,
    /// Swap-file write bandwidth.
    pub file_write_bytes_per_ns: f64,
}

/// Resident cost of one parameter in the host tier: FP32 master + Adam m +
/// Adam v, 4 bytes each.
pub const RESIDENT_BYTES_PER_PARAM: u64 = 12;

/// The per-layer placement decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierPlan {
    tiers: Vec<Tier>,
    param_len: usize,
    window: usize,
}

impl TierPlan {
    /// Derives a placement for `layers` uniform blocks of `param_len`
    /// parameters each, trained with working window `window`, under an
    /// optional `host_capacity` byte budget for the resident image
    /// (12 bytes/param/layer).
    ///
    /// Deterministic: the spill *count* is the smallest number of layers
    /// that brings the resident image within budget (a budget of 0 spills
    /// them all), and the spill *choice* is cost-ascending (10Cache-style)
    /// — deepest layers first, because layers inside the final window
    /// (`layer ≥ layers − window`) skip the BP re-fetch and are cheapest to
    /// page.
    pub fn plan(
        layers: usize,
        param_len: usize,
        window: usize,
        host_capacity: Option<u64>,
    ) -> TierPlan {
        let spill_count = match host_capacity {
            None => 0,
            Some(cap) => {
                let per_layer = RESIDENT_BYTES_PER_PARAM * param_len as u64;
                let fit = cap.checked_div(per_layer).map_or(layers, |n| n as usize);
                layers.saturating_sub(fit)
            }
        };
        let mut tiers = vec![Tier::Ram; layers];
        for t in tiers.iter_mut().rev().take(spill_count) {
            *t = Tier::File;
        }
        TierPlan {
            tiers,
            param_len,
            window: window.min(layers.max(1)),
        }
    }

    /// Per-layer tiers.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// One layer's tier.
    pub fn tier(&self, layer: usize) -> Tier {
        self.tiers[layer]
    }

    /// How many layers spill to the file tier.
    pub fn spilled(&self) -> usize {
        self.tiers.iter().filter(|t| **t == Tier::File).count()
    }

    /// Bytes the resident (RAM) image occupies under this plan.
    pub fn resident_bytes(&self) -> u64 {
        (self.tiers.len() - self.spilled()) as u64
            * RESIDENT_BYTES_PER_PARAM
            * self.param_len as u64
    }

    /// File → host bytes one layer moves per step at window `m` (0 for
    /// resident layers). See the module formulas.
    pub fn f2h_bytes_per_step(&self, layer: usize, m: usize) -> u64 {
        if self.tiers[layer] != Tier::File {
            return 0;
        }
        let s = self.param_len as u64 * 4;
        let bp_refetch = layer < self.tiers.len().saturating_sub(m);
        s + if bp_refetch { s } else { 0 } + 3 * s
    }

    /// Host → file bytes one layer moves per step (0 for resident layers).
    pub fn h2f_bytes_per_step(&self, layer: usize) -> u64 {
        if self.tiers[layer] != Tier::File {
            return 0;
        }
        3 * self.param_len as u64 * 4
    }

    /// Predicted extra nanoseconds per step for paging `layer` through the
    /// file tier instead of RAM, from measured bandwidths — the 10Cache
    /// cost annotation (reporting only; placement never depends on it).
    pub fn predicted_spill_ns_per_step(&self, layer: usize, m: usize, bw: &TierBandwidths) -> u64 {
        if self.tiers[layer] != Tier::File {
            return 0;
        }
        let reads = self.f2h_bytes_per_step(layer, m) as f64;
        let writes = self.h2f_bytes_per_step(layer) as f64;
        let file_ns = reads / bw.file_read_bytes_per_ns.max(f64::MIN_POSITIVE)
            + writes / bw.file_write_bytes_per_ns.max(f64::MIN_POSITIVE);
        let ram_ns = (reads + writes) / bw.ram_bytes_per_ns.max(f64::MIN_POSITIVE);
        (file_ns - ram_ns).max(0.0) as u64
    }
}

/// One queued job of the spill thread.
pub(crate) enum TierJob {
    /// Read `layer`'s parameters from `file_slot` into its fill cache.
    Fill {
        layer: usize,
        file_slot: usize,
        enqueued_ns: u64,
    },
}

/// Bounded queue depth: far above the `m + 1` fills a pass keeps ahead of
/// the window, without letting the queue grow unbounded.
const QUEUE_CAP: usize = 64;

/// The message a failed swap-file access is re-raised with.
pub(crate) fn io_failure(
    layer: usize,
    file_slot: usize,
    what: &str,
    err: &std::io::Error,
) -> String {
    format!("spill tier I/O failed: layer {layer}, file slot {file_slot}, {what}: {err}")
}

/// The async fill engine over one [`NvmeStore`] swap file. Owned by a
/// tiered [`crate::optimpool::LayerStore`]; its thread deposits fills into (and
/// clear in-flight flags on) the store's slots, so the two are constructed
/// together.
pub struct TierStore {
    nvme: Arc<NvmeStore>,
    /// Floats per component (params, m or v) — one file slot is `3 * n`.
    n: usize,
    /// Fill buffers, every one `n` floats long. Only the fill thread finding
    /// the list empty allocates (counted by the `spill.fill_buffers`
    /// gauge), so its length never exceeds the most fills ever out at once.
    free: Arc<Mutex<Vec<Vec<f32>>>>,
    tel: Telemetry,
    f2h: Counter,
    h2f: Counter,
    fill_wait: Arc<AtomicU64>,
    /// The spill thread.
    fills: Actor<TierJob>,
}

impl TierStore {
    /// Starts the engine and its I/O thread.
    pub(crate) fn new(
        nvme: Arc<NvmeStore>,
        slots: Arc<Vec<crate::optimpool::SlotCell>>,
        n: usize,
        tel: &Telemetry,
    ) -> Self {
        let free = Arc::new(Mutex::new(Vec::new()));
        let f2h = tel.counter("spill.f2h_bytes");
        let fills = Actor::start(["spill".into()], Some(QUEUE_CAP), || {
            let (nvme, slots, free, tel, f2h) = (
                Arc::clone(&nvme),
                Arc::clone(&slots),
                Arc::clone(&free),
                tel.clone(),
                f2h.clone(),
            );
            let queue_wait = tel.histogram("spill.queue_wait_ns");
            let allocated = tel.gauge("spill.fill_buffers");
            move |job: TierJob| {
                let TierJob::Fill {
                    layer,
                    file_slot,
                    enqueued_ns,
                } = job;
                queue_wait.record(tel.now_nanos().saturating_sub(enqueued_ns));
                let mut buf = lock(&free).pop().unwrap_or_else(|| {
                    allocated.add(1);
                    vec![0.0; n]
                });
                let read = {
                    let _s = tel.span("spill-read", "fill");
                    nvme.read_at(file_slot, 0, &mut buf, &mut Vec::new())
                };
                let cell = &slots[layer];
                let mut slot = lock(&cell.lock);
                match read {
                    Ok(()) => {
                        f2h.add(4 * n as u64);
                        // The slot's cache is empty whenever a fill is in
                        // flight: nothing to recycle.
                        slot.params = buf;
                        slot.filled = true;
                    }
                    Err(e) => {
                        let msg = io_failure(layer, file_slot, "fill", &e);
                        slot.failure.get_or_insert(msg);
                        lock(&free).push(buf);
                    }
                }
                slot.fill_inflight = false;
                cell.cv.notify_all();
            }
        });
        TierStore {
            nvme,
            n,
            free,
            tel: tel.clone(),
            f2h,
            h2f: tel.counter("spill.h2f_bytes"),
            fill_wait: Arc::new(AtomicU64::new(0)),
            fills,
        }
    }

    /// Enqueues an asynchronous fill of `layer` from `file_slot`. The caller
    /// must have set the slot's `fill_inflight` flag (and must NOT hold the
    /// slot lock — bounded-channel backpressure may block here).
    pub(crate) fn enqueue_fill(&self, layer: usize, file_slot: usize) {
        self.fills.send(TierJob::Fill {
            layer,
            file_slot,
            enqueued_ns: self.tel.now_nanos(),
        });
    }

    /// Blocks until every enqueued fill has completed (landed or failed).
    ///
    /// # Panics
    /// Re-raises a panic that ended a fill job.
    pub fn quiesce(&self) {
        if let Some(panic) = self.fills.flush() {
            resume_unwind(panic);
        }
    }

    /// Returns a consumed fill buffer to the free list.
    pub(crate) fn give_buffer(&self, buf: Vec<f32>) {
        lock(&self.free).push(buf);
    }

    /// The underlying swap store.
    pub fn nvme(&self) -> &NvmeStore {
        &self.nvme
    }

    /// Adds `ns` to the cumulative fill-wait clock (time readers spent
    /// blocked on file-tier fills).
    pub(crate) fn add_fill_wait(&self, ns: u64) {
        self.fill_wait.fetch_add(ns, Ordering::Relaxed);
    }

    /// Cumulative nanoseconds readers spent blocked on fills.
    pub fn fill_wait_nanos(&self) -> u64 {
        self.fill_wait.load(Ordering::Relaxed)
    }

    /// Counts one completed spilled update: its page-in and write-back of
    /// params + m + v (`12·n` bytes each way), done on an optimizer actor.
    pub(crate) fn count_update(&self) {
        self.f2h.add(12 * self.n as u64);
        self.h2f.add(12 * self.n as u64);
    }

    /// Telemetry handle (for spans recorded off the worker threads).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_aware_plan_spills_deepest_first_within_budget() {
        // 8 layers × 100 params × 12 B = 9600 B resident. A 5000 B budget
        // fits 4 layers; the 4 deepest spill.
        let plan = TierPlan::plan(8, 100, 2, Some(5000));
        assert_eq!(plan.spilled(), 4);
        assert_eq!(plan.resident_bytes(), 4800);
        for l in 0..4 {
            assert_eq!(plan.tier(l), Tier::Ram, "layer {l}");
        }
        for l in 4..8 {
            assert_eq!(plan.tier(l), Tier::File, "layer {l}");
        }
    }

    #[test]
    fn plan_without_budget_keeps_everything_resident() {
        let plan = TierPlan::plan(6, 64, 2, None);
        assert_eq!(plan.spilled(), 0);
        assert!(plan.tiers().iter().all(|t| *t == Tier::Ram));
    }

    #[test]
    fn zero_budget_spills_every_layer() {
        let plan = TierPlan::plan(5, 32, 2, Some(0));
        assert_eq!(plan.spilled(), 5);
        assert_eq!(plan.resident_bytes(), 0);
    }

    #[test]
    fn per_step_traffic_formulas() {
        // 6 layers, window 2: layers 4 and 5 skip the BP re-fetch.
        let plan = TierPlan::plan(6, 10, 2, Some(0));
        let s = 10 * 4;
        for l in 0..4 {
            assert_eq!(plan.f2h_bytes_per_step(l, 2), (s + s + 3 * s) as u64);
        }
        for l in 4..6 {
            assert_eq!(plan.f2h_bytes_per_step(l, 2), (s + 3 * s) as u64);
        }
        for l in 0..6 {
            assert_eq!(plan.h2f_bytes_per_step(l), (3 * s) as u64);
        }
        // Resident layers move nothing.
        let res = TierPlan::plan(6, 10, 2, None);
        assert_eq!(res.f2h_bytes_per_step(0, 2), 0);
        assert_eq!(res.h2f_bytes_per_step(0), 0);
    }

    #[test]
    fn predicted_cost_is_positive_when_disk_slower_than_ram() {
        let plan = TierPlan::plan(4, 1000, 2, Some(0));
        let bw = TierBandwidths {
            ram_bytes_per_ns: 10.0,
            file_read_bytes_per_ns: 1.0,
            file_write_bytes_per_ns: 0.5,
        };
        let cheap = plan.predicted_spill_ns_per_step(3, 2, &bw);
        let dear = plan.predicted_spill_ns_per_step(0, 2, &bw);
        assert!(cheap > 0);
        assert!(
            dear > cheap,
            "BP-refetched layer costs more: {dear} vs {cheap}"
        );
    }
}
