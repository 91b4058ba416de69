//! Tiered parameter placement and the file-backed spill tier (§III-G).
//!
//! STRONGHOLD memory-maps an NVMe swap file so secondary storage extends the
//! working-set ceiling beyond host RAM; ZeRO-Infinity generalizes the idea
//! into a GPU ↔ CPU ↔ NVMe hierarchy and 10Cache adds heterogeneous,
//! per-tensor placement from profiled cost. This module makes the third
//! tier real in the functional substrate:
//!
//! * [`Tier`] — where one layer's FP32 master parameters + Adam moments
//!   live: host RAM (the classic [`crate::optimpool::LayerStore`] slot) or a
//!   file slot on the [`crate::nvme::NvmeStore`] swap file.
//! * [`TierPlan`] — the per-layer placement decision, derived
//!   *deterministically* from a `host_capacity` byte budget and the known
//!   layer schedule. No measurement enters it, so placement is
//!   reproducible run to run (strongbench's `train-spill` reports the
//!   disk's measured rates beside it). Placement is invisible to the
//!   math either way: f32 ↔ little-endian file round trips are bit-exact,
//!   so a spilled layer trains bit-identically to a resident one.
//! * [`TierStore`] — the file side: the swap file and the meters of the
//!   traffic across it. There is no fill engine. The access pattern is
//!   fully known, and the working window already runs the layer stream's
//!   prefetcher `m + 1` layers ahead of compute, so the prefetcher reads a
//!   spilled layer straight from its file slot into the device shell it
//!   loads (`LayerStore::with_params` lends the file range): one copy per
//!   spilled fetch, and no host buffer holds a second image of the layer.
//!   The disk read hides under compute exactly like the H2D copy it is
//!   part of. The update side is not here either: an
//!   Adam update of a spilled layer pages in, steps and writes back chunk
//!   by chunk on the optimizer actor that runs it
//!   ([`crate::optimpool::LayerStore::apply_update`]). A read and an
//!   update of one layer exclude each other through its slot's flags; no
//!   lock is held across file I/O.
//!
//! A failed swap-file read is recorded on the layer's slot, wakes its
//! waiters and panics on the reading thread; the next access re-raises it,
//! and `flush` re-raises it too — a failing disk aborts the run, it never
//! leaves a reader waiting on a layer that cannot be read.
//!
//! Telemetry: `spill.f2h_bytes` / `spill.h2f_bytes` counters meter every
//! byte crossing the file boundary (zero-tolerance tested against the
//! closed-form per-step formulas below), a `spill-read` span wraps every
//! read of a layer, and an always-on clock totals the time readers spent
//! reading spilled layers off the file ([`TierStore::fill_wait_nanos`]),
//! whether or not telemetry is enabled.
//!
//! # Per-step traffic formulas
//!
//! For a spilled layer of `S` parameters in a model of `nb` blocks with
//! window `m` (f32 everywhere — the device transfer precision never touches
//! this tier):
//!
//! * file → host: `4·S` (FP fetch) `+ 4·S` if the layer is re-fetched for
//!   BP (`layer < nb − m`) `+ 12·S` (the update pages params + m + v back
//!   in);
//! * host → file: `12·S` (the update writes params + m + v back out).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
}

/// The message a failed swap-file access is re-raised with.
pub(crate) fn io_failure(
    layer: usize,
    file_slot: usize,
    what: &str,
    err: &std::io::Error,
) -> String {
    format!("spill tier I/O failed: layer {layer}, file slot {file_slot}, {what}: {err}")
}

/// The file side of a tiered [`crate::optimpool::LayerStore`]: its
/// [`NvmeStore`] swap file and the meters of the traffic across it. It
/// owns no thread and no buffer: a spilled layer is read straight into
/// its reader's memory, and updated in place by the optimizer actor that
/// steps it.
pub struct TierStore {
    nvme: Arc<NvmeStore>,
    /// Floats per component (params, m or v) — one file slot is `3 * n`.
    n: usize,
    tel: Telemetry,
    f2h: Counter,
    h2f: Counter,
    read_ns: AtomicU64,
}

impl TierStore {
    /// Meters traffic across `nvme`, whose slots hold `n` floats each of
    /// params, m and v.
    pub(crate) fn new(nvme: Arc<NvmeStore>, n: usize, tel: &Telemetry) -> Self {
        TierStore {
            nvme,
            n,
            tel: tel.clone(),
            f2h: tel.counter("spill.f2h_bytes"),
            h2f: tel.counter("spill.h2f_bytes"),
            read_ns: AtomicU64::new(0),
        }
    }

    /// The underlying swap store.
    pub fn nvme(&self) -> &NvmeStore {
        &self.nvme
    }

    /// Counts one completed read of a spilled layer's parameters (`4·n`
    /// bytes) that took `ns` nanoseconds.
    pub(crate) fn count_read(&self, ns: u64) {
        self.f2h.add(4 * self.n as u64);
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Cumulative nanoseconds readers spent reading spilled layers' parameters
    /// off the swap file.
    pub fn fill_wait_nanos(&self) -> u64 {
        self.read_ns.load(Ordering::Relaxed)
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
}
