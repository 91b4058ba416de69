//! Closed-loop adaptive window & worker autotuner (paper §III-C/§IV made
//! live).
//!
//! STRONGHOLD picks the working window `m` once, offline, from a warm-up
//! profile ([`crate::analytic::solve_window`]). The runtime, however, emits
//! everything needed to do better while training: how long the compute
//! thread stalls waiting for prefetched layers, how long gradients queue
//! behind busy D2H workers, and whether the CPU optimizer pool drains
//! within the step. This module closes the loop: at every step boundary the
//! [`AutotuneController`] reads those signals and proposes a new
//! [`Tuning`] — window size and `offload`/`compute`/`optimizer` worker
//! counts — which the backend applies *between* steps, where a resize is
//! bit-invisible (window and worker counts never enter the floating-point
//! op sequence; the PR 5/6 equivalence matrices pin that contract).
//!
//! # Decision rules
//! Per-step stall *ratios* (stall nanoseconds ÷ step nanoseconds) drive
//! each knob independently, with asymmetric grow/shrink thresholds:
//!
//! - **window** grows while compute starves on un-prefetched layers
//!   (`fetch_wait` ratio above [`AutotuneConfig::grow_ratio`]) and shrinks
//!   only when compute never waits *and* the prefetcher idles on a full
//!   window (`shell_wait` ratio high) — i.e. the window is provably
//!   oversized. Growth is additionally gated by a latency probe: after a
//!   grow commits, the controller holds every knob for
//!   [`AutotuneConfig::settle_evals`] steps and compares the step-latency
//!   EMA against the pre-grow baseline; a grow that does not pay for
//!   itself ([`AutotuneConfig::min_probe_gain`]) is reverted and the
//!   window locks, so the controller converges to the smallest window
//!   whose marginal step is still profitable instead of racing to the
//!   memory ceiling.
//! - **offload workers** grow while gradient buffers queue behind busy
//!   copy workers (`d2h_wait` ratio) and shrink when the queue is dry.
//! - **spill workers** (PR 9 file tier) grow while the compute thread
//!   waits on file→host fills (`fill_wait` ratio) and shrink when fills
//!   always land ahead of the reader; backends without spilled layers pin
//!   the knob at zero.
//! - **optimizer workers** grow while the pool still has a backlog at the
//!   step boundary and shrink toward one when it always drains in-step.
//! - **compute workers** step toward `min(cap, cores)` — a capability
//!   clamp, since per-sample fan-out has no stall signal of its own.
//!
//! # Hysteresis & convergence
//! A proposal must repeat for [`AutotuneConfig::patience`] consecutive
//! evaluations before it commits, the grow/shrink thresholds are an order
//! of magnitude apart (a band in which the controller holds), and worker
//! knobs are capped at the observed core count so the controller cannot
//! oversubscribe the box it is tuning on. On a steady-state trace (no
//! stalls, empty queues) every knob monotonically steps to its floor or
//! target and then every proposal equals the current tuning — a fixed
//! point reached in a bounded number of evaluations, property-tested in
//! `tests/tests/autotune_prop.rs`.
//!
//! The window never exceeds `m_mem_max` from the analytic plan
//! ([`AutotuneConfig::with_plan`]) — the controller refines the paper's
//! offline solution, it does not get to violate device memory.
//!
//! # Calibration loop
//! The same measured signals validate the offline models:
//! [`calibrate_host`] distills a telemetry snapshot into a
//! [`HostCalibration`] (measured H2D/D2H bandwidths, copy/compute overlap,
//! per-step residual) that `sim::calibration` uses to predict step times
//! within a tested error bound, [`recalibrate_profile`] rewrites a
//! [`LayerProfile`]'s transfer terms from those measured bandwidths so
//! [`crate::analytic::solve_window`] solves on observed numbers, and
//! [`compare_phases`] reports predicted-vs-measured per-phase time ratios.

use crate::analytic::WindowPlan;
use crate::host::device::HostDevice;
use crate::profile::LayerProfile;
use crate::telemetry::{Counter, Gauge, Telemetry};
use stronghold_sim::calibration::HostCalibration;
use stronghold_sim::SimTime;

/// Cumulative stall/backlog signals a backend exposes to the controller.
///
/// The nanosecond fields are monotonically increasing totals measured with
/// always-on wall clocks (they must work with telemetry disabled, because
/// benches time with telemetry off); the controller differences successive
/// samples itself. `optim_backlog` is an instantaneous queue depth sampled
/// at the step boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallSignals {
    /// Total time the compute thread waited for a prefetched layer (the
    /// pipeline's H2D exposure — the paper's window-too-small stall).
    pub fetch_wait_ns: u64,
    /// Total time the prefetcher waited for a free window shell (prefetch
    /// running ahead of compute — evidence the window is large enough).
    pub shell_wait_ns: u64,
    /// Total time gradient buffers waited in the offload queue before a
    /// D2H worker picked them up.
    pub d2h_wait_ns: u64,
    /// Total time the compute thread waited for a file→host fill of a
    /// spilled layer (the PR 9 tier's analogue of `fetch_wait_ns`, one
    /// level down the hierarchy). Zero on backends without a spill tier.
    pub fill_wait_ns: u64,
    /// Optimizer-pool updates still pending at the step boundary.
    pub optim_backlog: u64,
}

/// Field-wise sum (the data-parallel controller observes replica-summed
/// signals). Both sides are spelled out field by field with no `..`, so a
/// new field does not compile until it is summed too.
impl std::ops::Add for StallSignals {
    type Output = StallSignals;
    fn add(self, rhs: StallSignals) -> StallSignals {
        let StallSignals {
            fetch_wait_ns,
            shell_wait_ns,
            d2h_wait_ns,
            fill_wait_ns,
            optim_backlog,
        } = rhs;
        StallSignals {
            fetch_wait_ns: self.fetch_wait_ns + fetch_wait_ns,
            shell_wait_ns: self.shell_wait_ns + shell_wait_ns,
            d2h_wait_ns: self.d2h_wait_ns + d2h_wait_ns,
            fill_wait_ns: self.fill_wait_ns + fill_wait_ns,
            optim_backlog: self.optim_backlog + optim_backlog,
        }
    }
}

/// One live-tunable setting of the runtime: the working window plus the
/// three worker-pool sizes. Knobs a backend does not expose are carried as
/// zero and pinned by that backend's [`TuneLimits`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tuning {
    /// Working window `m` (layers resident on the device at once).
    pub window: usize,
    /// Dedicated gradient-D2H worker threads.
    pub offload_workers: usize,
    /// Per-sample compute fan-out threads.
    pub compute_workers: usize,
    /// CPU optimizer pool actor threads.
    pub optimizer_workers: usize,
    /// File-tier spill/fill worker threads (0 when no layer is spilled).
    pub spill_workers: usize,
}

/// Hard `(min, max)` bounds per knob, declared by the backend. The
/// controller intersects them with the [`AutotuneConfig`] caps and the
/// observed core count; a knob with `min == max` is pinned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneLimits {
    /// Working-window bounds (for the windowed backend, `1..=layers`).
    pub window: (usize, usize),
    /// Offload-worker bounds.
    pub offload_workers: (usize, usize),
    /// Compute-worker bounds.
    pub compute_workers: (usize, usize),
    /// Optimizer-worker bounds.
    pub optimizer_workers: (usize, usize),
    /// Spill-worker bounds (`(0, 0)` pins the knob on backends without a
    /// file tier).
    pub spill_workers: (usize, usize),
}

/// Controller configuration. `Default` is a sane starting point; derive
/// `m_max` from the analytic plan with [`AutotuneConfig::with_plan`].
#[derive(Clone, Copy, Debug)]
pub struct AutotuneConfig {
    /// Hard window ceiling, normally `m_mem_max` from the analytic plan.
    pub m_max: usize,
    /// Cap on offload (gradient D2H) workers.
    pub max_offload_workers: usize,
    /// Cap on per-sample compute workers.
    pub max_compute_workers: usize,
    /// Cap on optimizer-pool workers.
    pub max_optimizer_workers: usize,
    /// Cap on file-tier spill/fill workers.
    pub max_spill_workers: usize,
    /// Stall ratio above which a knob grows.
    pub grow_ratio: f64,
    /// Stall ratio below which a knob shrinks (must sit well under
    /// `grow_ratio`; the gap is the hold band of the hysteresis).
    pub shrink_ratio: f64,
    /// Consecutive identical proposals required before a commit.
    pub patience: u32,
    /// Steps the controller holds after a window grow before judging it.
    pub settle_evals: u32,
    /// Minimum fractional step-latency improvement a window grow must show
    /// during settling, or it is reverted and the window locks.
    pub min_probe_gain: f64,
    /// Observed core count; worker knobs never grow past it.
    pub cores: usize,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            m_max: usize::MAX,
            max_offload_workers: 4,
            max_compute_workers: 4,
            max_optimizer_workers: 8,
            max_spill_workers: 4,
            grow_ratio: 0.05,
            shrink_ratio: 0.005,
            patience: 2,
            settle_evals: 3,
            min_probe_gain: 0.005,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl AutotuneConfig {
    /// Adopts the analytic plan's memory ceiling as the window bound —
    /// the controller refines the offline solution within device memory.
    pub fn with_plan(mut self, plan: &WindowPlan) -> Self {
        self.m_max = plan.m_mem_max.max(1);
        self
    }
}

/// Smoothing factor of the step-latency EMA used by the window probe.
const EMA_ALPHA: f64 = 0.3;

/// State of the window-grow latency probe.
#[derive(Clone, Copy, Debug)]
enum Probe {
    /// No grow under evaluation.
    Idle,
    /// A grow just committed; judge it after `evals_left` more steps.
    Settling { baseline_ns: f64, evals_left: u32 },
}

/// The step-boundary controller. Construct once per engine, feed it the
/// measured step time and cumulative [`StallSignals`] after every step;
/// it returns `Some(Tuning)` when the backend should resize.
///
/// Evaluation is allocation-free (gauges are pre-registered, all state is
/// `Copy`), so a converged controller adds nothing to the zero-allocation
/// steady-state step — pinned in `tests/tests/alloc_regression.rs`.
#[derive(Debug)]
pub struct AutotuneController {
    cfg: AutotuneConfig,
    bounds: TuneLimits,
    current: Tuning,
    pending: Option<Tuning>,
    streak: u32,
    prev: StallSignals,
    ema_ns: f64,
    probe: Probe,
    locked: bool,
    evals: u64,
    resizes: u64,
    g_window: Gauge,
    g_offload: Gauge,
    g_compute: Gauge,
    g_optim: Gauge,
    g_spill: Gauge,
    c_evals: Counter,
    c_resizes: Counter,
}

fn step_toward(cur: usize, target: usize) -> usize {
    match cur.cmp(&target) {
        std::cmp::Ordering::Less => cur + 1,
        std::cmp::Ordering::Greater => cur - 1,
        std::cmp::Ordering::Equal => cur,
    }
}

fn clamp(v: usize, (lo, hi): (usize, usize)) -> usize {
    v.clamp(lo, hi.max(lo))
}

impl AutotuneController {
    /// Builds a controller over a backend's declared `limits`, starting
    /// from the backend's `initial` tuning. Gauges
    /// `autotune.{window,offload_workers,compute_workers,optimizer_workers}`
    /// and counters `autotune.{evals,resizes}` are registered on `tel`.
    pub fn new(cfg: AutotuneConfig, limits: TuneLimits, initial: Tuning, tel: &Telemetry) -> Self {
        let cores = cfg.cores.max(1);
        let bounds = TuneLimits {
            window: (limits.window.0.max(1), limits.window.1.min(cfg.m_max)),
            offload_workers: (
                limits.offload_workers.0,
                limits
                    .offload_workers
                    .1
                    .min(cfg.max_offload_workers)
                    .min(cores),
            ),
            compute_workers: (
                limits.compute_workers.0,
                limits
                    .compute_workers
                    .1
                    .min(cfg.max_compute_workers)
                    .min(cores),
            ),
            optimizer_workers: (
                limits.optimizer_workers.0,
                limits
                    .optimizer_workers
                    .1
                    .min(cfg.max_optimizer_workers)
                    .min(cores),
            ),
            spill_workers: (
                limits.spill_workers.0,
                limits.spill_workers.1.min(cfg.max_spill_workers).min(cores),
            ),
        };
        let ctrl = AutotuneController {
            cfg,
            bounds,
            current: initial,
            pending: None,
            streak: 0,
            prev: StallSignals::default(),
            ema_ns: 0.0,
            probe: Probe::Idle,
            locked: false,
            evals: 0,
            resizes: 0,
            g_window: tel.gauge("autotune.window"),
            g_offload: tel.gauge("autotune.offload_workers"),
            g_compute: tel.gauge("autotune.compute_workers"),
            g_optim: tel.gauge("autotune.optimizer_workers"),
            g_spill: tel.gauge("autotune.spill_workers"),
            c_evals: tel.counter("autotune.evals"),
            c_resizes: tel.counter("autotune.resizes"),
        };
        ctrl.publish();
        ctrl
    }

    /// Feeds one step's measured wall time and the backend's cumulative
    /// signals. Returns the new tuning when a resize should be applied.
    pub fn observe(&mut self, step_ns: u64, signals: StallSignals) -> Option<Tuning> {
        self.evals += 1;
        self.c_evals.incr();
        let delta = StallSignals {
            fetch_wait_ns: signals
                .fetch_wait_ns
                .saturating_sub(self.prev.fetch_wait_ns),
            shell_wait_ns: signals
                .shell_wait_ns
                .saturating_sub(self.prev.shell_wait_ns),
            d2h_wait_ns: signals.d2h_wait_ns.saturating_sub(self.prev.d2h_wait_ns),
            fill_wait_ns: signals.fill_wait_ns.saturating_sub(self.prev.fill_wait_ns),
            optim_backlog: signals.optim_backlog,
        };
        self.prev = signals;
        self.ema_ns = if self.ema_ns == 0.0 {
            step_ns as f64
        } else {
            (1.0 - EMA_ALPHA) * self.ema_ns + EMA_ALPHA * step_ns as f64
        };

        // A window grow under evaluation freezes every knob so the latency
        // EMA isolates the change; an unprofitable grow reverts and locks.
        if let Probe::Settling {
            baseline_ns,
            evals_left,
        } = &mut self.probe
        {
            *evals_left -= 1;
            if *evals_left > 0 {
                self.publish();
                return None;
            }
            let improved = self.ema_ns < *baseline_ns * (1.0 - self.cfg.min_probe_gain);
            self.probe = Probe::Idle;
            if !improved {
                self.locked = true;
                let mut t = self.current;
                t.window = clamp(t.window.saturating_sub(1), self.bounds.window);
                if t != self.current {
                    return Some(self.commit(t));
                }
            }
            self.publish();
            return None;
        }

        let proposal = self.propose(step_ns, delta);
        if proposal == self.current {
            self.pending = None;
            self.streak = 0;
            self.publish();
            return None;
        }
        match self.pending {
            Some(p) if p == proposal => self.streak += 1,
            _ => {
                self.pending = Some(proposal);
                self.streak = 1;
            }
        }
        if self.streak < self.cfg.patience.max(1) {
            self.publish();
            return None;
        }
        let grew_window = proposal.window > self.current.window;
        let committed = self.commit(proposal);
        if grew_window {
            self.probe = Probe::Settling {
                baseline_ns: self.ema_ns,
                evals_left: self.cfg.settle_evals.max(1),
            };
        }
        Some(committed)
    }

    fn propose(&self, step_ns: u64, d: StallSignals) -> Tuning {
        let step = step_ns.max(1) as f64;
        let fetch_r = d.fetch_wait_ns as f64 / step;
        let shell_r = d.shell_wait_ns as f64 / step;
        let d2h_r = d.d2h_wait_ns as f64 / step;
        let fill_r = d.fill_wait_ns as f64 / step;
        let mut t = self.current;

        if !self.locked && fetch_r > self.cfg.grow_ratio && t.window < self.bounds.window.1 {
            t.window += 1;
        } else if fetch_r < self.cfg.shrink_ratio
            && shell_r > self.cfg.grow_ratio
            && t.window > self.bounds.window.0
        {
            t.window -= 1;
        }

        if d2h_r > self.cfg.grow_ratio && t.offload_workers < self.bounds.offload_workers.1 {
            t.offload_workers += 1;
        } else if d2h_r < self.cfg.shrink_ratio && t.offload_workers > self.bounds.offload_workers.0
        {
            t.offload_workers -= 1;
        }

        if fill_r > self.cfg.grow_ratio && t.spill_workers < self.bounds.spill_workers.1 {
            t.spill_workers += 1;
        } else if fill_r < self.cfg.shrink_ratio && t.spill_workers > self.bounds.spill_workers.0 {
            t.spill_workers -= 1;
        }

        if d.optim_backlog > 0 && t.optimizer_workers < self.bounds.optimizer_workers.1 {
            t.optimizer_workers += 1;
        } else if d.optim_backlog == 0 && t.optimizer_workers > self.bounds.optimizer_workers.0 {
            t.optimizer_workers -= 1;
        }

        let compute_target = clamp(self.cfg.cores.max(1), self.bounds.compute_workers);
        t.compute_workers = step_toward(t.compute_workers, compute_target);

        Tuning {
            window: clamp(t.window, self.bounds.window),
            offload_workers: clamp(t.offload_workers, self.bounds.offload_workers),
            compute_workers: clamp(t.compute_workers, self.bounds.compute_workers),
            optimizer_workers: clamp(t.optimizer_workers, self.bounds.optimizer_workers),
            spill_workers: clamp(t.spill_workers, self.bounds.spill_workers),
        }
    }

    fn commit(&mut self, t: Tuning) -> Tuning {
        self.current = t;
        self.pending = None;
        self.streak = 0;
        self.resizes += 1;
        self.c_resizes.incr();
        self.publish();
        t
    }

    fn publish(&self) {
        self.g_window.set(self.current.window as i64);
        self.g_offload.set(self.current.offload_workers as i64);
        self.g_compute.set(self.current.compute_workers as i64);
        self.g_optim.set(self.current.optimizer_workers as i64);
        self.g_spill.set(self.current.spill_workers as i64);
    }

    /// The tuning currently in force.
    pub fn current(&self) -> Tuning {
        self.current
    }

    /// Effective per-knob bounds (backend limits ∩ config caps ∩ cores).
    pub fn bounds(&self) -> TuneLimits {
        self.bounds
    }

    /// Step-boundary evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evals
    }

    /// Resizes committed (including probe reverts).
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// True once an unprofitable window grow was reverted; the window no
    /// longer grows for the rest of the run.
    pub fn window_locked(&self) -> bool {
        self.locked
    }

    /// Smoothed step latency in nanoseconds (0 before the first step).
    pub fn ema_step_ns(&self) -> f64 {
        self.ema_ns
    }
}

/// Distills a telemetry snapshot plus device traffic counters into a
/// [`HostCalibration`]: measured per-step compute busy time, H2D/D2H
/// bandwidths, copy/compute overlap, and the residual host work the phase
/// model does not name. `steps` is the number of training steps the
/// snapshot covers and `wall_ns` their total wall time.
///
/// Requires an *enabled* telemetry (span tracks are the data source).
pub fn calibrate_host(
    tel: &Telemetry,
    device: &HostDevice,
    steps: u64,
    wall_ns: u64,
) -> HostCalibration {
    let (_copy, compute_ns, overlap_ns) = tel.copy_compute_overlap();
    HostCalibration {
        steps: steps.max(1),
        wall_ns,
        compute_ns,
        h2d_bytes: device.h2d_bytes(),
        h2d_busy_ns: tel.track_busy_nanos("h2d-copy"),
        d2h_bytes: device.d2h_bytes(),
        d2h_busy_ns: tel.track_busy_nanos("d2h-copy"),
        overlap_ns,
        spill_read_bytes: tel.counter("spill.f2h_bytes").get(),
        spill_read_busy_ns: tel.track_busy_nanos("spill-read"),
        spill_write_bytes: tel.counter("spill.h2f_bytes").get(),
        spill_write_busy_ns: tel.track_busy_nanos("spill-write"),
    }
}

/// Rewrites a profile's transfer terms from measured bandwidths: `t_c2g`
/// becomes `s_fp / bw_h2d` and `t_g2c` becomes `s_bp / bw_d2h`, so
/// [`crate::analytic::solve_window`] solves the paper's constraint system
/// with this box's observed link speeds instead of profiled one-shot
/// timings. Compute terms are left untouched (they were measured directly).
pub fn recalibrate_profile(profile: &mut LayerProfile, cal: &HostCalibration) {
    let bw_h2d = cal.h2d_bandwidth();
    let bw_d2h = cal.d2h_bandwidth();
    for i in 0..profile.len() {
        if bw_h2d > 0.0 {
            profile.t_c2g[i] = SimTime((profile.s_fp[i] as f64 / bw_h2d).round() as u64);
        }
        if bw_d2h > 0.0 {
            profile.t_g2c[i] = SimTime((profile.s_bp[i] as f64 / bw_d2h).round() as u64);
        }
    }
}

/// Predicted-vs-measured per-phase times for one training configuration:
/// the validation half of the calibration loop.
#[derive(Clone, Copy, Debug)]
pub struct PhaseComparison {
    /// Per-step compute time the profile predicts (Σ t_fp + t_bp).
    pub predicted_compute_ns: u64,
    /// Per-step compute busy time measured on the host ("compute" track).
    pub measured_compute_ns: u64,
    /// Per-step H2D time the profile predicts: every layer fetched once
    /// plus the `n - m` FP→BP refetches the window forces.
    pub predicted_h2d_ns: u64,
    /// Per-step H2D busy time measured on the host ("h2d-copy" track).
    pub measured_h2d_ns: u64,
}

impl PhaseComparison {
    /// measured ÷ predicted compute ratio (1.0 = the model is exact).
    pub fn compute_ratio(&self) -> f64 {
        self.measured_compute_ns as f64 / self.predicted_compute_ns.max(1) as f64
    }

    /// measured ÷ predicted H2D ratio.
    pub fn h2d_ratio(&self) -> f64 {
        self.measured_h2d_ns as f64 / self.predicted_h2d_ns.max(1) as f64
    }
}

/// Compares the analytic model's per-phase predictions for window `m`
/// against a measured [`HostCalibration`].
pub fn compare_phases(profile: &LayerProfile, m: usize, cal: &HostCalibration) -> PhaseComparison {
    let n = profile.len();
    let fetched_once: u64 = profile.t_c2g.iter().map(|t| t.as_nanos()).sum();
    let refetched: u64 = profile
        .t_c2g
        .iter()
        .take(n.saturating_sub(m))
        .map(|t| t.as_nanos())
        .sum();
    let compute: u64 = profile
        .t_fp
        .iter()
        .zip(&profile.t_bp)
        .map(|(f, b)| f.as_nanos() + b.as_nanos())
        .sum();
    let steps = cal.steps.max(1);
    PhaseComparison {
        predicted_compute_ns: compute,
        measured_compute_ns: cal.compute_ns / steps,
        predicted_h2d_ns: fetched_once + refetched,
        measured_h2d_ns: cal.h2d_busy_ns / steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> TuneLimits {
        TuneLimits {
            window: (1, 8),
            offload_workers: (1, 8),
            compute_workers: (1, 8),
            optimizer_workers: (1, 8),
            spill_workers: (1, 8),
        }
    }

    fn cfg() -> AutotuneConfig {
        AutotuneConfig {
            m_max: 6,
            cores: 4,
            ..AutotuneConfig::default()
        }
    }

    fn start() -> Tuning {
        Tuning {
            window: 2,
            offload_workers: 1,
            compute_workers: 1,
            optimizer_workers: 1,
            spill_workers: 1,
        }
    }

    /// Cumulative-signal driver: feeds per-step deltas as running totals.
    struct Trace {
        acc: StallSignals,
    }

    impl Trace {
        fn new() -> Self {
            Trace {
                acc: StallSignals::default(),
            }
        }

        fn step(
            &mut self,
            ctrl: &mut AutotuneController,
            step_ns: u64,
            d: StallSignals,
        ) -> Option<Tuning> {
            self.acc.fetch_wait_ns += d.fetch_wait_ns;
            self.acc.shell_wait_ns += d.shell_wait_ns;
            self.acc.d2h_wait_ns += d.d2h_wait_ns;
            self.acc.fill_wait_ns += d.fill_wait_ns;
            self.acc.optim_backlog = d.optim_backlog;
            ctrl.observe(step_ns, self.acc)
        }
    }

    #[test]
    fn steady_trace_is_fixed_point_for_window() {
        let tel = Telemetry::disabled();
        let mut ctrl = AutotuneController::new(cfg(), limits(), start(), &tel);
        let mut trace = Trace::new();
        // All-zero signals: window holds, workers drain to their floors /
        // targets, then every evaluation proposes the current tuning.
        let mut last_change = 0;
        for i in 1..=64 {
            if trace
                .step(&mut ctrl, 1_000_000, StallSignals::default())
                .is_some()
            {
                last_change = i;
            }
        }
        let settled = ctrl.current();
        assert_eq!(settled.window, 2, "no stall evidence: window must hold");
        assert_eq!(settled.offload_workers, 1);
        assert_eq!(settled.optimizer_workers, 1);
        assert_eq!(settled.compute_workers, 4, "stepped to min(cap, cores)");
        assert!(
            last_change <= 3 * 8 * 2,
            "fixed point reached in bounded evals, last change at {last_change}"
        );
    }

    #[test]
    fn fetch_stalls_grow_window_until_probe_locks() {
        let tel = Telemetry::enabled();
        let mut ctrl = AutotuneController::new(cfg(), limits(), start(), &tel);
        let mut trace = Trace::new();
        let stall = StallSignals {
            fetch_wait_ns: 300_000,
            ..StallSignals::default()
        };
        // Constant latency: grows never pay off, so the first grow must be
        // probed, reverted, and the window locked at its starting size.
        for _ in 0..40 {
            trace.step(&mut ctrl, 1_000_000, stall);
        }
        assert!(ctrl.window_locked(), "unprofitable grow must lock");
        assert_eq!(ctrl.current().window, 2, "revert restores the old window");
        assert!(ctrl.resizes() >= 2, "one grow + one revert");
        assert_eq!(tel.gauge("autotune.window").get(), 2);
        assert_eq!(tel.counter("autotune.evals").get(), 40);
    }

    #[test]
    fn profitable_grows_keep_growing_to_the_ceiling() {
        let tel = Telemetry::disabled();
        let mut ctrl = AutotuneController::new(cfg(), limits(), start(), &tel);
        let mut trace = Trace::new();
        let stall = StallSignals {
            fetch_wait_ns: 300_000,
            ..StallSignals::default()
        };
        // Latency improves 20% after every grow: the probe passes and the
        // window climbs to the m_max ceiling (6 < backend max 8).
        let mut step_ns = 4_000_000u64;
        for _ in 0..200 {
            let before = ctrl.current().window;
            trace.step(&mut ctrl, step_ns, stall);
            if ctrl.current().window > before {
                step_ns = (step_ns as f64 * 0.8) as u64;
            }
        }
        assert_eq!(ctrl.current().window, 6, "stops at m_max, not backend max");
        assert!(!ctrl.window_locked());
    }

    #[test]
    fn d2h_queue_and_backlog_grow_their_pools() {
        let tel = Telemetry::disabled();
        let mut ctrl = AutotuneController::new(cfg(), limits(), start(), &tel);
        let mut trace = Trace::new();
        let stall = StallSignals {
            d2h_wait_ns: 200_000,
            optim_backlog: 3,
            ..StallSignals::default()
        };
        for _ in 0..32 {
            trace.step(&mut ctrl, 1_000_000, stall);
        }
        let t = ctrl.current();
        assert_eq!(t.offload_workers, 4, "capped at cores");
        assert_eq!(t.optimizer_workers, 4, "capped at cores");
        assert_eq!(t.window, 2, "no fetch stalls: window untouched");
    }

    #[test]
    fn fill_waits_grow_spill_workers_and_dry_fills_shrink_them() {
        let tel = Telemetry::disabled();
        let mut ctrl = AutotuneController::new(cfg(), limits(), start(), &tel);
        let mut trace = Trace::new();
        let stall = StallSignals {
            fill_wait_ns: 200_000,
            ..StallSignals::default()
        };
        for _ in 0..32 {
            trace.step(&mut ctrl, 1_000_000, stall);
        }
        let grown = ctrl.current();
        assert_eq!(grown.spill_workers, 4, "fill waits grow to min(cap, cores)");
        assert_eq!(grown.window, 2, "no fetch stalls: window untouched");
        // Fills now always land ahead of the reader: drain back to the floor.
        for _ in 0..32 {
            trace.step(&mut ctrl, 1_000_000, StallSignals::default());
        }
        assert_eq!(ctrl.current().spill_workers, 1, "dry fills shrink to floor");
    }

    #[test]
    fn pinned_spill_knob_never_moves() {
        let tel = Telemetry::disabled();
        let mut pinned = limits();
        pinned.spill_workers = (0, 0);
        let mut initial = start();
        initial.spill_workers = 0;
        let mut ctrl = AutotuneController::new(cfg(), pinned, initial, &tel);
        let mut trace = Trace::new();
        let stall = StallSignals {
            fill_wait_ns: 500_000,
            ..StallSignals::default()
        };
        for _ in 0..16 {
            trace.step(&mut ctrl, 1_000_000, stall);
        }
        assert_eq!(
            ctrl.current().spill_workers,
            0,
            "backends without a file tier pin spill workers at zero"
        );
    }

    #[test]
    fn out_of_bounds_start_is_pulled_into_bounds() {
        let tel = Telemetry::disabled();
        let over = Tuning {
            window: 7,
            offload_workers: 6,
            compute_workers: 6,
            optimizer_workers: 6,
            spill_workers: 6,
        };
        let mut ctrl = AutotuneController::new(
            AutotuneConfig {
                m_max: 3,
                cores: 1,
                ..AutotuneConfig::default()
            },
            limits(),
            over,
            &tel,
        );
        let mut trace = Trace::new();
        for _ in 0..32 {
            let t = trace.step(&mut ctrl, 1_000_000, StallSignals::default());
            if let Some(t) = t {
                assert!(t.window <= 3 && t.window >= 1);
                assert!(t.offload_workers <= 1);
                assert!(t.compute_workers <= 1);
                assert!(t.optimizer_workers <= 1);
            }
        }
        let t = ctrl.current();
        assert_eq!(
            (
                t.window,
                t.offload_workers,
                t.compute_workers,
                t.optimizer_workers
            ),
            (3, 1, 1, 1)
        );
    }

    #[test]
    fn with_plan_adopts_memory_ceiling() {
        let plan = WindowPlan {
            m: 2,
            hard_feasible: true,
            soft_satisfied: true,
            cpu_update_hidden: true,
            async_overhead_ok: true,
            m_mem_max: 5,
        };
        let cfg = AutotuneConfig::default().with_plan(&plan);
        assert_eq!(cfg.m_max, 5);
    }

    #[test]
    fn phase_comparison_ratios() {
        let profile = LayerProfile {
            t_fp: vec![SimTime(100); 4],
            t_bp: vec![SimTime(200); 4],
            t_c2g: vec![SimTime(50); 4],
            t_g2c: vec![SimTime(50); 4],
            s_fp: vec![1000; 4],
            s_bp: vec![2000; 4],
            t_opt_gpu: vec![SimTime(10); 4],
            t_opt_cpu: vec![SimTime(40); 4],
            t_async: SimTime(5),
        };
        let cal = HostCalibration {
            steps: 2,
            wall_ns: 4000,
            compute_ns: 2400, // 1200/step = predicted exactly
            h2d_bytes: 16_000,
            h2d_busy_ns: 600, // 300/step vs predicted 200 + 2 refetches·50 = 300
            d2h_bytes: 8_000,
            d2h_busy_ns: 400,
            overlap_ns: 100,
            ..HostCalibration::default()
        };
        let cmp = compare_phases(&profile, 2, &cal);
        assert_eq!(cmp.predicted_compute_ns, 1200);
        assert_eq!(cmp.predicted_h2d_ns, 300);
        assert!((cmp.compute_ratio() - 1.0).abs() < 1e-9);
        assert!((cmp.h2d_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recalibrate_rewrites_transfer_terms_from_bandwidth() {
        let mut profile = LayerProfile {
            t_fp: vec![SimTime(100); 2],
            t_bp: vec![SimTime(200); 2],
            t_c2g: vec![SimTime(999); 2],
            t_g2c: vec![SimTime(999); 2],
            s_fp: vec![4000; 2],
            s_bp: vec![8000; 2],
            t_opt_gpu: vec![SimTime(10); 2],
            t_opt_cpu: vec![SimTime(40); 2],
            t_async: SimTime(5),
        };
        let cal = HostCalibration {
            steps: 1,
            wall_ns: 10_000,
            compute_ns: 5_000,
            h2d_bytes: 8_000,
            h2d_busy_ns: 4_000, // 2 bytes/ns
            d2h_bytes: 16_000,
            d2h_busy_ns: 4_000, // 4 bytes/ns
            overlap_ns: 0,
            ..HostCalibration::default()
        };
        recalibrate_profile(&mut profile, &cal);
        assert_eq!(profile.t_c2g[0], SimTime(2000), "4000 B at 2 B/ns");
        assert_eq!(profile.t_g2c[0], SimTime(2000), "8000 B at 4 B/ns");
        assert_eq!(profile.t_fp[0], SimTime(100), "compute terms untouched");
    }
}
