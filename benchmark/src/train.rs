//! The three training workloads: `HostOffloadTrainer` driven step by step
//! from one thread, checked against `HostResidentTrainer`.

use std::time::{Duration, Instant};

use stronghold_core::adam::AdamParams;
use stronghold_core::host::{HostOffloadTrainer, HostResidentTrainer};
use stronghold_core::telemetry::Telemetry;
use stronghold_tensor::matmul::stats as gemm_stats;

use crate::inputs::{hash_batches, train_batches, Batch, TrainSpec, CHECK_STEPS, WARMUP_STEPS};
use crate::{ms, peak_rss_mb, probes, Observation, Outcome};

/// Traced steps are capped: the span buffer grows without bound.
const MAX_TRACED_STEPS: usize = 10;

/// A trainer after set-up: built and run through the warm-up steps.
struct Ready {
    trainer: HostOffloadTrainer,
    batches: Vec<Batch>,
    /// Losses of every step so far, warm-up included.
    losses: Vec<f32>,
}

impl Ready {
    fn new(spec: &TrainSpec, seed: u64, tel: Telemetry) -> Ready {
        let batches = train_batches(spec, seed);
        let trainer = HostOffloadTrainer::with_telemetry(spec.model, seed, spec.hocfg(), tel);
        let mut r = Ready {
            trainer,
            batches,
            losses: Vec::new(),
        };
        for _ in 0..WARMUP_STEPS {
            r.step();
        }
        r
    }

    /// One training step on the next batch of the cycle; returns its wall
    /// time.
    fn step(&mut self) -> Duration {
        let batch = &self.batches[self.losses.len() % self.batches.len()];
        let t = Instant::now();
        let loss = self.trainer.train_step(batch);
        let dt = t.elapsed();
        self.losses.push(loss);
        dt
    }

    /// Steps until `window` has passed (at least one), then waits for the
    /// optimizer and spill queues to drain. Returns per-step times and the
    /// wall time including the drain.
    fn run_for(&mut self, window: Duration) -> (Vec<f64>, Duration) {
        let start = Instant::now();
        let mut step_ms = Vec::new();
        while step_ms.is_empty() || start.elapsed() < window {
            step_ms.push(ms(self.step()));
        }
        self.trainer.flush();
        (step_ms, start.elapsed())
    }
}

/// The resident reference over the check steps: per-step losses, block 0's
/// final parameters, and the step times.
fn resident_reference(
    spec: &TrainSpec,
    seed: u64,
    batches: &[Batch],
) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
    let mut reference = HostResidentTrainer::new(spec.model, seed, AdamParams::default());
    let mut step_ms = Vec::new();
    let losses = (0..CHECK_STEPS)
        .map(|i| {
            let t = Instant::now();
            let loss = reference.train_step(&batches[i % batches.len()]);
            step_ms.push(ms(t.elapsed()));
            loss
        })
        .collect();
    (losses, reference.block_params(0), step_ms)
}

/// One untraced timing run: set-up from process start `t0`, then steps for
/// `seconds`. A non-finite loss fails its step.
pub fn measure(
    spec: &TrainSpec,
    seed: u64,
    seconds: f64,
    t0: Instant,
    out: &mut Outcome,
) -> Observation {
    let mut run = Ready::new(spec, seed, Telemetry::disabled());
    let setup_s = t0.elapsed().as_secs_f64();
    let (step_ms, wall) = run.run_for(Duration::from_secs_f64(seconds));
    out.attempted += run.losses.len() as u64;
    out.failed += run.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    Observation {
        setup_s,
        tokens: step_ms.len() * spec.tokens_per_step(),
        step_ms,
        wall_s: wall.as_secs_f64(),
        peak_device_bytes: run.trainer.device().peak(),
        peak_rss_mb: peak_rss_mb(),
        ..Observation::default()
    }
}

/// The output checks, on a run of their own so they perturb no timing: the
/// first [`CHECK_STEPS`] steps against `HostResidentTrainer` on the same
/// batches. The resident trainer goes first, as the only model its process
/// has held, so its step times are the plain baseline's.
pub fn check(spec: &TrainSpec, seed: u64, out: &mut Outcome) {
    let batches = train_batches(spec, seed);
    let (ref_losses, ref_block0, resident_step_ms) = resident_reference(spec, seed, &batches);
    out.resident_step_ms = resident_step_ms;

    let mut run = Ready::new(spec, seed, Telemetry::disabled());
    while run.losses.len() < CHECK_STEPS {
        run.step();
    }
    out.note("inputs_hash", hash_batches(&run.batches));
    out.note(
        "loss_bits",
        run.losses
            .iter()
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for (i, loss) in run.losses.iter().enumerate() {
        out.check(
            loss.is_finite(),
            format!("step {i}: loss {loss} is not finite"),
        );
    }
    if spec.precision.is_half() {
        // DESIGN.md "Mixed precision": after S unclipped steps every
        // parameter satisfies |θ_half − θ_f32| ≤ 2·S·lr.
        let block0 = run.trainer.block_params(0);
        let bound = 2.0 * CHECK_STEPS as f32 * AdamParams::default().lr;
        let diffs = || block0.iter().zip(&ref_block0).map(|(a, b)| (a - b).abs());
        out.check(
            diffs().all(|d| d <= bound),
            format!(
                "block 0 half-precision divergence {} exceeds 2·S·lr = {bound}",
                diffs().fold(0f32, f32::max)
            ),
        );
    } else {
        // F32 offloading is exact: losses equal the resident trainer's bit
        // for bit.
        for (i, (got, want)) in run.losses.iter().zip(&ref_losses).enumerate() {
            out.check(
                got.to_bits() == want.to_bits(),
                format!("step {i}: offloaded loss {got} != resident loss {want}"),
            );
        }
    }
}

/// The traced run and the isolated probes: every per-layer metric but those
/// that need an untraced or a resident run in a process of its own (the
/// parent adds them from a `measure` and a `check` process).
pub fn trace(spec: &TrainSpec, seed: u64, seconds: f64, out: &mut Outcome) {
    let window = Duration::from_secs_f64(seconds / 3.0);

    // Traced: telemetry on from construction, so counters cover every step
    // including warm-up and "per step" divides by all of them.
    let tel = Telemetry::enabled();
    gemm_stats::reset();
    let mut run = Ready::new(spec, seed, tel.clone());
    let start = Instant::now();
    let mut traced_ms = Vec::new();
    while run.losses.len() < MAX_TRACED_STEPS && (traced_ms.is_empty() || start.elapsed() < window)
    {
        traced_ms.push(ms(run.step()));
    }
    run.trainer.flush();
    let steps = run.losses.len();
    out.record_gemm_stats(steps);
    let per_step = |total: u64| total as f64 / steps as f64;
    let ms_per_step = |ns: u64| ns as f64 / 1e6 / steps as f64;

    let m = &mut out.per_layer;
    let (copy_busy, _, overlap) = tel.copy_compute_overlap();
    m.set(
        "offloaded.compute_busy_ms_per_step",
        ms_per_step(tel.track_busy_nanos("compute")),
        steps,
    );
    m.set(
        "offloaded.h2d_busy_ms_per_step",
        ms_per_step(tel.track_busy_nanos("h2d-copy")),
        steps,
    );
    m.set(
        "offloaded.d2h_busy_ms_per_step",
        ms_per_step(tel.track_busy_nanos("d2h-copy")),
        steps,
    );
    m.set(
        "offloaded.copy_compute_overlap_share",
        overlap as f64 / copy_busy.max(1) as f64,
        steps,
    );
    m.set(
        "offloaded.shell_wait_ms_per_step",
        ms_per_step(tel.histogram("prefetch.shell_wait_ns").sum()),
        steps,
    );
    m.set(
        "offloaded.d2h_queue_wait_ms_per_step",
        ms_per_step(tel.histogram("d2h.queue_wait_ns").sum()),
        steps,
    );
    m.set(
        "offloaded.prefetch_issued_per_step",
        per_step(tel.counter("prefetch.issued").get()),
        steps,
    );
    m.set(
        "offloaded.prefetch_refetched_per_step",
        per_step(tel.counter("prefetch.refetched").get()),
        steps,
    );

    let device = run.trainer.device();
    m.set(
        "device.h2d_bytes_per_step",
        per_step(device.h2d_bytes()),
        steps,
    );
    m.set(
        "device.d2h_bytes_per_step",
        per_step(device.d2h_bytes()),
        steps,
    );
    m.set(
        "device.h2d_inflight_peak",
        tel.gauge("device.h2d_inflight").peak() as f64,
        steps,
    );

    let updates = tel.histogram("optim.update_ns");
    m.set(
        "optimpool.busy_ms_per_step",
        ms_per_step(tel.counter("optim.busy_ns").get()),
        steps,
    );
    m.set(
        "optimpool.update_us_p50",
        updates.percentile(50.0) as f64 / 1e3,
        updates.count() as usize,
    );
    m.set(
        "optimpool.queue_depth_peak",
        tel.gauge("optim.queue_depth").peak() as f64,
        steps,
    );
    m.set(
        "optimpool.updates_per_step",
        per_step(run.trainer.optimizer_updates() as u64),
        steps,
    );

    let spill_waits = tel.histogram("spill.queue_wait_ns");
    let f2h = tel.counter("spill.f2h_bytes").get();
    let h2f = tel.counter("spill.h2f_bytes").get();
    m.set(
        "tier.fill_wait_ms_per_step",
        ms_per_step(run.trainer.fill_wait_nanos()),
        steps,
    );
    m.set(
        "tier.spill_read_busy_ms_per_step",
        ms_per_step(tel.track_busy_nanos("spill-read")),
        steps,
    );
    m.set(
        "tier.spill_write_busy_ms_per_step",
        ms_per_step(tel.track_busy_nanos("spill-write")),
        steps,
    );
    m.set("tier.f2h_bytes_per_step", per_step(f2h), steps);
    m.set("tier.h2f_bytes_per_step", per_step(h2f), steps);
    m.set(
        "tier.queue_wait_us_p50",
        spill_waits.percentile(50.0) as f64 / 1e3,
        spill_waits.count() as usize,
    );
    m.set(
        "tier.spilled_layers",
        run.trainer.spilled_layers() as f64,
        1,
    );
    m.set(
        "telemetry.spans_per_step",
        per_step(tel.spans().len() as u64),
        steps,
    );

    // The file tier moves exactly the bytes the placement plan predicts.
    let plan = run.trainer.tier_plan();
    let layers = 0..spec.model.layers;
    let want_f2h: u64 = layers
        .clone()
        .map(|l| plan.f2h_bytes_per_step(l, run.trainer.window()))
        .sum();
    let want_h2f: u64 = layers.map(|l| plan.h2f_bytes_per_step(l)).sum();
    out.check(
        f2h == steps as u64 * want_f2h && h2f == steps as u64 * want_h2f,
        format!(
            "spill traffic over {steps} steps: f2h {f2h} h2f {h2f}, \
             plan says {want_f2h} and {want_h2f} per step"
        ),
    );
    out.attempted += steps as u64;
    out.failed += run.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.traced_step_ms = traced_ms;
    let batches = std::mem::take(&mut run.batches);
    drop(run);

    probes::train(
        spec,
        seed,
        &batches[0],
        Duration::from_secs_f64(seconds / 60.0),
        &mut out.per_layer,
    );
}
