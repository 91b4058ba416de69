//! The STRONGHOLD iteration scheduler on the virtual-time simulator.
//!
//! Emits the exact operation pipeline of Fig. 3 — prefetch / compute /
//! offload during FP, prefetch / offload / CPU-update / compute during BP —
//! against FIFO resources, and prices it with the platform cost model. The
//! resulting timeline *is* the reproduction of the paper's Fig. 4 trace, and
//! its makespan drives every throughput figure.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::LayerSpec;
use stronghold_sim::calibration as cal;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{CostModel, FifoResource, Lane, Platform, SimTime, Timeline, WorkerPool};

use crate::analytic::solve_window;
use crate::error::{Result, RuntimeError};
use crate::memplan::{ColdTier, StrongholdMemPlan};
use crate::method::{flops_per_sample, IterationReport};
use crate::profile::LayerProfile;
use crate::telemetry::Telemetry;

/// Telemetry track name of a simulator lane. Compute tracks contain
/// `"compute"` and copy tracks contain `"copy"` so
/// [`Telemetry::copy_compute_overlap`] sees them.
fn lane_track(lane: Lane) -> String {
    match lane {
        Lane::Compute(k) => format!("sim-compute[{k}]"),
        Lane::CopyIn => "h2d-copy".to_string(),
        Lane::CopyOut => "d2h-copy".to_string(),
        Lane::CpuOptim => "cpu-optim".to_string(),
        Lane::Nvme => "nvme-io".to_string(),
        Lane::Network => "network".to_string(),
    }
}

/// Replays a simulated timeline into telemetry spans (virtual-time
/// nanoseconds), so simulator runs and real-thread runs share the same
/// metric sinks. Works for any method's [`IterationReport`] timeline.
pub fn bridge_timeline(tel: &Telemetry, tl: &Timeline) {
    if !tel.is_enabled() {
        return;
    }
    for lane in tl.lanes() {
        let track = lane_track(lane);
        let busy = tel.counter(&format!("sim.busy_ns.{track}"));
        for (start_ns, end_ns) in tl.busy_intervals(lane) {
            busy.add(end_ns - start_ns);
        }
    }
    for s in tl.segments() {
        tel.record_span(
            &lane_track(s.lane),
            &s.label,
            s.start.as_nanos(),
            s.end.as_nanos(),
        );
    }
}

/// Tunable knobs of the runtime; defaults reproduce the full system, the
/// Fig. 14 ablation toggles individual optimizations off.
#[derive(Clone, Copy, Debug)]
pub struct OffloadOptions {
    /// Working-window size; `None` derives it analytically (§III-D).
    pub window: Option<usize>,
    /// Concurrent training streams (§IV-A); 1 disables multi-streaming.
    pub streams: usize,
    /// Cold-tier placement (CPU RAM or NVMe).
    pub cold_tier: ColdTier,
    /// §III-E1 concurrent parameter update + §III-E2 heterogeneous
    /// collectives; `false` = single optimizer serialized after BP.
    pub concurrent_optimizers: bool,
    /// §III-E3 pooled user-level memory management; `false` = per-tensor
    /// device allocations on every transfer.
    pub pooled_allocator: bool,
}

impl Default for OffloadOptions {
    fn default() -> Self {
        OffloadOptions {
            window: None,
            streams: 1,
            cold_tier: ColdTier::CpuRam,
            concurrent_optimizers: true,
            pooled_allocator: true,
        }
    }
}

/// Per-transfer penalty when the pooled allocator is disabled.
fn alloc_penalty(pooled: bool) -> SimTime {
    if pooled {
        SimTime::ZERO
    } else {
        SimTime::from_micros(cal::ALLOC_OP_US * cal::TENSORS_PER_LAYER as u64)
    }
}

/// Derives the working-window size for a configuration on a platform
/// (the product of the warm-up phase, §III-B + §III-D).
pub fn derive_window(
    cfg: &ModelConfig,
    platform: &Platform,
    opts: &OffloadOptions,
) -> Result<usize> {
    let plan = StrongholdMemPlan::new(*cfg, opts.streams, opts.cold_tier);
    if let Some(m) = opts.window {
        if m == 0 {
            return Err(RuntimeError::Config(
                "window 0: the working window holds at least one layer".into(),
            ));
        }
        if !plan.feasible(platform, m) {
            return Err(RuntimeError::Infeasible {
                method: "STRONGHOLD".into(),
                reason: format!("window {m} exceeds memory"),
            });
        }
        return Ok(m.min(cfg.layers.max(1)));
    }
    let cost = CostModel::new(*platform);
    let profile = LayerProfile::from_cost_model(plan.layers(), &cost, cfg.batch);
    let cap = StrongholdMemPlan::gpu_capacity(platform);
    match solve_window(&profile, |m| plan.gpu_usage(m), cap) {
        Some(w) => {
            let m = w.m.min(cfg.layers.max(1));
            if !plan.feasible(platform, m) {
                return Err(RuntimeError::Infeasible {
                    method: "STRONGHOLD".into(),
                    reason: format!("window {m} infeasible"),
                });
            }
            Ok(m)
        }
        None => Err(RuntimeError::Infeasible {
            method: "STRONGHOLD".into(),
            reason: "no window size fits device memory".into(),
        }),
    }
}

/// Simulates one steady-state STRONGHOLD training iteration.
pub fn simulate_iteration(
    cfg: &ModelConfig,
    platform: &Platform,
    opts: &OffloadOptions,
) -> Result<IterationReport> {
    simulate_iteration_with_telemetry(cfg, platform, opts, &Telemetry::disabled())
}

/// [`simulate_iteration`] recording prefetch/offload issue and completion
/// counts, window-stall events, and the full lane trace into `tel`.
pub fn simulate_iteration_with_telemetry(
    cfg: &ModelConfig,
    platform: &Platform,
    opts: &OffloadOptions,
    tel: &Telemetry,
) -> Result<IterationReport> {
    let plan = StrongholdMemPlan::new(*cfg, opts.streams, opts.cold_tier);
    let m = derive_window(cfg, platform, opts)?;
    if !plan.feasible(platform, m) {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD".into(),
            reason: format!("window {m} infeasible"),
        });
    }
    let cpu_cap = StrongholdMemPlan::cpu_capacity(platform);
    if plan.cpu_usage() > cpu_cap {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD".into(),
            reason: "host pinned budget exceeded".into(),
        });
    }

    let cost = CostModel::new(*platform);
    let layers = plan.layers().to_vec();
    let nb = cfg.layers; // block count; layers[1..=nb] are blocks
    let k = opts.streams.max(1);
    let micro = cfg.batch.div_ceil(k);

    // Multi-stream kernel stretch: k concurrent kernels of per-kernel SM
    // utilization u share the array; once k·u exceeds 1 every kernel slows
    // proportionally, plus a per-extra-stream scheduling overhead (§IV-A).
    let u = cal::batch_util(micro as f64);
    let stretch =
        (k as f64 * u).max(1.0) * (1.0 + (k as f64 - 1.0) * cal::STREAM_OVERHEAD_FRACTION);
    // Without the pooled allocator (§III-E3 ablation), per-tensor
    // cudaMalloc/cudaFree synchronize the device and stall the compute
    // stream on every window slide.
    let compute_stall = alloc_penalty(opts.pooled_allocator) * 2;
    let kdur = |base: SimTime| SimTime::from_secs_f64(base.as_secs_f64() * stretch) + compute_stall;

    let t_async = cost.t_async();
    let apen = alloc_penalty(opts.pooled_allocator);
    let nvme = matches!(opts.cold_tier, ColdTier::Nvme { .. });

    // What FP offloads and BP fetches back: a layer's parameters plus its
    // activation checkpoints. FP fetches parameters only; BP offloads
    // gradients.
    let state_bytes = |l: &LayerSpec| l.param_bytes() + l.act_checkpoint_bytes * cfg.batch as u64;

    // Resources.
    let mut compute: Vec<FifoResource> = (0..k)
        .map(|s| FifoResource::new(format!("compute{s}")))
        .collect();
    let mut h2d = FifoResource::new("h2d");
    let mut d2h = FifoResource::new("d2h");
    let mut nvme_ch = FifoResource::new("nvme");
    let workers = if opts.concurrent_optimizers {
        cost.useful_optim_workers()
    } else {
        1
    };
    let mut pool = WorkerPool::new("adam", workers);
    let mut tl = Timeline::new();

    // Telemetry handles, hoisted so the scheduling loops pay one Option
    // check per event.
    let c_pf_issued = tel.counter("sim.prefetch.issued");
    let c_pf_done = tel.counter("sim.prefetch.completed");
    let c_off_issued = tel.counter("sim.offload.issued");
    let c_off_done = tel.counter("sim.offload.completed");
    let c_stalls = tel.counter("sim.window_stalls");
    let h_stall = tel.histogram("sim.window_stall_ns");

    let nl = layers.len();
    let zero = SimTime::ZERO;
    // Completion events per layer.
    let mut fp_end = vec![vec![zero; nl]; k];
    let mut bp_end = vec![vec![zero; nl]; k];
    let mut ci_fp = vec![zero; nl];
    let mut co_fp = vec![zero; nl];
    let mut ci_bp = vec![zero; nl];
    let mut co_bp = vec![zero; nl];
    let mut nv_r_fp = vec![zero; nl];
    let mut nv_r_bp = vec![zero; nl];

    // Layer residency classes.
    let first_window_end = m.min(nb); // blocks 1..=first_window_end resident
    let sliding_start = first_window_end + 1; // first block that slides
    let is_resident = |i: usize| i == 0 || i == nl - 1 || (1..=first_window_end).contains(&i);
    let bp_seed_start = if nb >= m { nb - m + 1 } else { 1 }; // last m blocks stay at FP end
    let stays_for_bp = |i: usize| i >= bp_seed_start.max(sliding_start);

    // ---------------- Forward propagation (Fig. 3b) ----------------
    for i in 0..nl {
        let l = &layers[i];
        // Prefetch the layer just outside the window (step 1) at the
        // pre_forward hook of layer i.
        let j = i + m;
        if (sliding_start..=nb).contains(&j) && (1..=nb).contains(&i) {
            // NVMe staging read (deeply pipelined: FIFO on the NVMe channel).
            if nvme {
                let dur = cost.nvme_read(state_bytes(&layers[j])).expect("nvme");
                let (s, e) = nvme_ch.schedule(zero, dur);
                nv_r_fp[j] = e;
                tl.record(Lane::Nvme, format!("nv-r L{j}"), s, e);
            }
            // Hook fires when layer i's compute is about to start.
            let hook = fp_end[0][i.saturating_sub(1)] + t_async;
            // Slot freed by the FP offload of layer j-m-1 (m+1 slots total).
            let slot = if j > sliding_start + m {
                co_fp[j - m - 1]
            } else {
                zero
            };
            let ready = hook.max(slot).max(nv_r_fp[j]);
            // The prefetch is stalled when no window slot is free at hook
            // time — the window bound of constraint (1c) biting.
            if slot > hook {
                c_stalls.incr();
                h_stall.record((slot - hook).as_nanos());
            }
            c_pf_issued.incr();
            let dur = cost.h2d(layers[j].param_bytes(), CopyKind::PinnedBulk) + apen;
            let (s, e) = h2d.schedule(ready, dur);
            ci_fp[j] = e;
            c_pf_done.incr();
            tl.record(Lane::CopyIn, format!("h2d L{j}"), s, e);
        }

        // Compute (step 2) on every stream.
        let base = kdur(cost.layer_fp(l, micro));
        for (s_idx, lane) in compute.iter_mut().enumerate() {
            let prev = if i > 0 { fp_end[s_idx][i - 1] } else { zero };
            let ready = prev.max(ci_fp[i]);
            let (s, e) = lane.schedule(ready, base);
            fp_end[s_idx][i] = e;
            tl.record(Lane::Compute(s_idx as u8), format!("fp L{i}"), s, e);
        }

        // Offload the finished layer (step 3) unless it stays for BP.
        if (sliding_start..=nb).contains(&i) && !stays_for_bp(i) {
            let ready = (0..k).map(|s| fp_end[s][i]).max().unwrap_or(zero) + t_async;
            c_off_issued.incr();
            let dur = cost.d2h(state_bytes(l), CopyKind::PinnedBulk) + apen;
            let (s, e) = d2h.schedule(ready, dur);
            co_fp[i] = e;
            c_off_done.incr();
            tl.record(Lane::CopyOut, format!("d2h L{i}"), s, e);
            if nvme {
                let dur = cost.nvme_write(state_bytes(l)).expect("nvme");
                let (s2, e2) = nvme_ch.schedule(e, dur);
                tl.record(Lane::Nvme, format!("nv-w L{i}"), s2, e2);
            }
        }
    }

    // ---------------- Backward propagation (Fig. 3c) ----------------
    let mut last_bp_all = zero; // completion of the whole BP sweep
    let mut gpu_optim_end = zero;
    let mut pending_optims: Vec<(usize, SimTime)> = Vec::new();
    for i in (0..nl).rev() {
        let l = &layers[i];

        // Step 1: prefetch the next layer in the BP direction.
        if (1..=nb).contains(&i) {
            let j = i as isize - m as isize;
            let j = if j >= sliding_start as isize {
                Some(j as usize)
            } else {
                None
            };
            if let Some(j) = j {
                if nvme {
                    let dur = cost.nvme_read(state_bytes(&layers[j])).expect("nvme");
                    let (s, e) = nvme_ch.schedule(zero, dur);
                    nv_r_bp[j] = e;
                    tl.record(Lane::Nvme, format!("nv-r' L{j}"), s, e);
                }
                let hook = bp_end[0][(i + 1).min(nl - 1)] + t_async;
                // Slot freed by the BP offload of layer j+m+1.
                let slot = if j + m < nb { co_bp[j + m + 1] } else { zero };
                let ready = hook.max(slot).max(nv_r_bp[j]);
                if slot > hook {
                    c_stalls.incr();
                    h_stall.record((slot - hook).as_nanos());
                }
                c_pf_issued.incr();
                let dur = cost.h2d(state_bytes(&layers[j]), CopyKind::PinnedBulk) + apen;
                let (s, e) = h2d.schedule(ready, dur);
                ci_bp[j] = e;
                c_pf_done.incr();
                tl.record(Lane::CopyIn, format!("h2d' L{j}"), s, e);
            }
        }

        // Step 4: backward compute on every stream.
        let base = kdur(cost.layer_bp(l, micro));
        for (s_idx, lane) in compute.iter_mut().enumerate() {
            let prev = if i + 1 < nl {
                bp_end[s_idx][i + 1]
            } else {
                fp_end[s_idx][nl - 1]
            };
            let fetched = if is_resident(i) || stays_for_bp(i) {
                zero
            } else {
                ci_bp[i]
            };
            let (s, e) = lane.schedule(prev.max(fetched), base);
            bp_end[s_idx][i] = e;
            tl.record(Lane::Compute(s_idx as u8), format!("bp L{i}"), s, e);
            last_bp_all = last_bp_all.max(e);
        }

        // Step 2+3: offload gradients and dispatch the CPU optimizer for
        // sliding layers; GPU optimizer for resident layers.
        let mut grads_ready = (0..k).map(|s| bp_end[s][i]).max().unwrap_or(zero) + t_async;
        if k > 1 {
            grads_ready += cost.intra_gpu_allreduce(l.grad_bytes(), k);
        }
        if (sliding_start..=nb).contains(&i) {
            c_off_issued.incr();
            let dur = cost.d2h(l.grad_bytes(), CopyKind::PinnedBulk) + apen;
            let (s, e) = d2h.schedule(grads_ready, dur);
            co_bp[i] = e;
            c_off_done.incr();
            tl.record(Lane::CopyOut, format!("d2h' L{i}"), s, e);
            // CPU optimizer actor (§III-E1). With concurrent updates the
            // actor starts as soon as the gradients land; without the
            // optimization the single optimizer runs only after BP drains,
            // so the dispatch is deferred below.
            pending_optims.push((i, e + t_async));
            if nvme {
                let dur = cost.nvme_write(l.grad_bytes()).expect("nvme");
                let (s3, e3) = nvme_ch.schedule(e, dur);
                tl.record(Lane::Nvme, format!("nv-w' L{i}"), s3, e3);
            }
        } else {
            // Resident layer: fused GPU Adam right after its backward.
            let dur = cost.gpu_optim(l);
            let (s, e) = compute[0].schedule(grads_ready, dur);
            gpu_optim_end = gpu_optim_end.max(e);
            tl.record(Lane::Compute(0), format!("gopt L{i}"), s, e);
        }
    }

    // Dispatch CPU optimizer tasks. Sorted by readiness so the actor pool
    // services gradients in arrival order (deterministic across runs).
    pending_optims.sort_by_key(|(i, t)| (*t, *i));
    for (i, ready) in pending_optims {
        let ready = if opts.concurrent_optimizers {
            ready
        } else {
            ready.max(last_bp_all + t_async)
        };
        let (_, s, e) = pool.dispatch(ready, cost.cpu_optim(&layers[i]));
        tl.record(Lane::CpuOptim, format!("adam L{i}"), s, e);
    }

    let iter_time = tl.makespan().max(pool.drain_time()).max(gpu_optim_end);
    tl.assert_lanes_serialized();
    bridge_timeline(tel, &tl);

    let report = IterationReport {
        method: "STRONGHOLD".into(),
        cfg: *cfg,
        iter_time,
        throughput: 0.0,
        tflops: 0.0,
        gpu_peak: plan.gpu_usage(m),
        cpu_peak: plan.cpu_usage(),
        overlap: tl.overlap_fraction(),
        gpu_util: (0..k)
            .map(|s| tl.utilization(Lane::Compute(s as u8)))
            .sum::<f64>()
            / k as f64,
        timeline: tl,
        window: m,
    };
    Ok(report.finish(flops_per_sample(cfg), cfg.batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::{common_1_7b, model_39_4b, model_4b};

    fn v100() -> Platform {
        Platform::v100_server()
    }

    #[test]
    fn iteration_runs_for_1_7b() {
        let r = simulate_iteration(&common_1_7b(), &v100(), &OffloadOptions::default()).unwrap();
        assert!(r.iter_time > SimTime::ZERO);
        assert!(r.throughput > 0.0);
        assert!(r.window >= 1);
        assert!(r.gpu_peak < 32 * (1 << 30));
    }

    #[test]
    fn transfers_mostly_hidden_on_1_7b() {
        // The paper's key claim (§III-A): communication hides under compute.
        let r = simulate_iteration(&common_1_7b(), &v100(), &OffloadOptions::default()).unwrap();
        assert!(r.overlap > 0.85, "overlap {}", r.overlap);
    }

    #[test]
    fn headline_39b_trains_on_v100() {
        let r = simulate_iteration(&model_39_4b(), &v100(), &OffloadOptions::default()).unwrap();
        assert!(r.throughput > 0.0);
        assert!(r.gpu_peak < 31 * (1 << 30));
    }

    #[test]
    fn tflops_in_paper_band_at_batch_16() {
        // §VI-B: STRONGHOLD delivers ~6–9 TFLOPS on the V100.
        let cfg = model_4b().with_batch(16);
        let r = simulate_iteration(&cfg, &v100(), &OffloadOptions::default()).unwrap();
        assert!((4.0..11.0).contains(&r.tflops), "tflops {}", r.tflops);
    }

    #[test]
    fn ablation_concurrent_optimizers_helps() {
        let cfg = model_4b();
        let on = simulate_iteration(&cfg, &v100(), &OffloadOptions::default()).unwrap();
        let off = simulate_iteration(
            &cfg,
            &v100(),
            &OffloadOptions {
                concurrent_optimizers: false,
                ..OffloadOptions::default()
            },
        )
        .unwrap();
        assert!(
            off.iter_time > on.iter_time,
            "serialized single optimizer must be slower: {} vs {}",
            off.iter_time,
            on.iter_time
        );
    }

    #[test]
    fn ablation_pooled_allocator_helps() {
        let cfg = model_4b();
        let on = simulate_iteration(&cfg, &v100(), &OffloadOptions::default()).unwrap();
        let off = simulate_iteration(
            &cfg,
            &v100(),
            &OffloadOptions {
                pooled_allocator: false,
                ..OffloadOptions::default()
            },
        )
        .unwrap();
        assert!(off.iter_time > on.iter_time);
    }

    #[test]
    fn explicit_window_respected() {
        let opts = OffloadOptions {
            window: Some(6),
            ..OffloadOptions::default()
        };
        let r = simulate_iteration(&common_1_7b(), &v100(), &opts).unwrap();
        assert_eq!(r.window, 6);
    }

    #[test]
    fn oversized_model_rejected() {
        let cfg = stronghold_model::config::ModelConfig::new(700, 2560, 16); // ~55B
        let err = simulate_iteration(&cfg, &v100(), &OffloadOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn multistream_improves_small_batch_throughput() {
        let cfg = common_1_7b().with_batch(4);
        let one = simulate_iteration(&cfg, &v100(), &OffloadOptions::default()).unwrap();
        let four = simulate_iteration(
            &cfg,
            &v100(),
            &OffloadOptions {
                streams: 4,
                ..OffloadOptions::default()
            },
        )
        .unwrap();
        assert!(
            four.throughput > one.throughput * 1.2,
            "multi-stream {} vs single {}",
            four.throughput,
            one.throughput
        );
    }

    #[test]
    fn zero_window_rejected() {
        let cfg = common_1_7b();
        let err = derive_window(
            &cfg,
            &v100(),
            &OffloadOptions {
                window: Some(0),
                ..OffloadOptions::default()
            },
        );
        assert!(matches!(err, Err(crate::error::RuntimeError::Config(_))));
    }

    #[test]
    fn telemetry_records_sim_pipeline() {
        let tel = Telemetry::enabled();
        let r = simulate_iteration_with_telemetry(
            &common_1_7b(),
            &v100(),
            &OffloadOptions::default(),
            &tel,
        )
        .unwrap();
        // Every issued transfer completed, and the trace bridged 1:1.
        let issued = tel.counter("sim.prefetch.issued").get();
        assert!(issued > 0);
        assert_eq!(issued, tel.counter("sim.prefetch.completed").get());
        assert_eq!(
            tel.counter("sim.offload.issued").get(),
            tel.counter("sim.offload.completed").get()
        );
        assert_eq!(tel.spans().len(), r.timeline.segments().len());
        // Measured (interval-exact) overlap efficiency backs the paper's
        // hiding claim on this model.
        let snap = tel.snapshot_json();
        let eff = snap["overlap"]["overlap_efficiency"].as_f64().unwrap();
        assert!(eff > 0.5, "overlap efficiency {eff}");
    }

    #[test]
    fn disabled_telemetry_identical_report() {
        let cfg = common_1_7b();
        let opts = OffloadOptions::default();
        let a = simulate_iteration(&cfg, &v100(), &opts).unwrap();
        let b =
            simulate_iteration_with_telemetry(&cfg, &v100(), &opts, &Telemetry::enabled()).unwrap();
        assert_eq!(
            a.iter_time, b.iter_time,
            "instrumentation must not perturb the schedule"
        );
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.timeline.segments().len(), b.timeline.segments().len());
    }

    #[test]
    fn nvme_tier_slower_but_feasible_for_huge_model() {
        let cfg = stronghold_model::config::ModelConfig::new(1000, 2560, 16); // ~79B
        let opts = OffloadOptions {
            cold_tier: ColdTier::Nvme {
                cpu_cache_layers: 64,
            },
            ..OffloadOptions::default()
        };
        let r = simulate_iteration(&cfg, &v100(), &opts).unwrap();
        assert!(r.throughput > 0.0);
    }
}
