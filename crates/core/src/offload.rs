//! The STRONGHOLD iteration as a plan for the virtual-time simulator.
//!
//! Builds the exact operation pipeline of Fig. 3 — prefetch / compute /
//! offload during FP, prefetch / offload / CPU-update / compute during BP —
//! as a [`Plan`] and prices it with the platform cost model. The resulting
//! timeline *is* the reproduction of the paper's Fig. 4 trace, and its
//! makespan drives every throughput figure.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::LayerSpec;
use stronghold_sim::calibration as cal;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{price, CostModel, Lane, OpId, Plan, Platform, SimTime, Timeline};

use crate::analytic::solve_window;
use crate::error::{Result, RuntimeError};
use crate::memplan::{ColdTier, StrongholdMemPlan};
use crate::method::{flops_per_sample, IterationReport};
use crate::profile::LayerProfile;
use crate::telemetry::Telemetry;

/// Replays a simulated timeline into telemetry spans (virtual-time
/// nanoseconds), so simulator runs and real-thread runs share the same
/// metric sinks. Works for any method's [`IterationReport`] timeline.
pub fn bridge_timeline(tel: &Telemetry, tl: &Timeline) {
    if !tel.is_enabled() {
        return;
    }
    for lane in tl.lanes() {
        let track = lane.track();
        let busy = tel.counter(&format!("sim.busy_ns.{track}"));
        for (start_ns, end_ns) in tl.busy_intervals(lane) {
            busy.add(end_ns - start_ns);
        }
    }
    for s in tl.segments() {
        tel.record_span(
            &s.lane.track(),
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
    let mem = StrongholdMemPlan::new(*cfg, opts.streams, opts.cold_tier);
    let cost = CostModel::new(*platform);
    let layers = mem.layers();
    // What FP offloads and BP fetches back: a layer's parameters plus its
    // activation checkpoints. FP fetches parameters only; BP offloads
    // gradients.
    let state_bytes = |l: &LayerSpec| l.param_bytes() + l.act_checkpoint_bytes * cfg.batch as u64;
    // Each layer's NVMe times (state read, state write, gradient write),
    // taken up front: a platform without the tier fails here, with that
    // reason, before the window is sized (whose memory plan would reject
    // the missing tier as a window that does not fit) or the plan built.
    let nvme_io: Option<Vec<[SimTime; 3]>> = match opts.cold_tier {
        ColdTier::CpuRam => None,
        ColdTier::Nvme { .. } => Some(
            layers
                .iter()
                .map(|l| {
                    Some([
                        cost.nvme_read(state_bytes(l))?,
                        cost.nvme_write(state_bytes(l))?,
                        cost.nvme_write(l.grad_bytes())?,
                    ])
                })
                .collect::<Option<_>>()
                .ok_or_else(|| RuntimeError::Infeasible {
                    method: "STRONGHOLD".into(),
                    reason: "the platform has no NVMe tier".into(),
                })?,
        ),
    };

    let m = derive_window(cfg, platform, opts)?;
    if !mem.feasible(platform, m) {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD".into(),
            reason: format!("window {m} infeasible"),
        });
    }
    let cpu_cap = StrongholdMemPlan::cpu_capacity(platform);
    if mem.cpu_usage() > cpu_cap {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD".into(),
            reason: "host pinned budget exceeded".into(),
        });
    }

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
    let zero = SimTime::ZERO;

    let workers = if opts.concurrent_optimizers {
        cost.useful_optim_workers()
    } else {
        1
    };
    let mut plan = Plan::new(workers);

    let nl = layers.len();
    // Layer residency classes.
    let first_window_end = m.min(nb); // blocks 1..=first_window_end resident
    let sliding_start = first_window_end + 1; // first block that slides
    let bp_seed_start = if nb >= m { nb - m + 1 } else { 1 }; // last m blocks stay at FP end
    let stays_for_bp = |i: usize| i >= bp_seed_start.max(sliding_start);

    // Per-layer op ids of the window's fetches and offloads.
    let mut fp_fetch = vec![None; nl];
    let mut fp_offload = vec![None; nl];
    let mut bp_fetch = vec![None; nl];
    let mut bp_offload = vec![None; nl];
    // Every prefetch that waited for a window slot, as `(hook, slot)`: it
    // stalled when the slot freed after the hook fired — the window bound
    // of constraint (1c) biting.
    let mut slot_waits: Vec<(OpId, OpId)> = Vec::new();

    // A window prefetch (step 1 of FP and of BP): with the NVMe tier a
    // staging read first (deeply pipelined: FIFO on the NVMe channel), then
    // the H2D copy once the layer's hook has fired, `t_async` after `hook`,
    // and the offload `slot` has freed a window slot (m+1 slots in all).
    let mut fetch = |plan: &mut Plan, j: usize, hook: OpId, slot: Option<OpId>, bytes, tick| {
        let staged = nvme_io
            .as_ref()
            .map(|io| plan.push(Lane::Nvme, io[j][0], [], format!("nv-r{tick} L{j}")));
        slot_waits.extend(slot.map(|op| (hook, op)));
        let after = [(hook, t_async)]
            .into_iter()
            .chain(slot.map(|op| (op, zero)))
            .chain(staged.map(|op| (op, zero)));
        let dur = cost.h2d(bytes, CopyKind::PinnedBulk) + apen;
        Some(plan.push(Lane::CopyIn, dur, after, format!("h2d{tick} L{j}")))
    };

    // ---------------- Forward propagation (Fig. 3b) ----------------
    let mut fp0: Vec<OpId> = Vec::with_capacity(nl); // stream 0's FP ops
    for (i, l) in layers.iter().enumerate() {
        // Prefetch the layer just outside the window (step 1) at the
        // pre_forward hook of layer i; the FP offload of layer i-1, if it
        // slid, frees its slot.
        let j = i + m;
        if (sliding_start..=nb).contains(&j) && (1..=nb).contains(&i) {
            let bytes = layers[j].param_bytes();
            fp_fetch[j] = fetch(&mut plan, j, fp0[i - 1], fp_offload[i - 1], bytes, "");
        }

        // Compute (step 2) on every stream.
        let dur = kdur(cost.layer_fp(l, micro));
        let ops: Vec<OpId> = (0..k)
            .map(|s| {
                let after = fp_fetch[i].map(|op| (op, zero));
                plan.push(Lane::Compute(s as u8), dur, after, format!("fp L{i}"))
            })
            .collect();
        fp0.push(ops[0]);

        // Offload the finished layer (step 3) unless it stays for BP.
        if (sliding_start..=nb).contains(&i) && !stays_for_bp(i) {
            let after = ops.iter().map(|&op| (op, t_async));
            let dur = cost.d2h(state_bytes(l), CopyKind::PinnedBulk) + apen;
            let off = plan.push(Lane::CopyOut, dur, after, format!("d2h L{i}"));
            fp_offload[i] = Some(off);
            if let Some(io) = &nvme_io {
                plan.push(Lane::Nvme, io[i][1], [(off, zero)], format!("nv-w L{i}"));
            }
        }
    }

    // ---------------- Backward propagation (Fig. 3c) ----------------
    let mut bp_prev: Vec<OpId> = Vec::new(); // the layer above's BP ops, per stream
    let mut updates: Vec<(usize, OpId)> = Vec::new(); // (layer, gradient offload)
    for (i, l) in layers.iter().enumerate().rev() {
        // Step 1: prefetch the next layer in the BP direction; the BP
        // offload of layer i+1, if it slid, frees its slot.
        if (1..=nb).contains(&i) && i >= sliding_start + m {
            let j = i - m;
            let bytes = state_bytes(&layers[j]);
            bp_fetch[j] = fetch(&mut plan, j, bp_prev[0], bp_offload[i + 1], bytes, "'");
        }

        // Step 4: backward compute on every stream.
        let dur = kdur(cost.layer_bp(l, micro));
        let ops: Vec<OpId> = (0..k)
            .map(|s| {
                let after = bp_fetch[i].map(|op| (op, zero));
                plan.push(Lane::Compute(s as u8), dur, after, format!("bp L{i}"))
            })
            .collect();

        // Step 2+3: offload gradients for the CPU optimizer of sliding
        // layers; GPU optimizer for resident layers.
        let mut gap = t_async;
        if k > 1 {
            gap += cost.intra_gpu_allreduce(l.grad_bytes(), k);
        }
        let grads = ops.iter().map(|&op| (op, gap));
        if (sliding_start..=nb).contains(&i) {
            let dur = cost.d2h(l.grad_bytes(), CopyKind::PinnedBulk) + apen;
            let off = plan.push(Lane::CopyOut, dur, grads, format!("d2h' L{i}"));
            bp_offload[i] = Some(off);
            updates.push((i, off));
            if let Some(io) = &nvme_io {
                plan.push(Lane::Nvme, io[i][2], [(off, zero)], format!("nv-w' L{i}"));
            }
        } else {
            // Resident layer: fused GPU Adam right after its backward.
            plan.push(
                Lane::Compute(0),
                cost.gpu_optim(l),
                grads,
                format!("gopt L{i}"),
            );
        }
        bp_prev = ops;
    }

    // CPU optimizer actors (§III-E1), in gradient arrival order: the D2H
    // lane is FIFO, so push order is arrival order. With concurrent updates
    // an actor starts as soon as its gradients land; without the
    // optimization the single optimizer runs only after BP drains (layer
    // 0's backward, the last op of every stream).
    let drained: Vec<(OpId, SimTime)> = if opts.concurrent_optimizers {
        Vec::new()
    } else {
        bp_prev.iter().map(|&op| (op, t_async)).collect()
    };
    for (i, off) in updates {
        let after = [(off, t_async)].into_iter().chain(drained.iter().copied());
        plan.push(
            Lane::CpuOptim,
            cost.cpu_optim(&layers[i]),
            after,
            format!("adam L{i}"),
        );
    }

    let tl = price(&plan);
    let c_stalls = tel.counter("sim.window_stalls");
    let h_stall = tel.histogram("sim.window_stall_ns");
    let end = |op: OpId| tl.segments()[op].end;
    for (hook, slot) in slot_waits {
        let (fired, freed) = (end(hook) + t_async, end(slot));
        if freed > fired {
            c_stalls.incr();
            h_stall.record((freed - fired).as_nanos());
        }
    }
    let issued = |ops: [&[Option<OpId>]; 2]| ops.concat().into_iter().flatten().count() as u64;
    let prefetches = issued([&fp_fetch, &bp_fetch]);
    let offloads = issued([&fp_offload, &bp_offload]);
    for name in ["sim.prefetch.issued", "sim.prefetch.completed"] {
        tel.counter(name).add(prefetches);
    }
    for name in ["sim.offload.issued", "sim.offload.completed"] {
        tel.counter(name).add(offloads);
    }
    bridge_timeline(tel, &tl);

    let peaks = (mem.gpu_usage(m), mem.cpu_usage());
    let flops = flops_per_sample(cfg);
    Ok(IterationReport::from_timeline(
        "STRONGHOLD",
        cfg,
        tl,
        peaks,
        m,
        flops,
    ))
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
    fn nvme_tier_without_an_nvme_device_is_infeasible() {
        let opts = OffloadOptions {
            cold_tier: ColdTier::Nvme {
                cpu_cache_layers: 64,
            },
            ..OffloadOptions::default()
        };
        let err = simulate_iteration(&common_1_7b(), &Platform::a10_cluster(1), &opts);
        match err {
            Err(RuntimeError::Infeasible { reason, .. }) => {
                assert_eq!(reason, "the platform has no NVMe tier")
            }
            other => panic!("expected the missing tier, got {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// On random plans — 1 to 3 compute streams, both copy lanes and
        /// the CPU-optimizer and NVMe lanes, random durations (zero
        /// included) and dependencies — the timeline's overlap fraction is
        /// the bridged telemetry's copy/compute overlap over its copy busy
        /// time, to the bit.
        #[test]
        fn prop_overlap_fraction_is_the_bridged_telemetry_overlap(
            streams in 1usize..4,
            ops in proptest::collection::vec((0usize..6, 0u64..50, 0usize..1000, 0u64..4), 1..40),
        ) {
            let mut plan = Plan::new(2);
            for (i, &(lane, ms, dep, gap)) in ops.iter().enumerate() {
                let lane = match lane {
                    0 => Lane::Compute((dep % streams) as u8),
                    1 => Lane::CopyIn,
                    2 => Lane::CopyOut,
                    3 => Lane::CpuOptim,
                    4 => Lane::Nvme,
                    _ => Lane::Compute(((dep + 1) % streams) as u8),
                };
                let after = (i > 0 && dep % 3 != 0).then(|| (dep % i, SimTime::from_millis(gap)));
                plan.push(lane, SimTime::from_millis(ms), after, format!("op {i}"));
            }
            let tl = price(&plan);
            let tel = Telemetry::enabled();
            bridge_timeline(&tel, &tl);
            let (copy, _, overlap) = tel.copy_compute_overlap();
            let want = if copy == 0 { 1.0 } else { overlap as f64 / copy as f64 };
            proptest::prop_assert_eq!(tl.overlap_fraction().to_bits(), want.to_bits());
        }
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
