//! Warm-up profiling on the functional substrate (§III-B).
//!
//! On real hardware STRONGHOLD measures per-layer compute and transfer
//! times during the first few iterations. This module does precisely that
//! for the host substrate — wall-clock timing of block forward/backward and
//! of the materialize/flatten copies — and produces the same
//! [`LayerProfile`] the analytic window solver consumes, closing the loop
//! between the functional and simulated halves of the runtime.
//!
//! After a run, [`calibrate_host`] distills its telemetry into a
//! [`HostCalibration`] (measured H2D/D2H bandwidths, copy/compute overlap,
//! per-step residual) that `sim::calibration` predicts step times from, and
//! [`recalibrate_profile`] rewrites a profile's transfer terms from those
//! measured bandwidths so [`crate::analytic::solve_window`] solves on
//! observed numbers.

use std::time::Instant;

use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::Transformer;
use stronghold_sim::calibration::HostCalibration;
use stronghold_sim::SimTime;

use crate::host::device::HostDevice;
use crate::profile::LayerProfile;
use crate::telemetry::Telemetry;
use crate::tier::TierBandwidths;

fn elapsed(since: Instant) -> SimTime {
    SimTime::from_secs_f64(since.elapsed().as_secs_f64())
}

/// Runs `iters` warm-up measurement passes over one sample batch at a
/// transfer `precision` and returns the averaged per-layer profile. Layer 0
/// is the embedding and layer `n+1` the head, matching the simulator's layer
/// indexing.
///
/// `t_c2g` / `t_g2c` time the precision-aware shell load and gradient
/// flatten the layer stream itself runs, and half modes report
/// `param_count · 2` bytes per block, the payload
/// [`crate::host::HostOffloadConfig`]'s mixed-precision pipeline actually
/// moves, so [`crate::analytic::solve_window`] derives the doubled
/// `m_mem_max` from the same device capacity.
pub fn measure_host_profile_with_precision(
    cfg: &ModelConfig,
    seed: u64,
    batch: &[(Vec<u32>, Vec<u32>)],
    iters: usize,
    precision: stronghold_tensor::Precision,
) -> LayerProfile {
    assert!(!batch.is_empty());
    let iters = iters.max(1);
    let model = Transformer::new(*cfg, seed);
    let n = cfg.layers;
    let total = n + 2;
    let zero = SimTime::ZERO;
    let mut t_fp = vec![zero; total];
    let mut t_bp = vec![zero; total];
    let mut t_c2g = vec![zero; total];
    let mut t_g2c = vec![zero; total];
    // What the stream copies from and into: the store's flat masters, one
    // device shell, one recycled gradient buffer.
    let flats: Vec<Vec<f32>> = model.blocks.iter().map(|b| b.flatten_params()).collect();
    let mut shell = model.blocks[0].clone();
    let mut flat_grads = Vec::new();

    for _ in 0..iters {
        // Embedding forward.
        let t0 = Instant::now();
        let mut xs: Vec<_> = batch.iter().map(|(t, _)| model.embed(t)).collect();
        t_fp[0] += elapsed(t0);

        // Blocks: time the "H2D" materialization and the forward.
        let mut inputs = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            shell.load_flat_params_as(&flats[i], precision);
            t_c2g[i + 1] += elapsed(t0);
            inputs.push(xs.clone());
            let t0 = Instant::now();
            xs = xs.iter().map(|x| shell.forward_no_cache(x)).collect();
            t_fp[i + 1] += elapsed(t0);
        }

        // Head forward + loss (its backward share is folded into the same
        // measurement: head_forward_loss already computes the input grad).
        let t0 = Instant::now();
        let mut dys = Vec::with_capacity(batch.len());
        for (s, (_, targets)) in batch.iter().enumerate() {
            let (_, dx, _) = model.head_forward_loss(&xs[s], targets);
            dys.push(dx);
        }
        let head_time = elapsed(t0);
        t_fp[total - 1] += head_time;
        t_bp[total - 1] += head_time;

        // Blocks backward with recompute, plus the "D2H" flatten.
        for i in (0..n).rev() {
            let mut grads = model.blocks[i].zero_grads();
            let t0 = Instant::now();
            for (s, dy) in dys.iter_mut().enumerate() {
                let (_, cache) = model.blocks[i].forward(&inputs[i][s]);
                *dy = model.blocks[i].backward(dy, &inputs[i][s], &cache, &mut grads);
            }
            t_bp[i + 1] += elapsed(t0);
            let t0 = Instant::now();
            grads.flatten_into_as(&mut flat_grads, precision);
            t_g2c[i + 1] += elapsed(t0);
        }
    }

    let avg = |v: &mut Vec<SimTime>| {
        for t in v.iter_mut() {
            *t = SimTime::from_nanos(t.as_nanos() / iters as u64);
        }
    };
    avg(&mut t_fp);
    avg(&mut t_bp);
    avg(&mut t_c2g);
    avg(&mut t_g2c);

    let block_bytes = model.blocks[0].param_count() as u64 * precision.param_bytes();
    let s_fp: Vec<u64> = (0..total)
        .map(|i| if (1..=n).contains(&i) { block_bytes } else { 0 })
        .collect();
    let s_bp: Vec<u64> = s_fp.iter().map(|b| b * 2).collect();
    LayerProfile {
        t_fp,
        t_bp,
        t_c2g,
        t_g2c,
        s_fp,
        s_bp,
        t_opt_gpu: vec![SimTime::from_micros(1); total],
        t_opt_cpu: vec![SimTime::from_micros(50); total],
        t_async: SimTime::from_micros(5),
    }
}

/// Measures the host's tier bandwidths with a short synthetic probe: a
/// RAM-to-RAM copy of `sample_floats` f32s versus a full write/read round
/// trip of the same payload through a throwaway
/// [`NvmeStore`](crate::nvme::NvmeStore) swap file. The averaged
/// [`TierBandwidths`] annotate a [`crate::tier::TierPlan`] with predicted
/// migration cost (10Cache-style cost awareness) and seed
/// `sim::calibration`'s NVMe model — they never change placement itself.
pub fn measure_tier_bandwidths(
    sample_floats: usize,
    iters: usize,
) -> std::io::Result<TierBandwidths> {
    let n = sample_floats.max(1024);
    let iters = iters.max(1);
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let store = crate::nvme::NvmeStore::create(1, n)?;
    let mut scratch = Vec::new();
    let bytes = (n * 4 * iters) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
    }
    let ram_ns = t0.elapsed().as_nanos().max(1) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        store.write_at(0, 0, &src, &mut scratch)?;
    }
    let write_ns = t0.elapsed().as_nanos().max(1) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        store.read_at(0, 0, &mut dst, &mut scratch)?;
    }
    let read_ns = t0.elapsed().as_nanos().max(1) as f64;

    Ok(TierBandwidths {
        ram_bytes_per_ns: bytes / ram_ns,
        file_read_bytes_per_ns: bytes / read_ns,
        file_write_bytes_per_ns: bytes / write_ns,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::solve_window;
    use stronghold_model::config::tiny;
    use stronghold_model::data::SyntheticCorpus;

    fn profile() -> LayerProfile {
        let cfg = tiny(4);
        let batch = SyntheticCorpus::new(cfg.vocab, 1).next_batch(2, cfg.seq - 1);
        measure_host_profile_with_precision(&cfg, 7, &batch, 2, stronghold_tensor::Precision::F32)
    }

    #[test]
    fn covers_all_layers_with_positive_compute() {
        let p = profile();
        assert_eq!(p.len(), 6);
        for i in 1..=4 {
            assert!(p.t_fp[i] > SimTime::ZERO, "layer {i} fp");
            assert!(p.t_bp[i] > SimTime::ZERO, "layer {i} bp");
            assert!(p.t_c2g[i] > SimTime::ZERO, "layer {i} c2g");
        }
    }

    #[test]
    fn bp_slower_than_fp_on_real_hardware_too() {
        // BP is recompute + backward, so summed over the blocks it has a
        // ≥ 2× structural margin over FP; a single tiny layer timed twice
        // does not (one scheduler hiccup flips it). A busy core can still
        // stretch one profile's FP past its BP, so each phase is its
        // minimum over several profiles: a hiccup only ever adds time.
        let total = |t: &[SimTime]| t[1..=4].iter().map(|t| t.as_nanos()).sum::<u64>();
        let profiles: Vec<LayerProfile> = (0..5).map(|_| profile()).collect();
        let min = |phase: fn(&LayerProfile) -> &[SimTime]| {
            profiles.iter().map(|p| total(phase(p))).min().unwrap()
        };
        let (bp, fp) = (min(|p| &p.t_bp), min(|p| &p.t_fp));
        assert!(bp > fp, "bp {bp} ns vs fp {fp} ns over the four blocks");
    }

    #[test]
    fn tier_bandwidth_probe_reports_positive_rates() {
        let bw = measure_tier_bandwidths(4096, 2).expect("probe swap file");
        assert!(bw.ram_bytes_per_ns > 0.0);
        assert!(bw.file_read_bytes_per_ns > 0.0);
        assert!(bw.file_write_bytes_per_ns > 0.0);
    }

    #[test]
    fn measured_profile_feeds_the_solver() {
        let p = profile();
        let plan = solve_window(&p, |m| m as u64 * 1000, u64::MAX).expect("solvable");
        assert!(plan.m >= 1);
        assert!(plan.m <= plan.m_mem_max);
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
