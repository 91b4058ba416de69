//! Nanosecond-exact gate on every simulated method.
//!
//! `paperbench all` prints rounded figures, so a schedule change that moves
//! an op by a few nanoseconds passes its golden file. This test digests each
//! method's full report over a fixed matrix — every timeline segment (lane,
//! label, start ns, end ns), the iteration time, peaks, window, rates, and
//! the telemetry the timeline bridges into (counters, window-stall
//! histogram, per-track spans) — and compares the digests with
//! `tests/golden/sim_digest.txt`. A change meant to move a schedule
//! regenerates that file in its own diff: a failing run writes the full
//! current digest to `sim_digest.txt` under cargo's integration-test temp
//! directory (`target/tmp/`).

use stronghold_baselines::{MegatronLM, PlainInference, ZeroInfinity, ZeroOffload, L2L};
use stronghold_core::error::Result;
use stronghold_core::inference::simulate_inference;
use stronghold_core::memplan::ColdTier;
use stronghold_core::method::{IterationReport, TrainingMethod};
use stronghold_core::offload::{
    bridge_timeline, simulate_iteration_with_telemetry, OffloadOptions,
};
use stronghold_core::{Stronghold, Telemetry};
use stronghold_model::config::{common_1_7b, model_39_4b, model_4b, ModelConfig};
use stronghold_sim::Platform;

const GOLDEN: &str = include_str!("../golden/sim_digest.txt");

/// FNV-1a, 64 bit: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per case: the headline numbers in the clear, everything else
/// (segments, rates, telemetry) folded into the digest.
fn digest(name: &str, r: &Result<IterationReport>, tel: &Telemetry) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => return format!("{name} err {e}"),
    };
    let mut text = String::new();
    for s in r.timeline.segments() {
        text.push_str(&format!(
            "{:?} {} {} {}\n",
            s.lane,
            s.label,
            s.start.as_nanos(),
            s.end.as_nanos()
        ));
    }
    text.push_str(&format!(
        "{} {:x} {:x} {:x} {:x}\n",
        r.method,
        r.throughput.to_bits(),
        r.tflops.to_bits(),
        r.overlap.to_bits(),
        r.gpu_util.to_bits()
    ));
    text.push_str(&serde_json::to_string(&tel.snapshot_json()).expect("snapshot serialises"));
    for s in tel.spans() {
        text.push_str(&format!(
            "\n{} {} {} {}",
            s.track, s.name, s.start_ns, s.end_ns
        ));
    }
    format!(
        "{name} iter_ns={} gpu_peak={} cpu_peak={} window={} segments={} digest={:016x}",
        r.iter_time.as_nanos(),
        r.gpu_peak,
        r.cpu_peak,
        r.window,
        r.timeline.segments().len(),
        fnv1a(text.as_bytes())
    )
}

/// A report from any entry point, with its timeline bridged into a fresh
/// telemetry handle (the path `shtrain --telemetry` takes).
fn bridged(name: &str, r: Result<IterationReport>) -> String {
    let tel = Telemetry::enabled();
    if let Ok(r) = &r {
        bridge_timeline(&tel, &r.timeline);
    }
    digest(name, &r, &tel)
}

fn stronghold(name: &str, cfg: &ModelConfig, platform: &Platform, opts: OffloadOptions) -> String {
    let tel = Telemetry::enabled();
    let r = simulate_iteration_with_telemetry(cfg, platform, &opts, &tel);
    digest(name, &r, &tel)
}

fn all_digests() -> String {
    let v100 = Platform::v100_server();
    let a10 = Platform::a10_cluster(1);
    let nvme = ColdTier::Nvme {
        cpu_cache_layers: 64,
    };
    let mut lines = Vec::new();

    // Every training method on the paperbench configurations.
    let methods: Vec<(&str, Box<dyn TrainingMethod>)> = vec![
        ("megatron", Box::new(MegatronLM)),
        ("l2l", Box::new(L2L)),
        ("zero-offload", Box::new(ZeroOffload)),
        ("zero-infinity", Box::new(ZeroInfinity::cpu_only())),
        ("zero-infinity-nvme", Box::new(ZeroInfinity::with_nvme())),
        ("stronghold", Box::new(Stronghold::default())),
        (
            "stronghold-nvme",
            Box::new(Stronghold {
                cold_tier: nvme,
                ..Stronghold::default()
            }),
        ),
    ];
    let configs: Vec<(&str, ModelConfig, &Platform)> = vec![
        ("1.7b", common_1_7b(), &v100),
        ("1.7b-b2", common_1_7b().with_batch(2), &v100),
        ("1.7b-b16", common_1_7b().with_batch(16), &v100),
        ("4b", model_4b(), &v100),
        ("83x2560", ModelConfig::new(83, 2560, 16), &v100),
        ("39.4b", model_39_4b(), &v100),
        ("500x2560", ModelConfig::new(500, 2560, 16), &v100),
        ("a10-1.7b", common_1_7b(), &a10),
        (
            "a10-8x2560-b1",
            ModelConfig::new(8, 2560, 16).with_batch(1),
            &a10,
        ),
    ];
    for (cname, cfg, platform) in &configs {
        for (mname, m) in &methods {
            lines.push(bridged(
                &format!("{mname}/{cname}"),
                m.iteration(cfg, platform),
            ));
        }
    }

    // STRONGHOLD's options, through the telemetry entry point (fig4's).
    let base = OffloadOptions::default();
    let cases: Vec<(&str, ModelConfig, OffloadOptions)> = vec![
        ("default/1.7b", common_1_7b(), base),
        ("default/4b", model_4b(), base),
        ("default/39.4b", model_39_4b(), base),
        (
            "streams4/1.7b-b4",
            common_1_7b().with_batch(4),
            OffloadOptions { streams: 4, ..base },
        ),
        (
            "streams4/4b",
            model_4b(),
            OffloadOptions { streams: 4, ..base },
        ),
        (
            "nvme/4b",
            model_4b(),
            OffloadOptions {
                cold_tier: nvme,
                ..base
            },
        ),
        (
            "nvme/1000x2560",
            ModelConfig::new(1000, 2560, 16),
            OffloadOptions {
                cold_tier: nvme,
                ..base
            },
        ),
        (
            "window1/1.7b",
            common_1_7b(),
            OffloadOptions {
                window: Some(1),
                ..base
            },
        ),
        (
            "window-n/8x2560",
            ModelConfig::new(8, 2560, 16),
            OffloadOptions {
                window: Some(8),
                ..base
            },
        ),
        (
            "window3/8x2560",
            ModelConfig::new(8, 2560, 16),
            OffloadOptions {
                window: Some(3),
                ..base
            },
        ),
        (
            "window1/39.4b",
            model_39_4b(),
            OffloadOptions {
                window: Some(1),
                ..base
            },
        ),
        (
            "window-n/8x2560-streams2",
            ModelConfig::new(8, 2560, 16),
            OffloadOptions {
                window: Some(8),
                streams: 2,
                ..base
            },
        ),
    ];
    for (name, cfg, opts) in cases {
        lines.push(stronghold(name, &cfg, &v100, opts));
    }

    // Fig. 14: the full NVMe system and each optimization turned off, with
    // and without the others.
    let full = OffloadOptions {
        cold_tier: nvme,
        streams: 2,
        ..base
    };
    let bare = OffloadOptions {
        cold_tier: nvme,
        concurrent_optimizers: false,
        pooled_allocator: false,
        streams: 1,
        ..base
    };
    let ablations = [
        ("fig14-full", full),
        ("fig14-bare", bare),
        (
            "fig14-no-concurrent-optim",
            OffloadOptions {
                concurrent_optimizers: false,
                ..full
            },
        ),
        (
            "fig14-no-pooled-alloc",
            OffloadOptions {
                pooled_allocator: false,
                ..full
            },
        ),
        ("fig14-one-stream", OffloadOptions { streams: 1, ..full }),
        (
            "fig14-only-concurrent-optim",
            OffloadOptions {
                concurrent_optimizers: true,
                ..bare
            },
        ),
        (
            "fig14-only-pooled-alloc",
            OffloadOptions {
                pooled_allocator: true,
                ..bare
            },
        ),
        ("fig14-only-streams", OffloadOptions { streams: 2, ..bare }),
        (
            "no-concurrent-optim/1.7b",
            OffloadOptions {
                concurrent_optimizers: false,
                ..base
            },
        ),
    ];
    for (name, opts) in ablations {
        let cfg = if name.starts_with("fig14") {
            model_4b()
        } else {
            common_1_7b()
        };
        lines.push(stronghold(name, &cfg, &v100, opts));
    }

    // Forward-only: STRONGHOLD's windowed inference and the plain pass, on
    // fig13's ladder.
    for layers in [20usize, 50, 150, 700] {
        let cfg = ModelConfig::new(layers, 2560, 16);
        for m in [1usize, 4, 8] {
            lines.push(bridged(
                &format!("inference-w{m}/{layers}x2560"),
                simulate_inference(&cfg, &v100, m),
            ));
        }
        lines.push(bridged(
            &format!("plain-inference/{layers}x2560"),
            PlainInference::inference(&cfg, &v100),
        ));
    }

    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn every_simulated_report_matches_its_digest() {
    let got = all_digests();
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_digest.txt");
    std::fs::write(&path, &got).expect("write the current digest");
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(
            g,
            w,
            "first differing case (left: now, right: golden); full digest in {}",
            path.display()
        );
    }
    panic!(
        "digest has {} cases, golden {}; full digest in {}",
        got.lines().count(),
        GOLDEN.lines().count(),
        path.display()
    );
}
