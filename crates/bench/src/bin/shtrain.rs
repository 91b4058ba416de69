//! `shtrain` — the artifact-style driver, mirroring the paper's AE script
//! interface (`run.sh -m METHOD -l NUM_LAYERS -h HIDDEN_SIZE -b BATCH_SIZE
//! -w WINDOW_SIZE`):
//!
//! ```text
//! shtrain -m stronghold -l 50 -d 2560 -b 4 -w 8
//! shtrain -m all -l 20 -d 2560 -b 4
//! ```
//!
//! Methods: `megatron-lm`, `l2l`, `zero-offload`, `zero-infinity`,
//! `zero-infinity-nvme`, `stronghold`, `stronghold-nvme`, `all`.
//! (`-d` is the hidden size; `-h` prints help, unlike the paper's script.)

use stronghold_baselines::{MegatronLM, ZeroInfinity, ZeroOffload, L2L};
use stronghold_core::memplan::ColdTier;
use stronghold_core::method::TrainingMethod;
use stronghold_core::offload::bridge_timeline;
use stronghold_core::{Stronghold, Telemetry};
use stronghold_model::config::ModelConfig;
use stronghold_sim::Platform;

struct Args {
    method: String,
    layers: usize,
    hidden: usize,
    heads: usize,
    seq: usize,
    batch: usize,
    window: Option<usize>,
    platform: String,
    /// `--telemetry FILE`: write the JSON metrics snapshot here.
    telemetry: Option<String>,
    /// `--trace FILE`: write the Chrome-trace (`chrome://tracing`) here.
    trace: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        // The AE script's defaults: 16 layers, hidden 2048, 16 heads,
        // seq 1024, batch 4, window 4.
        Args {
            method: "all".into(),
            layers: 16,
            hidden: 2048,
            heads: 16,
            seq: 1024,
            batch: 4,
            window: None,
            platform: "v100".into(),
            telemetry: None,
            trace: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: shtrain -m METHOD [-l LAYERS] [-d HIDDEN] [-n HEADS] [-s SEQ] [-b BATCH] [-w WINDOW] [-p v100|a10]\n\
         \x20             [--telemetry FILE] [--trace FILE]\n\
         methods: megatron-lm, l2l, zero-offload, zero-infinity, zero-infinity-nvme, stronghold, stronghold-nvme, all\n\
         --telemetry writes the JSON metrics snapshot (counters, histograms, overlap efficiency);\n\
         --trace writes a chrome://tracing / Perfetto event file of the iteration"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "-m" => args.method = need(i).to_string(),
            "-l" => args.layers = need(i).parse().unwrap_or_else(|_| usage()),
            "-d" => args.hidden = need(i).parse().unwrap_or_else(|_| usage()),
            "-n" => args.heads = need(i).parse().unwrap_or_else(|_| usage()),
            "-s" => args.seq = need(i).parse().unwrap_or_else(|_| usage()),
            "-b" => args.batch = need(i).parse().unwrap_or_else(|_| usage()),
            "-w" => args.window = Some(need(i).parse().unwrap_or_else(|_| usage())),
            "-p" => args.platform = need(i).to_string(),
            "-t" | "--telemetry" => args.telemetry = Some(need(i).to_string()),
            "-c" | "--trace" => args.trace = Some(need(i).to_string()),
            "-h" | "--help" => usage(),
            _ => usage(),
        }
        i += 2;
    }
    args
}

fn methods_for(name: &str, window: Option<usize>) -> Vec<Box<dyn TrainingMethod>> {
    let stronghold = |nvme: bool| -> Box<dyn TrainingMethod> {
        Box::new(Stronghold {
            window,
            cold_tier: if nvme {
                ColdTier::Nvme {
                    cpu_cache_layers: 64,
                }
            } else {
                ColdTier::CpuRam
            },
        })
    };
    match name {
        "megatron-lm" => vec![Box::new(MegatronLM)],
        "l2l" => vec![Box::new(L2L)],
        "zero-offload" => vec![Box::new(ZeroOffload)],
        "zero-infinity" => vec![Box::new(ZeroInfinity::cpu_only())],
        "zero-infinity-nvme" => vec![Box::new(ZeroInfinity::with_nvme())],
        "stronghold" => vec![stronghold(false)],
        "stronghold-nvme" => vec![stronghold(true)],
        "all" => vec![
            Box::new(MegatronLM),
            Box::new(L2L),
            Box::new(ZeroOffload),
            Box::new(ZeroInfinity::cpu_only()),
            stronghold(false),
        ],
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let platform = match args.platform.as_str() {
        "v100" => Platform::v100_server(),
        "a10" => Platform::a10_cluster(1),
        _ => usage(),
    };
    let cfg = ModelConfig {
        layers: args.layers,
        hidden: args.hidden,
        heads: args.heads,
        seq: args.seq,
        vocab: stronghold_model::config::DEFAULT_VOCAB,
        batch: args.batch,
        mp_degree: 1,
    };
    println!(
        "model: {} ({} layers x hidden {}, heads {}, seq {}), batch {} | platform {}",
        cfg.size_label(),
        cfg.layers,
        cfg.hidden,
        cfg.heads,
        cfg.seq,
        cfg.batch,
        args.platform
    );
    println!(
        "\n{:<22} {:>12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "method", "samples/s", "TFLOPS", "GPU GiB", "CPU GiB", "window", "overlap%"
    );
    let methods = methods_for(&args.method, args.window);
    let multi = methods.len() > 1;
    let want_tel = args.telemetry.is_some() || args.trace.is_some();
    for m in methods {
        match m.iteration(&cfg, &platform) {
            Ok(r) => {
                println!(
                    "{:<22} {:>12.4} {:>9.2} {:>10.2} {:>10.1} {:>8} {:>9.1}",
                    m.name(),
                    r.throughput,
                    r.tflops,
                    r.gpu_peak as f64 / (1u64 << 30) as f64,
                    r.cpu_peak as f64 / (1u64 << 30) as f64,
                    r.window,
                    r.overlap * 100.0
                );
                if want_tel {
                    if let Err(e) = write_telemetry(&args, m.name(), multi, &r) {
                        eprintln!("shtrain: {e}");
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => println!("{:<22} OOM ({e})", m.name()),
        }
    }
}

/// Replays the iteration's timeline into a telemetry handle and writes the
/// requested sinks. With `-m all`, file names are prefixed by the method so
/// runs don't clobber each other. A sink that cannot be written (a path in
/// a missing directory, say) is an error naming the path.
fn write_telemetry(
    args: &Args,
    method: &str,
    multi: bool,
    r: &stronghold_core::IterationReport,
) -> Result<(), String> {
    let dest = |base: &str| {
        if multi {
            let p = std::path::Path::new(base);
            let file = p.file_name().and_then(|f| f.to_str()).unwrap_or(base);
            p.with_file_name(format!("{method}-{file}"))
                .to_string_lossy()
                .into_owned()
        } else {
            base.to_string()
        }
    };
    let tel = Telemetry::enabled();
    bridge_timeline(&tel, &r.timeline);
    // Kernel throughput gauges for whatever GEMM work ran in-process
    // (zero for pure cost-model runs; the host substrate populates them).
    stronghold_core::telemetry::record_kernel_stats(&tel);
    let snap = tel.snapshot_json();
    let eff = snap["overlap"]["overlap_efficiency"]
        .as_f64()
        .unwrap_or(0.0);
    println!(
        "  {method}: measured overlap efficiency {:.1}%",
        eff * 100.0
    );
    if let Some(base) = &args.telemetry {
        let path = dest(base);
        let body = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
        std::fs::write(&path, body)
            .map_err(|e| format!("cannot write telemetry snapshot {path}: {e}"))?;
        println!("  {method}: telemetry snapshot -> {path}");
    }
    if let Some(base) = &args.trace {
        let path = dest(base);
        std::fs::write(&path, tel.to_chrome_trace())
            .map_err(|e| format!("cannot write chrome trace {path}: {e}"))?;
        println!("  {method}: chrome trace -> {path}");
    }
    Ok(())
}
