//! `shsweep` — grid sweeps over model and runtime parameters, CSV output.
//!
//! A downstream user's capacity-planning tool: for one method, sweep layers
//! × hidden × batch (and optionally window), emitting one CSV row per
//! configuration with throughput, TFLOPS, memory peaks and OOM markers.
//!
//! ```text
//! shsweep -m stronghold -l 20,50,100 -d 2560,5120 -b 2,4,8 [-w 1,4,8] [-p v100|a10]
//! ```

use stronghold_baselines::{MegatronLM, ZeroInfinity, ZeroOffload, L2L};
use stronghold_core::method::TrainingMethod;
use stronghold_core::Stronghold;
use stronghold_model::config::ModelConfig;
use stronghold_sim::Platform;

fn usage() -> ! {
    eprintln!(
        "usage: shsweep -m METHOD [-l L1,L2,..] [-d H1,H2,..] [-b B1,B2,..] [-w W1,W2,..] [-p v100|a10]"
    );
    std::process::exit(2);
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|v| v.trim().parse().unwrap_or_else(|_| usage()))
        .collect()
}

fn method_named(name: &str, window: Option<usize>) -> Box<dyn TrainingMethod> {
    match name {
        "megatron-lm" => Box::new(MegatronLM),
        "l2l" => Box::new(L2L),
        "zero-offload" => Box::new(ZeroOffload),
        "zero-infinity" => Box::new(ZeroInfinity::cpu_only()),
        "stronghold" => Box::new(Stronghold {
            window,
            ..Stronghold::default()
        }),
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut method = "stronghold".to_string();
    let mut layers = vec![20usize, 50];
    let mut hiddens = vec![2560usize];
    let mut batches = vec![4usize];
    let mut windows: Vec<Option<usize>> = vec![None];
    let mut platform = Platform::v100_server();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "-m" => method = need(i).to_string(),
            "-l" => layers = parse_list(need(i)),
            "-d" => hiddens = parse_list(need(i)),
            "-b" => batches = parse_list(need(i)),
            "-w" => windows = parse_list(need(i)).into_iter().map(Some).collect(),
            "-p" => {
                platform = match need(i) {
                    "v100" => Platform::v100_server(),
                    "a10" => Platform::a10_cluster(1),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }

    println!(
        "method,layers,hidden,batch,window,params_b,samples_per_s,tflops,gpu_gib,cpu_gib,status"
    );
    for &l in &layers {
        for &h in &hiddens {
            for &b in &batches {
                for &w in &windows {
                    let m = method_named(&method, w);
                    let cfg = ModelConfig::new(l, h, 16).with_batch(b);
                    match m.iteration(&cfg, &platform) {
                        Ok(r) => println!(
                            "{},{},{},{},{},{:.2},{:.4},{:.2},{:.2},{:.1},ok",
                            m.name(),
                            l,
                            h,
                            b,
                            r.window,
                            cfg.billions(),
                            r.throughput,
                            r.tflops,
                            r.gpu_peak as f64 / (1u64 << 30) as f64,
                            r.cpu_peak as f64 / (1u64 << 30) as f64,
                        ),
                        Err(_) => println!(
                            "{},{},{},{},{},{:.2},,,,,OOM",
                            m.name(),
                            l,
                            h,
                            b,
                            w.map(|v| v.to_string()).unwrap_or_default(),
                            cfg.billions(),
                        ),
                    }
                }
            }
        }
    }
}
