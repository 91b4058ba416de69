//! Serving bench: continuous batching on the windowed offload runtime vs
//! naive static batching on a fully-resident model.
//!
//! A closed-system load: every request is submitted up front, so a
//! request's latency includes its queueing delay — exactly where static
//! batching loses (a short decode admitted behind a long one drains with
//! the whole batch: the convoy effect). The workload mixes decode lengths
//! with 8× variance so the padded rounds static batching burns are
//! visible, and both engines drive the **same stacked decode entries over
//! the same weights** (one GEMM per linear per round over all their
//! sequences), so they emit identical greedy token streams — the sweep
//! measures pure scheduling, not math.
//!
//! Rows: engine × concurrency (slots) × compute workers, each with
//! tokens/sec, p50/p99 request latency, and p50 time-to-first-token. The
//! root records `cores` and `core_starved` (continuous batching's
//! prefetch/compute overlap needs ≥ 2 cores; below that the H2D staging
//! serializes with decode and the gap narrows), plus two machine-checked
//! verdicts: `continuous_beats_static` (tokens/sec at equal concurrency,
//! every level) and `p50_le_p99`.
//!
//! Results go to `BENCH_serving.json` (override with `BENCH_SERVING_OUT`).
//! `STRONGHOLD_SBENCH_QUICK=1` bounds the sweep for the `ci.sh` smoke.
//!
//! Run with `cargo bench --bench serving` (harness = false).

use std::time::Instant;

use serde_json::{Map, Value};
use stronghold_baselines::{StaticBatchConfig, StaticBatchGenerator};
use stronghold_core::serve::{GenRequest, GenResult, ServeConfig, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::Transformer;

/// Decode lengths with 8× variance: one long request convoying three
/// short ones per group.
fn workload(groups: usize, long: usize, short: usize, prompt: usize) -> Vec<GenRequest> {
    let mut reqs = Vec::new();
    for g in 0..groups {
        for s in 0..4usize {
            let i = (g * 4 + s) as u64;
            reqs.push(GenRequest {
                id: i,
                prompt: (0..prompt as u32)
                    .map(|t| (t * 7 + i as u32) % 97)
                    .collect(),
                max_new_tokens: if s == 0 { long } else { short },
                seed: 900 + i,
            });
        }
    }
    reqs
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

/// Best-of-`reps` runs of the same closed workload: keeps the run with the
/// lowest wall time (and its per-request latencies), so a scheduler noise
/// spike on a shared box cannot flip the throughput comparison.
fn timed_runs(reps: usize, mut run: impl FnMut() -> Vec<GenResult>) -> (u64, Vec<GenResult>) {
    let mut best: Option<(u64, Vec<GenResult>)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let results = run();
        let wall = t0.elapsed().as_nanos() as u64;
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, results));
        }
    }
    best.expect("at least one rep")
}

struct RunStats {
    wall_ns: u64,
    tokens: u64,
    p50_ns: u64,
    p99_ns: u64,
    ttft_p50_ns: u64,
}

fn stats(wall_ns: u64, results: &[GenResult]) -> RunStats {
    let mut lat: Vec<u64> = results.iter().map(|r| r.latency_ns).collect();
    let mut ttft: Vec<u64> = results.iter().map(|r| r.ttft_ns).collect();
    lat.sort_unstable();
    ttft.sort_unstable();
    RunStats {
        wall_ns,
        tokens: results.iter().map(|r| r.tokens.len() as u64).sum(),
        p50_ns: percentile(&lat, 50),
        p99_ns: percentile(&lat, 99),
        ttft_p50_ns: percentile(&ttft, 50),
    }
}

fn row(engine: &str, slots: usize, workers: usize, s: &RunStats) -> Value {
    let tps = s.tokens as f64 / (s.wall_ns as f64 / 1e9);
    println!(
        "{engine:>10} slots={slots} workers={workers} {tps:>9.1} tok/s  \
         p50={:>10} ns  p99={:>10} ns  ttft_p50={:>10} ns",
        s.p50_ns, s.p99_ns, s.ttft_p50_ns
    );
    let mut r = Map::new();
    r.insert("engine".into(), Value::from(engine));
    r.insert("concurrency".into(), Value::from(slots as u64));
    r.insert("compute_workers".into(), Value::from(workers as u64));
    r.insert("tokens".into(), Value::from(s.tokens));
    r.insert("wall_ns".into(), Value::from(s.wall_ns));
    r.insert("tokens_per_sec".into(), Value::from(tps));
    r.insert("p50_latency_ns".into(), Value::from(s.p50_ns));
    r.insert("p99_latency_ns".into(), Value::from(s.p99_ns));
    r.insert("ttft_p50_ns".into(), Value::from(s.ttft_p50_ns));
    Value::Object(r)
}

fn main() {
    let quick = std::env::var("STRONGHOLD_SBENCH_QUICK").is_ok_and(|v| v == "1");
    let out_path = std::env::var("BENCH_SERVING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json").to_string()
    });

    // Hidden 256 in both modes: a stacked round is then ~2 ms, several
    // times the streaming engine's un-overlapped per-round cost (prefetcher
    // spawn + first-layer fetch). On a 64-wide toy the two are the same
    // size and the 2-slot comparison is a coin flip.
    let (mcfg, groups, long, short, prompt) = if quick {
        (
            ModelConfig::new(3, 256, 8).with_seq(24).with_vocab(64),
            2,
            16,
            2,
            3,
        )
    } else {
        (
            ModelConfig::new(4, 256, 8).with_seq(48).with_vocab(128),
            4,
            32,
            4,
            4,
        )
    };
    let slot_counts: &[usize] = &[2, 4];
    let worker_counts: &[usize] = &[1, 2];
    let reps = 3usize;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    // One core must drive compute while another stages H2D; below two
    // cores the overlap the continuous engine is built around degenerates
    // to time-slicing.
    let core_starved = cores < 2;
    println!(
        "serving sweep ({} mode, {} layers x {} hidden, {} reqs, decode {long}/{short}, \
         {cores} cores{})",
        if quick { "quick" } else { "full" },
        mcfg.layers,
        mcfg.hidden,
        groups * 4,
        if core_starved {
            " — CORE-STARVED, overlap numbers not meaningful"
        } else {
            ""
        },
    );

    let reqs = workload(groups, long, short, prompt);
    let total_new: usize = reqs.iter().map(|r| r.max_new_tokens).sum();
    let mut rows: Vec<Value> = Vec::new();
    let mut continuous_wins = true;
    let mut p50_le_p99 = true;

    for &slots in slot_counts {
        // Static reference: fully resident, padded batches, FIFO drain.
        let mut stat = StaticBatchGenerator::new(
            mcfg,
            13,
            StaticBatchConfig {
                slots,
                ..StaticBatchConfig::default()
            },
        );
        // Warm the scratch so the timed runs measure steady state.
        stat.generate(workload(1, 2, 1, 2));
        let (wall, static_results) = timed_runs(reps, || stat.generate(reqs.clone()));
        let static_stats = stats(wall, &static_results);
        assert_eq!(static_stats.tokens as usize, total_new);
        p50_le_p99 &= static_stats.p50_ns <= static_stats.p99_ns;
        rows.push(row("static", slots, 1, &static_stats));

        for &workers in worker_counts {
            let mut eng = ServeEngine::from_model(
                Transformer::new(mcfg, 13),
                ServeConfig {
                    window: 2,
                    slots,
                    compute_workers: workers,
                    ..ServeConfig::default()
                },
                Telemetry::disabled(),
            );
            eng.generate(workload(1, 2, 1, 2));
            let (wall, cont_results) = timed_runs(reps, || eng.generate(reqs.clone()));
            let cont_stats = stats(wall, &cont_results);
            assert_eq!(cont_stats.tokens as usize, total_new);
            // Same weights, same greedy sampler: the streams must agree
            // before the throughput comparison means anything.
            for (a, b) in static_results.iter().zip({
                let mut c = cont_results.clone();
                c.sort_by_key(|r| r.id);
                c.into_iter().collect::<Vec<_>>()
            }) {
                assert_eq!(a.tokens, b.tokens, "req {}: engines disagree", a.id);
            }
            p50_le_p99 &= cont_stats.p50_ns <= cont_stats.p99_ns;
            if workers == 1 {
                continuous_wins &= cont_stats.tokens as f64 / cont_stats.wall_ns as f64
                    > static_stats.tokens as f64 / static_stats.wall_ns as f64;
            }
            rows.push(row("continuous", slots, workers, &cont_stats));
        }
    }

    let mut root = Map::new();
    root.insert("bench".into(), Value::from("serving"));
    root.insert(
        "mode".into(),
        Value::from(if quick { "quick" } else { "full" }),
    );
    root.insert("requests".into(), Value::from((groups * 4) as u64));
    root.insert("decode_long".into(), Value::from(long as u64));
    root.insert("decode_short".into(), Value::from(short as u64));
    root.insert("cores".into(), Value::from(cores));
    root.insert("core_starved".into(), Value::from(core_starved));
    let mut model = Map::new();
    model.insert("layers".into(), Value::from(mcfg.layers as u64));
    model.insert("hidden".into(), Value::from(mcfg.hidden as u64));
    model.insert("seq".into(), Value::from(mcfg.seq as u64));
    model.insert("vocab".into(), Value::from(mcfg.vocab as u64));
    root.insert("model".into(), Value::Object(model));
    root.insert(
        "continuous_beats_static".into(),
        Value::from(continuous_wins),
    );
    root.insert("p50_le_p99".into(), Value::from(p50_le_p99));
    root.insert("results".into(), Value::Array(rows));
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("sweep serializes");
    std::fs::write(&out_path, json).expect("write BENCH_serving.json");
    println!("continuous_beats_static={continuous_wins} p50_le_p99={p50_le_p99}  wrote {out_path}");
}
