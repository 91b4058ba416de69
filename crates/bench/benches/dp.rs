//! Weak-scaling bench for the real data-parallel trainer: step latency of
//! `DataParallelTrainer` at replicas ∈ {1, 2, 4} × a window sweep, with the
//! **per-replica** batch held fixed (so the global batch grows with the
//! replica count — classic weak scaling: perfect scaling is flat ns/step).
//!
//! Each row records the measured step latency, the exact all-reduce bytes
//! the in-process collective carried per step (which the traffic-validation
//! suite pins to the §III-F formula), and the weak-scaling efficiency
//! against the single-replica row of the same window.
//!
//! Results go to `BENCH_dp.json` (override with `BENCH_DP_OUT`). The file
//! records `cores` and sets `core_starved: true` when the machine cannot
//! give each replica its own core (`cores < 4`, or just 1 on a serial CI
//! box) — scaling numbers from such a run measure oversubscription, not
//! the collective, and must not be compared across machines.
//!
//! `STRONGHOLD_DPBENCH_QUICK=1` switches to a bounded smoke sweep (tiny
//! model, two timed steps) used by the `ci.sh` dp-bench step to catch
//! bench bit-rot and output-format drift without paying for the full sweep.
//!
//! Run with `cargo bench --bench dp` (harness = false).

use std::time::Instant;

use serde_json::{Map, Value};
use stronghold_core::host::{DataParallelConfig, DataParallelTrainer, HostOffloadConfig};
use stronghold_model::config::{tiny, ModelConfig};
use stronghold_model::data::SyntheticCorpus;

/// Best-of-`reps` mean nanoseconds per step: one untimed warm-up step,
/// then `reps` timed runs of `steps` steps each, keeping the fastest run.
fn time_steps(reps: usize, steps: usize, mut step: impl FnMut()) -> u64 {
    step();
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..steps {
            step();
        }
        best = best.min((t0.elapsed().as_nanos() / steps as u128) as u64);
    }
    best
}

fn main() {
    let quick = std::env::var("STRONGHOLD_DPBENCH_QUICK").is_ok_and(|v| v == "1");
    // cargo runs benches with cwd = the package dir; default the output
    // to the workspace root so the sweep lands next to the other BENCH
    // artifacts regardless of invocation directory.
    let out_path = std::env::var("BENCH_DP_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dp.json").to_string()
    });

    // Weak scaling: the per-replica batch stays fixed; the global batch
    // (and the synthetic corpus slice each step consumes) grows with the
    // replica count.
    let per_replica_batch = 4usize;
    let (cfg, reps, steps) = if quick {
        (tiny(4), 1, 2)
    } else {
        (
            ModelConfig::new(6, 128, 4).with_seq(64).with_vocab(512),
            5,
            5,
        )
    };
    let windows: &[usize] = if quick { &[2] } else { &[1, 2, 4] };
    let replica_counts = [1usize, 2, 4];

    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    // Weak scaling needs one core per replica (plus slack for the offload
    // and optimizer workers); below that the sweep measures time-slicing.
    let core_starved = cores < *replica_counts.last().unwrap() as u64;
    println!(
        "dp weak-scaling sweep ({} mode, best of {reps} x {steps} steps, \
         {} layers x {} hidden, batch {per_replica_batch}/replica, {cores} cores{})",
        if quick { "quick" } else { "full" },
        cfg.layers,
        cfg.hidden,
        if core_starved {
            " — CORE-STARVED, scaling numbers not meaningful"
        } else {
            ""
        },
    );

    let mut rows: Vec<Value> = Vec::new();
    for &window in windows {
        let mut baseline_ns = None;
        for replicas in replica_counts {
            let global_batch = replicas * per_replica_batch;
            let cfg = cfg.with_batch(global_batch);
            let batch = SyntheticCorpus::new(cfg.vocab, 9).next_batch(global_batch, cfg.seq - 1);
            let mut t = DataParallelTrainer::new(
                cfg,
                5,
                DataParallelConfig {
                    replicas,
                    host: HostOffloadConfig {
                        window,
                        ..DataParallelConfig::default().host
                    },
                    ..DataParallelConfig::default()
                },
            );
            let ns = time_steps(reps, steps, || {
                t.train_step(&batch);
            });
            let base = *baseline_ns.get_or_insert(ns);
            // Perfect weak scaling keeps ns/step flat as replicas grow, so
            // efficiency = t(1 replica) / t(w replicas).
            let efficiency = base as f64 / ns as f64;
            let bytes_per_step = t.allreduce_bytes() / t.replica(0).steps();
            println!(
                "replicas={replicas} window={window} {ns:>12} ns/step  \
                 eff={efficiency:.2}  {bytes_per_step} allreduce B/step"
            );
            let mut r = Map::new();
            r.insert("replicas".into(), Value::from(replicas as u64));
            r.insert("window".into(), Value::from(window as u64));
            r.insert("global_batch".into(), Value::from(global_batch as u64));
            r.insert("ns_per_step".into(), Value::from(ns));
            r.insert("weak_scaling_efficiency".into(), Value::from(efficiency));
            r.insert(
                "allreduce_bytes_per_step".into(),
                Value::from(bytes_per_step),
            );
            rows.push(Value::Object(r));
        }
    }

    let mut root = Map::new();
    root.insert("bench".into(), Value::from("dp"));
    root.insert(
        "mode".into(),
        Value::from(if quick { "quick" } else { "full" }),
    );
    root.insert("reps".into(), Value::from(reps as u64));
    root.insert("steps".into(), Value::from(steps as u64));
    root.insert(
        "per_replica_batch".into(),
        Value::from(per_replica_batch as u64),
    );
    root.insert("cores".into(), Value::from(cores));
    root.insert("core_starved".into(), Value::from(core_starved));
    let mut model = Map::new();
    model.insert("layers".into(), Value::from(cfg.layers as u64));
    model.insert("hidden".into(), Value::from(cfg.hidden as u64));
    model.insert("seq".into(), Value::from(cfg.seq as u64));
    root.insert("model".into(), Value::Object(model));
    root.insert("results".into(), Value::Array(rows));
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("sweep serializes");
    std::fs::write(&out_path, json).expect("write BENCH_dp.json");
    println!("wrote {out_path}");
}
