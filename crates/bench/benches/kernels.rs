//! GEMM kernel shape sweep of the blocked engine.
//!
//! Runs every layout (`nn`, `nt`, `tn`) over the square sizes and the
//! GPT-block shapes the paper experiments exercise, reports GFLOP/s, and
//! writes the whole sweep to `BENCH_kernels.json` (override the path with
//! `BENCH_KERNELS_OUT`) so the kernel perf trajectory is diffable across
//! PRs.
//!
//! A second section measures **what the runtime runs**: the three GEMMs
//! each of a block's four linears issues (forward `nt`, input-gradient
//! `nn`, weight-gradient `tn`) at the row counts of the strongbench
//! trainers — `M = 127` over hidden 256 and `M = 15` over hidden 512 — and
//! the two per-head attention products, each once on one thread and once
//! at `threads = cores`, with the parallel speedup per shape and a
//! `parallel_never_slower` verdict (`"unverified"` below two cores).
//!
//! `STRONGHOLD_KBENCH_QUICK=1` switches to a bounded smoke sweep (small
//! shapes, one rep) used by the `ci.sh` kernel-bench step to catch bench
//! bit-rot and output-format drift without paying for the full sweep.
//!
//! Run with `cargo bench --bench kernels` (harness = false).

use std::time::Instant;

use serde_json::{Map, Value};
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::matmul::{self, matmul, matmul_nt, matmul_tn};
use stronghold_tensor::Tensor;

/// One benchmarked GEMM shape: `C[m,n] = op(A) · op(B)` with depth `k`.
struct SweepShape {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

const fn shape(label: &'static str, m: usize, k: usize, n: usize) -> SweepShape {
    SweepShape { label, m, k, n }
}

/// Square sizes plus the GPT block shapes from the experiment configs:
/// fused QKV projection, MLP up/down, a per-head attention-score GEMM,
/// and the tall-K weight-gradient shape the old `m·n` parallel threshold
/// mis-classified.
const FULL_SWEEP: &[SweepShape] = &[
    shape("sq256", 256, 256, 256),
    shape("sq512", 512, 512, 512),
    shape("sq1024", 1024, 1024, 1024),
    shape("qkv_proj", 1024, 1024, 3072),
    shape("mlp_up", 1024, 1024, 4096),
    shape("mlp_down", 1024, 4096, 1024),
    shape("attn_scores_head", 1024, 64, 1024),
    shape("grad_tall_k", 256, 8192, 256),
];

/// Smoke sweep: tiny, deliberately non-multiple-of-tile shapes.
const QUICK_SWEEP: &[SweepShape] = &[shape("sq96", 96, 96, 96), shape("odd", 129, 67, 93)];

/// The products one linear layer (`in → out` features) issues for an
/// `rows`-token sample: forward `x·Wᵀ`, input gradient `dy·W`, weight
/// gradient `dyᵀ·x`.
fn linear_gemms(label: &str, rows: usize, inf: usize, out: usize) -> Vec<RuntimeShape> {
    vec![
        RuntimeShape::new(format!("{label}_fwd"), "nt", rows, inf, out),
        RuntimeShape::new(format!("{label}_dx"), "nn", rows, out, inf),
        RuntimeShape::new(format!("{label}_dw"), "tn", out, rows, inf),
    ]
}

/// One product the training runtime issues, in one layout.
struct RuntimeShape {
    label: String,
    layout: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

impl RuntimeShape {
    fn new(label: String, layout: &'static str, m: usize, k: usize, n: usize) -> Self {
        RuntimeShape {
            label,
            layout,
            m,
            k,
            n,
        }
    }
}

/// Every GEMM of a strongbench training step: `train-compute` (hidden
/// 256, 127 rows, 8 heads of width 32) and `train-stream` / `train-spill`
/// (hidden 512, 15 rows).
fn runtime_shapes() -> Vec<RuntimeShape> {
    let mut shapes = Vec::new();
    for (rows, h) in [(127usize, 256usize), (15, 512)] {
        for (name, inf, out) in [
            ("qkv", h, 3 * h),
            ("proj", h, h),
            ("fc1", h, 4 * h),
            ("fc2", 4 * h, h),
        ] {
            shapes.extend(linear_gemms(&format!("{name}_m{rows}"), rows, inf, out));
        }
    }
    shapes.push(RuntimeShape::new(
        "head_scores_m127".into(),
        "nt",
        127,
        32,
        127,
    ));
    shapes.push(RuntimeShape::new(
        "head_context_m127".into(),
        "nn",
        127,
        127,
        32,
    ));
    shapes
}

/// A parallel row this much below its one-thread twin still counts as
/// "not slower": best-of timings of ~100 µs kernels repeat to a few percent.
const NEVER_SLOWER_TOLERANCE: f64 = 0.95;

/// Times every runtime shape on one thread and on `cores` threads; returns
/// the rows and whether no parallel row lost to its one-thread twin.
fn runtime_sweep(reps: usize, cores: usize) -> (Vec<Value>, bool) {
    let pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
    };
    println!(
        "\n{:<22} {:>5} {:>5} {:>5}  {:>3}  {:>10} {:>12} {:>8}",
        "runtime shape", "m", "k", "n", "op", "1t GF/s", "cores GF/s", "speedup"
    );
    let mut rows = Vec::new();
    let mut never_slower = true;
    for s in runtime_shapes() {
        let (m, k, n) = (s.m, s.k, s.n);
        let flops = 2 * (m * k * n) as u64;
        let mut rng = seeded_rng(0xB00D);
        let (a, b) = match s.layout {
            "nn" => (normal([m, k], 1.0, &mut rng), normal([k, n], 1.0, &mut rng)),
            "nt" => (normal([m, k], 1.0, &mut rng), normal([n, k], 1.0, &mut rng)),
            _ => (normal([k, m], 1.0, &mut rng), normal([k, n], 1.0, &mut rng)),
        };
        let mut c = Tensor::zeros([m, n]);
        let mut run = |threads: usize| {
            pool(threads).install(|| {
                time_gflops(flops, reps, || match s.layout {
                    "nn" => matmul::matmul_into(&a, &b, &mut c),
                    "nt" => matmul::matmul_nt_into(&a, &b, &mut c),
                    _ => matmul::matmul_tn_into(&a, &b, &mut c),
                })
            })
        };
        let gf_1t = run(1);
        let gf_par = run(cores);
        let speedup = gf_par / gf_1t;
        never_slower &= speedup >= NEVER_SLOWER_TOLERANCE;
        println!(
            "{:<22} {:>5} {:>5} {:>5}  {:>3}  {:>10.2} {:>12.2} {:>7.2}x",
            s.label, m, k, n, s.layout, gf_1t, gf_par, speedup
        );
        for (threads, gflops) in [(1, gf_1t), (cores, gf_par)] {
            let mut row = Map::new();
            row.insert("shape".into(), Value::from(s.label.as_str()));
            row.insert("m".into(), Value::from(m as u64));
            row.insert("k".into(), Value::from(k as u64));
            row.insert("n".into(), Value::from(n as u64));
            row.insert("layout".into(), Value::from(s.layout));
            row.insert("flops".into(), Value::from(flops));
            row.insert("threads".into(), Value::from(threads as u64));
            row.insert("gflops".into(), Value::from(gflops));
            row.insert("parallel_speedup".into(), Value::from(speedup));
            rows.push(Value::Object(row));
        }
    }
    (rows, never_slower)
}

/// Best-of-`reps` wall time for `f`, as mean GFLOP/s of the fastest rep.
/// One untimed warmup call first, so one-time costs (ISA detection,
/// thread-local pack-scratch growth) don't skew small shapes.
fn time_gflops<R>(flops: u64, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(out);
        best = best.min(dt);
    }
    flops as f64 / best / 1e9
}

fn main() {
    let quick = std::env::var("STRONGHOLD_KBENCH_QUICK").is_ok_and(|v| v == "1");
    // cargo runs benches with cwd = the package dir; default the output
    // to the workspace root so the sweep lands next to the other BENCH
    // artifacts regardless of invocation directory.
    let out_path = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    let (shapes, reps) = if quick {
        (QUICK_SWEEP, 1)
    } else {
        (FULL_SWEEP, 3)
    };

    println!(
        "GEMM kernel sweep ({} mode, {reps} rep(s), {} threads)",
        if quick { "quick" } else { "full" },
        rayon::current_num_threads(),
    );
    println!(
        "{:<18} {:>5} {:>5} {:>5}  {:>3}  {:>10}",
        "shape", "m", "k", "n", "op", "GF/s"
    );

    let mut rows: Vec<Value> = Vec::new();
    for s in shapes {
        let (m, k, n) = (s.m, s.k, s.n);
        let flops = 2 * (m * k * n) as u64;
        let mut rng = seeded_rng(0xB00C);
        let a_nn = normal([m, k], 1.0, &mut rng); // NN / NT left operand
        let b_nn = normal([k, n], 1.0, &mut rng); // NN right operand
        let b_nt = normal([n, k], 1.0, &mut rng); // NT right operand (stored [N,K])
        let a_tn = normal([k, m], 1.0, &mut rng); // TN left operand (stored [K,M])

        for layout in ["nn", "nt", "tn"] {
            let gf_new = time_gflops(flops, reps, || match layout {
                "nn" => matmul(&a_nn, &b_nn),
                "nt" => matmul_nt(&a_nn, &b_nt),
                _ => matmul_tn(&a_tn, &b_nn),
            });
            println!(
                "{:<18} {:>5} {:>5} {:>5}  {:>3}  {:>10.2}",
                s.label, m, k, n, layout, gf_new
            );
            let mut row = Map::new();
            row.insert("shape".into(), Value::from(s.label));
            row.insert("m".into(), Value::from(m as u64));
            row.insert("k".into(), Value::from(k as u64));
            row.insert("n".into(), Value::from(n as u64));
            row.insert("layout".into(), Value::from(layout));
            row.insert("flops".into(), Value::from(flops));
            row.insert("gflops_new".into(), Value::from(gf_new));
            rows.push(Value::Object(row));
        }
    }

    let mut root = Map::new();
    root.insert("bench".into(), Value::from("kernels"));
    root.insert(
        "mode".into(),
        Value::from(if quick { "quick" } else { "full" }),
    );
    root.insert("reps".into(), Value::from(reps as u64));
    root.insert(
        "threads".into(),
        Value::from(rayon::current_num_threads() as u64),
    );
    // Threaded GFLOP/s depend on physical parallelism; flag runs where the
    // rayon pool outnumbers the cores so figures aren't compared across
    // differently-starved machines.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    root.insert("cores".into(), Value::from(cores));
    root.insert(
        "core_starved".into(),
        Value::from(cores < rayon::current_num_threads() as u64),
    );
    root.insert("results".into(), Value::Array(rows));
    // µs-scale kernels: many reps, so best-of finds a quiet one.
    let (runtime_rows, never_slower) = runtime_sweep(if quick { 3 } else { 300 }, cores as usize);
    root.insert("runtime_shapes".into(), Value::Array(runtime_rows));
    root.insert(
        "parallel_never_slower".into(),
        if cores < 2 {
            Value::from("unverified")
        } else {
            Value::from(never_slower)
        },
    );
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("sweep serializes");
    std::fs::write(&out_path, json).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
