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
//! A third section measures the serving decode linears (hidden 256, the
//! `serve-closed` model) at `m ∈ {1, 4, 8, 16}` stacked rows, and the
//! `train-stream` linears (hidden 512) at its `m = 15`: the batch-stable
//! product that packs the weight on every call against the pre-packed one
//! that reads a [`matmul::PackedNt`] image, in µs per call — the gap is
//! what the per-call `nt` pack costs a token-light product.
//!
//! A fourth section (`decode_attention`) measures one head's serving
//! attention (`dh = 32`, the `serve-closed` head) for `rows ∈ {1, 56}` new
//! rows over `pos ∈ {16, 64, 128}` cached positions: row at a time with
//! the cached keys and values packed on every product (`_stable`), against
//! one scores and one context product reading the panel-layout
//! [`KvCache`], in µs per head.
//!
//! `STRONGHOLD_KBENCH_QUICK=1` switches to a bounded smoke sweep (small
//! shapes, one rep) used by the `ci.sh` kernel-bench step to catch bench
//! bit-rot and output-format drift without paying for the full sweep.
//!
//! Run with `cargo bench --bench kernels` (harness = false).

use std::time::Instant;

use serde_json::{Map, Value};
use stronghold_tensor::attention::{Attention, DecodeScratch, KvCache};
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::matmul::{self, matmul, matmul_nt, matmul_tn};
use stronghold_tensor::pool;
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

/// Times every runtime shape on one thread and on `cores` threads, best of
/// `reps` each; returns the rows and whether no parallel row lost to its
/// one-thread twin. The twins take turns rep by rep (after one untimed
/// warmup each), so a slow stretch on a shared box hits both alike.
fn runtime_sweep(reps: usize, cores: usize) -> (Vec<Value>, bool) {
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
        let mut best = [f64::INFINITY; 2];
        for rep in 0..=reps {
            for (threads, best) in [1, cores].into_iter().zip(&mut best) {
                let dt = pool::with_threads(threads, || {
                    let t0 = Instant::now();
                    match s.layout {
                        "nn" => matmul::matmul_into(&a, &b, &mut c),
                        "nt" => matmul::matmul_nt_into(&a, &b, &mut c),
                        _ => matmul::matmul_tn_into(&a, &b, &mut c),
                    }
                    t0.elapsed().as_secs_f64()
                });
                if rep > 0 {
                    *best = best.min(dt);
                }
            }
        }
        let [gf_1t, gf_par] = best.map(|dt| flops as f64 / dt / 1e9);
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

/// Times the four linears of a block, packing the weight per call
/// (`_stable`) and reading it pre-packed, on the default pool as the
/// runtime runs them: a hidden-256 block at each serving decode row count
/// (`_decode` rows) and a hidden-512 block at `train-stream`'s 15 rows
/// (`_train` rows).
fn decode_sweep(reps: usize) -> Vec<Value> {
    println!(
        "\n{:<18} {:>3} {:>5} {:>5}  {:>10} {:>10} {:>8}",
        "decode shape", "m", "k", "n", "stable µs", "packed µs", "speedup"
    );
    let mut rows = Vec::new();
    let sizes = [
        (256, &[1usize, 4, 8, 16][..], "decode"),
        (512, &[15][..], "train"),
    ];
    for (h, ms, role) in sizes {
        for (name, k, n) in [
            ("qkv", h, 3 * h),
            ("proj", h, h),
            ("fc1", h, 4 * h),
            ("fc2", 4 * h, h),
        ] {
            let mut rng = seeded_rng(0xB00E);
            let w = normal([n, k], 1.0, &mut rng);
            let image = matmul::PackedNt::pack(&w);
            for &m in ms {
                let x = normal([m, k], 1.0, &mut rng);
                let mut y = vec![0.0f32; m * n];
                let flops = 2 * (m * k * n) as u64;
                let us = |gflops: f64| flops as f64 / gflops / 1e3;
                let us_stable = us(time_gflops(flops, reps, || {
                    matmul::matmul_nt_stable(x.data(), w.data(), &mut y, m, k, n)
                }));
                let us_packed = us(time_gflops(flops, reps, || {
                    matmul::matmul_packed(x.data(), image.view(), &mut y, m)
                }));
                let label = format!("{name}_m{m}_{role}");
                println!(
                    "{label:<18} {m:>3} {k:>5} {n:>5}  {us_stable:>10.1} {us_packed:>10.1} {:>7.2}x",
                    us_stable / us_packed
                );
                let mut row = Map::new();
                row.insert("shape".into(), Value::from(label));
                row.insert("m".into(), Value::from(m as u64));
                row.insert("k".into(), Value::from(k as u64));
                row.insert("n".into(), Value::from(n as u64));
                row.insert("us_stable".into(), Value::from(us_stable));
                row.insert("us_packed".into(), Value::from(us_packed));
                rows.push(Value::Object(row));
            }
        }
    }
    rows
}

/// Times one head's decode attention products for `rows` new rows over
/// `pos` cached positions: the row-at-a-time path (per row, a scores and a
/// context product, each packing the K or V prefix it reads) against one
/// scores and one context product over all rows, reading the panel-layout
/// cache. Scores stand in for probabilities: the products' cost does not
/// depend on the values.
fn attention_sweep(reps: usize) -> Vec<Value> {
    println!(
        "\n{:<18} {:>4} {:>4}  {:>10} {:>10} {:>8}",
        "decode attention", "rows", "pos", "per-call µs", "panels µs", "speedup"
    );
    let dh = 32;
    let mut out = Vec::new();
    for rows in [1usize, 56] {
        for pos in [16usize, 64, 128] {
            let n = pos + rows;
            let mut rng = seeded_rng(0xB00F);
            let attn = Attention::new(dh, 1, &mut rng);
            let mut cache = KvCache::new(1, dh, n);
            let mut y = Tensor::zeros([1]);
            let x = normal([n, dh], 1.0, &mut rng);
            attn.forward_decode(&x, &mut cache, &mut DecodeScratch::new(), &mut y);
            let (k, v) = (
                normal([n, dh], 1.0, &mut rng),
                normal([n, dh], 1.0, &mut rng),
            );
            let q = normal([rows, dh], 1.0, &mut rng);
            let mut scores = vec![0.0f32; rows * n];
            let mut ctx = vec![0.0f32; rows * dh];
            // The rate of a one-FLOP call is 1e-9 / seconds: its inverse, in µs.
            let us = |gflops: f64| 1.0 / gflops / 1e3;
            let us_per_call = us(time_gflops(1, reps, || {
                for r in 0..rows {
                    let live = pos + r + 1;
                    let (qr, s) = (&q.data()[r * dh..(r + 1) * dh], &mut scores[..live]);
                    matmul::matmul_nt_stable(qr, k.data(), s, 1, dh, live);
                    let c = &mut ctx[r * dh..(r + 1) * dh];
                    matmul::matmul_nn_stable(s, v.data(), c, 1, live, dh);
                }
            }));
            let us_panels = us(time_gflops(1, reps, || {
                matmul::matmul_packed(q.data(), cache.key_panels(0), &mut scores, rows);
                matmul::matmul_packed(&scores, cache.value_panels(0), &mut ctx, rows);
            }));
            let label = format!("attn_r{rows}_p{pos}");
            println!(
                "{label:<18} {rows:>4} {pos:>4}  {us_per_call:>10.2} {us_panels:>10.2} {:>7.2}x",
                us_per_call / us_panels
            );
            let mut row = Map::new();
            row.insert("shape".into(), Value::from(label));
            row.insert("rows".into(), Value::from(rows as u64));
            row.insert("pos".into(), Value::from(pos as u64));
            row.insert("dh".into(), Value::from(dh as u64));
            row.insert("us_per_call".into(), Value::from(us_per_call));
            row.insert("us_panels".into(), Value::from(us_panels));
            out.push(Value::Object(row));
        }
    }
    out
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
        pool::current_num_threads(),
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
        Value::from(pool::current_num_threads() as u64),
    );
    // Threaded GFLOP/s depend on physical parallelism; flag runs where the
    // kernel pool outnumbers the cores so figures aren't compared across
    // differently-starved machines.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    root.insert("cores".into(), Value::from(cores));
    root.insert(
        "core_starved".into(),
        Value::from(cores < pool::current_num_threads() as u64),
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
    root.insert(
        "decode_shapes".into(),
        Value::Array(decode_sweep(if quick { 3 } else { 2000 })),
    );
    root.insert(
        "decode_attention".into(),
        Value::Array(attention_sweep(if quick { 3 } else { 2000 })),
    );
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("sweep serializes");
    std::fs::write(&out_path, json).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
