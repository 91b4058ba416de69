//! Non-GEMM kernel sweep of the vectorized row/elementwise engine.
//!
//! Covers layernorm fwd/bwd, GELU fwd/bwd, row softmax fwd/bwd, bias
//! add/grad, add/axpy, and the fused Adam step over GPT activation row
//! shapes (`[tokens, d_model]`) and cache-resident flat Adam sizes, plus the
//! layer stream's fused half-precision round-copy over one streamed block.
//! Reports per-op wall time and writes the whole sweep to `BENCH_ops.json`
//! (override the path with `BENCH_OPS_OUT`) so the op perf trajectory is
//! diffable across PRs.
//!
//! `STRONGHOLD_OBENCH_QUICK=1` switches to a bounded smoke sweep (small
//! shapes, one rep) used by the `ci.sh` op-bench step to catch bench
//! bit-rot and output-format drift without paying for the full sweep.
//!
//! Run with `cargo bench --bench ops` (harness = false).

use std::time::Instant;

use serde_json::{Map, Value};
use stronghold_model::config::ModelConfig;
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::{ops, pool, simd};
use stronghold_tensor::{scratch, Precision, Tensor};

/// Best-of-`reps` wall nanoseconds for `f`. One untimed warmup call
/// first, so one-time costs (ISA detection, scratch-pool growth) don't
/// skew small shapes.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

struct Row {
    op: &'static str,
    rows: usize,
    cols: usize,
    ns_new: f64,
    /// Bytes the op touches per element, for the rows that measure memory
    /// bandwidth (reported as `gbps`).
    bytes_per_elem: Option<usize>,
}

/// Benchmarks every row-shaped op at `[rows, cols]`, pushing one result
/// row per op.
fn sweep_row_ops(rows: usize, cols: usize, reps: usize, out: &mut Vec<Row>) {
    let mut rng = seeded_rng(0x0B5);
    let x = normal([rows, cols], 1.0, &mut rng);
    let dy = normal([rows, cols], 1.0, &mut rng);
    let gamma = normal([cols], 0.2, &mut rng);
    let beta = normal([cols], 0.2, &mut rng);
    let bias = normal([cols], 0.2, &mut rng);
    let sm = ops::softmax_rows(&x);
    let mut push = |op, ns_new| {
        out.push(Row {
            op,
            rows,
            cols,
            ns_new,
            bytes_per_elem: None,
        })
    };

    // The vectorized path draws outputs from the thread-local scratch
    // pool and the trainers give them back each step; the bench mirrors
    // that steady state with `scratch::give`.
    push(
        "layernorm_fwd",
        time_ns(reps, || {
            let (y, c) = ops::layernorm(&x, &gamma, &beta, 1e-5);
            std::hint::black_box((&y, &c));
            scratch::give(y);
        }),
    );

    let (_, cache) = ops::layernorm(&x, &gamma, &beta, 1e-5);
    let mut dg = Tensor::zeros([cols]);
    let mut db = Tensor::zeros([cols]);
    push(
        "layernorm_bwd",
        time_ns(reps, || {
            let dx = ops::layernorm_backward(&dy, &x, &gamma, &cache, &mut dg, &mut db);
            std::hint::black_box(&dx);
            scratch::give(dx);
        }),
    );

    push(
        "gelu_fwd",
        time_ns(reps, || {
            let y = ops::gelu(&x);
            std::hint::black_box(&y);
            scratch::give(y);
        }),
    );
    push(
        "gelu_bwd",
        time_ns(reps, || {
            let y = ops::gelu_backward(&dy, &x);
            std::hint::black_box(&y);
            scratch::give(y);
        }),
    );

    push(
        "softmax_fwd",
        time_ns(reps, || {
            let y = ops::softmax_rows(&x);
            std::hint::black_box(&y);
            scratch::give(y);
        }),
    );
    push(
        "softmax_bwd",
        time_ns(reps, || {
            let y = ops::softmax_rows_backward(&dy, &sm);
            std::hint::black_box(&y);
            scratch::give(y);
        }),
    );

    let mut buf = x.clone();
    push(
        "bias_add",
        time_ns(reps, || {
            ops::add_bias(&mut buf, &bias);
            std::hint::black_box(&buf);
        }),
    );
    let mut dbias = Tensor::zeros([cols]);
    push(
        "bias_grad",
        time_ns(reps, || {
            ops::bias_grad_acc(&dy, &mut dbias);
            std::hint::black_box(&dbias);
        }),
    );

    push(
        "add",
        time_ns(reps, || {
            let y = ops::add(&x, &dy);
            std::hint::black_box(&y);
            scratch::give(y);
        }),
    );
    let mut acc = x.clone();
    push(
        "axpy",
        time_ns(reps, || {
            ops::axpy(&mut acc, 1e-6, &dy);
            std::hint::black_box(&acc);
        }),
    );
}

/// Same memory traffic as an Adam step (read p/g/m/v, write p/m/v) with
/// near-zero arithmetic: one multiply-add per stream, which LLVM
/// auto-vectorizes. Establishes the machine's bandwidth floor for the
/// `adam_bw_floor` row — no correct Adam kernel can run faster, so the
/// `adam` row over this one is how far the fused step sits from the
/// ceiling on this host.
fn adam_traffic_floor(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
    for (((pi, &gi), mi), vi) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        *mi = 0.999 * *mi + 0.001 * gi;
        *vi = 0.999 * *vi + 0.001 * gi;
        *pi = 0.999 * *pi + 0.001 * *mi;
    }
}

/// Benchmarks the fused Adam step over a flat `n`-parameter group.
fn sweep_adam(n: usize, reps: usize, out: &mut Vec<Row>) {
    let mut rng = seeded_rng(0xADA);
    let mut params: Vec<f32> = normal([n], 0.5, &mut rng).into_vec();
    let grads: Vec<f32> = normal([n], 0.5, &mut rng).into_vec();
    let mut m = vec![0.0f32; n];
    let mut v = vec![0.0f32; n];
    let ns_new = time_ns(reps, || {
        ops::adam_fused(
            &mut params,
            &grads,
            &mut m,
            &mut v,
            0.9,
            0.999,
            1.5e-4,
            1.5e-6,
            1e-8,
        );
        std::hint::black_box(&params);
    });
    out.push(Row {
        op: "adam",
        rows: 1,
        cols: n,
        ns_new,
        bytes_per_elem: None,
    });
    let ns_floor = time_ns(reps, || {
        adam_traffic_floor(&mut params, &grads, &mut m, &mut v);
        std::hint::black_box(&params);
    });
    out.push(Row {
        op: "adam_bw_floor",
        rows: 1,
        cols: n,
        ns_new: ns_floor,
        // Read p/g/m/v, write p/m/v.
        bytes_per_elem: Some(28),
    });
}

/// Benchmarks the layer stream's fused round-copy (read f32, round through
/// the half format, write f32: 8 B/element) over one flat `n`-parameter
/// block — with `adam_bw_floor`, the two bandwidths a streamed step's time
/// floor is made of.
fn sweep_round_copy(n: usize, reps: usize, out: &mut Vec<Row>) {
    let src: Vec<f32> = normal([n], 0.5, &mut seeded_rng(0xC0F)).into_vec();
    let mut dst = vec![0.0f32; n];
    for (op, precision) in [
        ("round_copy_bf16", Precision::Bf16),
        ("round_copy_f16", Precision::F16),
    ] {
        let ns_new = time_ns(reps, || {
            simd::round_copy(precision, &src, &mut dst);
            std::hint::black_box(&dst);
        });
        out.push(Row {
            op,
            rows: 1,
            cols: n,
            ns_new,
            bytes_per_elem: Some(8),
        });
    }
}

fn main() {
    let quick = std::env::var("STRONGHOLD_OBENCH_QUICK").is_ok_and(|v| v == "1");
    // cargo runs benches with cwd = the package dir; default the output
    // to the workspace root so the sweep lands next to the other BENCH
    // artifacts regardless of invocation directory.
    let out_path = std::env::var("BENCH_OPS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ops.json").to_string()
    });
    // Row shapes are GPT activations [tokens, d_model] (plus the 4·d MLP
    // width); Adam sizes are cache-resident square parameter groups, so
    // the sweep measures kernel throughput rather than DRAM bandwidth. The
    // round-copy runs over one block of strongbench's 8 x 512 streamed
    // model (3.15 M elements), which is DRAM-bound by design.
    let block = |h: usize| ModelConfig::new(1, h, 1).block_params() as usize;
    let (row_shapes, adam_sizes, reps): (&[(usize, usize)], &[usize], usize) = if quick {
        (&[(64, 96)], &[96 * 96], 1)
    } else {
        // Best-of-11: this host is a shared/virtualized single core and
        // per-call jitter from CPU steal is routinely 2×, so a small rep
        // count misattributes noise to whichever side it lands on.
        (
            &[(1024, 512), (1024, 768), (1024, 1024), (1024, 4096)],
            &[512 * 512, 768 * 768, 1024 * 1024],
            11,
        )
    };

    println!(
        "non-GEMM op sweep ({} mode, {reps} rep(s), {} pool threads)",
        if quick { "quick" } else { "full" },
        pool::current_num_threads(),
    );

    let mut results = Vec::new();
    for &(rows, cols) in row_shapes {
        sweep_row_ops(rows, cols, reps, &mut results);
    }
    for &n in adam_sizes {
        sweep_adam(n, reps, &mut results);
    }
    sweep_round_copy(block(if quick { 32 } else { 512 }), reps, &mut results);

    println!(
        "{:<15} {:>6} {:>8}  {:>12}  {:>6}",
        "op", "rows", "cols", "ns", "GB/s"
    );
    let mut rows_json: Vec<Value> = Vec::new();
    for r in &results {
        // Bytes per nanosecond is GB/s.
        let gbps = r
            .bytes_per_elem
            .map(|b| (r.rows * r.cols * b) as f64 / r.ns_new);
        println!(
            "{:<15} {:>6} {:>8}  {:>12.0}  {}",
            r.op,
            r.rows,
            r.cols,
            r.ns_new,
            gbps.map_or(String::new(), |g| format!("{g:>6.1}"))
        );
        let mut row = Map::new();
        row.insert("op".into(), Value::from(r.op));
        row.insert("rows".into(), Value::from(r.rows as u64));
        row.insert("cols".into(), Value::from(r.cols as u64));
        row.insert("ns_new".into(), Value::from(r.ns_new));
        if let Some(g) = gbps {
            row.insert("gbps".into(), Value::from(g));
        }
        rows_json.push(Value::Object(row));
    }

    let mut root = Map::new();
    root.insert("bench".into(), Value::from("ops"));
    root.insert(
        "mode".into(),
        Value::from(if quick { "quick" } else { "full" }),
    );
    root.insert("reps".into(), Value::from(reps as u64));
    root.insert(
        "threads".into(),
        Value::from(pool::current_num_threads() as u64),
    );
    // Same machine stamp the other sweeps carry: op timings from a box
    // whose kernel pool exceeds its cores measure time-slicing, not kernels.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    root.insert("cores".into(), Value::from(cores));
    root.insert(
        "core_starved".into(),
        Value::from(cores < pool::current_num_threads() as u64),
    );
    root.insert("results".into(), Value::Array(rows_json));
    let json = serde_json::to_string_pretty(&Value::Object(root)).expect("sweep serializes");
    std::fs::write(&out_path, json).expect("write BENCH_ops.json");
    println!("wrote {out_path}");
}
