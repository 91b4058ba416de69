//! `strongbench` — the end-to-end + per-layer benchmark of the STRONGHOLD
//! host runtime. See `benchmark/README.md` for the workloads, the metric
//! map and the public API surface this binary compiles against.
//!
//! ```text
//! strongbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//! strongbench run --seed N --out FILE [--seconds S] [--quick]
//! strongbench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! Every measurement runs in a child process of its own (`strongbench child
//! --phase measure|check|trace …`), so set-up is timed from a cold process
//! start and peak RSS belongs to one workload alone.

mod compare;
mod inputs;
mod metrics;
mod probes;
mod serve;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::{Map, Value};

use inputs::{Spec, WORKLOADS};
use metrics::{Def, Metrics, END_TO_END, PER_LAYER};

const USAGE: &str = "usage:
  strongbench --workload W --seed N --seconds S --trace 0|1 [--quick]
  strongbench run --seed N --out FILE [--seconds S] [--quick]
  strongbench compare A.json B.json [--bounds BENCHMARK.json]
workloads: train-compute train-stream train-spill serve-closed";

/// Fresh processes an untraced run is split over, each timing a third of
/// `--seconds`: step times vary from process to process (memory placement,
/// thread placement) by more than they vary inside one, so the run pools
/// several. `setup_s` is the median of their set-up times.
const PROCESSES_PER_RUN: usize = 3;

/// What one phase of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub per_layer: Metrics,
    /// Wall time of every traced step after set-up (trace phase only).
    pub traced_step_ms: Vec<f64>,
    /// Step times of the resident baseline (training check phase only).
    pub resident_step_ms: Vec<f64>,
    /// Operations attempted and failed: training steps, served requests and
    /// output checks.
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one output check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what);
        }
    }

    /// Records a value that lets two runs of one seed be diffed.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// The `tensor.gemm_*_per_step` metrics: the process-wide kernel totals
    /// since the last `matmul::stats::reset`, divided over `steps`.
    pub fn record_gemm_stats(&mut self, steps: usize) {
        let gemm = stronghold_tensor::matmul::stats::snapshot();
        let per_step = |total: u64| total as f64 / steps.max(1) as f64;
        let m = &mut self.per_layer;
        for (layout, name) in gemm.iter().zip([
            "tensor.gemm_nn_ms_per_step",
            "tensor.gemm_nt_ms_per_step",
            "tensor.gemm_tn_ms_per_step",
        ]) {
            m.set(name, per_step(layout.nanos) / 1e6, steps);
        }
        let calls = gemm.iter().map(|g| g.calls).sum();
        let flops = gemm.iter().map(|g| g.flops).sum();
        m.set("tensor.gemm_calls_per_step", per_step(calls), steps);
        m.set("tensor.gemm_flops_per_step", per_step(flops), steps);
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one untraced timing process saw. A step is one `train_step` or one
/// `ServeEngine::step` round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Observation {
    /// Process start to the end of the warm-up steps / requests.
    pub setup_s: f64,
    pub step_ms: Vec<f64>,
    /// Tokens trained on or generated, and wall time, inside the window.
    pub tokens: usize,
    pub wall_s: f64,
    pub peak_device_bytes: u64,
    pub peak_rss_mb: f64,
    /// Serving only: per request finished inside the window, on the
    /// benchmark's own submit clock.
    pub queue_wait_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    pub request_ms: Vec<f64>,
}

fn floats_to_json(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|x| Value::from(*x)).collect())
}

fn floats_from_json(v: &Value) -> Option<Vec<f64>> {
    Some(v.as_array()?.iter().filter_map(Value::as_f64).collect())
}

impl Observation {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("setup_s".into(), Value::from(self.setup_s));
        m.insert("tokens".into(), Value::from(self.tokens as u64));
        m.insert("wall_s".into(), Value::from(self.wall_s));
        m.insert(
            "peak_device_bytes".into(),
            Value::from(self.peak_device_bytes),
        );
        m.insert("peak_rss_mb".into(), Value::from(self.peak_rss_mb));
        for (key, samples) in [
            ("step_ms", &self.step_ms),
            ("queue_wait_ms", &self.queue_wait_ms),
            ("ttft_ms", &self.ttft_ms),
            ("itl_ms", &self.itl_ms),
            ("request_ms", &self.request_ms),
        ] {
            m.insert(key.into(), floats_to_json(samples));
        }
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Option<Observation> {
        Some(Observation {
            setup_s: v["setup_s"].as_f64()?,
            step_ms: floats_from_json(&v["step_ms"])?,
            tokens: v["tokens"].as_u64()? as usize,
            wall_s: v["wall_s"].as_f64()?,
            peak_device_bytes: v["peak_device_bytes"].as_u64()?,
            peak_rss_mb: v["peak_rss_mb"].as_f64()?,
            queue_wait_ms: floats_from_json(&v["queue_wait_ms"])?,
            ttft_ms: floats_from_json(&v["ttft_ms"])?,
            itl_ms: floats_from_json(&v["itl_ms"])?,
            request_ms: floats_from_json(&v["request_ms"])?,
        })
    }
}

/// The end-to-end metrics of one untraced run, pooled over its processes:
/// medians over all their steps and set-ups, throughput over their summed
/// windows, peaks as the largest any of them reached.
fn pool(observations: &[Observation]) -> Metrics {
    let setups: Vec<f64> = observations.iter().map(|o| o.setup_s).collect();
    let steps: Vec<f64> = observations
        .iter()
        .flat_map(|o| o.step_ms.clone())
        .collect();
    let tokens: usize = observations.iter().map(|o| o.tokens).sum();
    let wall: f64 = observations.iter().map(|o| o.wall_s).sum();
    let peak = |f: fn(&Observation) -> f64| observations.iter().map(f).fold(0.0, f64::max);
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups), setups.len());
    m.set("tokens_per_s", tokens as f64 / wall, steps.len());
    m.set("step_ms_p50", stats::median(&steps), steps.len());
    m.set(
        "peak_device_bytes",
        peak(|o| o.peak_device_bytes as f64),
        observations.len(),
    );
    m.set("peak_rss_mb", peak(|o| o.peak_rss_mb), observations.len());
    m
}

/// The per-layer metrics that need processes of their own beside the traced
/// one: the untraced step times, the resident baseline's and their ratio
/// (training), the bench-clock latencies (serving), and the cost of tracing
/// itself — traced over untraced median step, over the same steps counted
/// from set-up so that a warm-up transient weighs on both sides alike.
fn untraced_per_layer(
    seen: &Observation,
    traced_step_ms: &[f64],
    resident_step_ms: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let steps = &seen.step_ms;
    let same_steps = &steps[..traced_step_ms.len().min(steps.len())];
    m.set(
        "telemetry.overhead_share",
        stats::median(traced_step_ms) / stats::median(same_steps) - 1.0,
        same_steps.len(),
    );
    if resident_step_ms.is_empty() {
        for (name, p, samples) in [
            ("serve.queue_wait_ms_p50", 50.0, &seen.queue_wait_ms),
            ("serve.ttft_ms_p50", 50.0, &seen.ttft_ms),
            ("serve.ttft_ms_p80", 80.0, &seen.ttft_ms),
            ("serve.itl_ms_p50", 50.0, &seen.itl_ms),
            ("serve.request_ms_p50", 50.0, &seen.request_ms),
            ("serve.request_ms_p80", 80.0, &seen.request_ms),
        ] {
            m.set(name, stats::percentile(samples, p), samples.len());
        }
    } else {
        let resident = stats::median(resident_step_ms);
        m.set("offloaded.step_ms_p50", stats::median(steps), steps.len());
        m.set(
            "offloaded.step_ms_p80",
            stats::percentile(steps, 80.0),
            steps.len(),
        );
        m.set("resident.step_ms_p50", resident, resident_step_ms.len());
        m.set(
            "resident.offloaded_over_resident",
            stats::median(steps) / resident,
            resident_step_ms.len(),
        );
    }
    m
}

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    phase: Option<String>,
    out: Option<PathBuf>,
    bounds: PathBuf,
    files: Vec<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        quick: false,
        phase: None,
        out: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            "--quick" => a.quick = true,
            "--phase" => a.phase = Some(value()?.clone()),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--bounds" => a.bounds = PathBuf::from(value()?),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            file => a.files.push(PathBuf::from(file)),
        }
    }
    if a.seconds.is_nan() {
        a.seconds = if a.quick { 0.5 } else { 15.0 };
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds: {} is not in (0, 60]", a.seconds));
    }
    Ok(a)
}

fn spec_of(a: &Args) -> Result<(String, Spec), String> {
    let name = a.workload.clone().ok_or("--workload is required")?;
    let spec = inputs::workload(&name, a.quick).ok_or(format!("unknown workload {name:?}"))?;
    Ok((name, spec))
}

/// A child process: one phase of one workload, result as JSON on the last
/// line of stdout.
fn child(a: &Args, t0: Instant) -> Result<(), String> {
    // The spill tier's swap file goes to the system temp directory; keep it
    // beside the executable so nothing is written outside the checkout.
    let tmp = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name("strongbench-tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let (_, spec) = spec_of(a)?;
    let mut out = Outcome::default();
    let mut root = Map::new();
    match (a.phase.as_deref(), spec) {
        (Some("measure"), spec) => {
            let seconds = a.seconds / PROCESSES_PER_RUN as f64;
            let seen = match spec {
                Spec::Train(s) => train::measure(&s, a.seed, seconds, t0, &mut out),
                Spec::Serve(s) => serve::measure(&s, a.seed, seconds, t0, &mut out),
            };
            root.insert("observation".into(), seen.to_json());
        }
        (Some("check"), spec) => {
            match spec {
                Spec::Train(s) => train::check(&s, a.seed, &mut out),
                Spec::Serve(s) => serve::check(&s, a.seed, &mut out),
            }
            root.insert(
                "resident_step_ms".into(),
                floats_to_json(&out.resident_step_ms),
            );
        }
        (Some("trace"), spec) => {
            match spec {
                Spec::Train(s) => train::trace(&s, a.seed, a.seconds, &mut out),
                Spec::Serve(s) => serve::trace(&s, a.seed, a.seconds, &mut out),
            }
            root.insert("per_layer".into(), out.per_layer.to_json(PER_LAYER));
            root.insert("traced_step_ms".into(), floats_to_json(&out.traced_step_ms));
        }
        (other, _) => return Err(format!("child: unknown phase {other:?}")),
    }
    root.insert("attempted".into(), Value::from(out.attempted));
    root.insert("failed".into(), Value::from(out.failed));
    root.insert(
        "failures".into(),
        Value::Array(out.failures.into_iter().map(Value::from).collect()),
    );
    let mut notes = Map::new();
    for (k, v) in out.notes {
        notes.insert(k.into(), Value::from(v));
    }
    root.insert("notes".into(), Value::Object(notes));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(root)).expect("serializes")
    );
    Ok(())
}

/// Runs one phase in a fresh process and parses the JSON it prints last.
/// The child has ended by the time this returns.
fn spawn(a: &Args, workload: &str, phase: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--phase", phase, "--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()]);
    if a.quick {
        cmd.arg("--quick");
    }
    let done = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {phase} child: {e}"))?;
    if !done.status.success() {
        return Err(format!("{workload} {phase} child: {}", done.status));
    }
    let stdout = String::from_utf8_lossy(&done.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{workload} {phase} child output: {e}"))
}

/// One workload's result, untraced or traced.
struct WorkloadResult {
    /// `{name: {value, unit, n}}` for every end-to-end (untraced) or
    /// per-layer (traced) metric.
    metrics: Value,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `inputs_hash` and the loss bits / stream hash of the check process.
    notes: Value,
}

impl WorkloadResult {
    /// `metrics` plus the operation counts of the child processes behind
    /// them; the notes are the last child's.
    fn gather(metrics: Value, children: &[Value]) -> WorkloadResult {
        let sum = |key: &str| children.iter().map(|c| c[key].as_u64().unwrap_or(0)).sum();
        let result = WorkloadResult {
            metrics,
            attempted: sum("attempted"),
            failed: sum("failed"),
            failures: children
                .iter()
                .flat_map(|c| c["failures"].as_array().into_iter().flatten())
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
            notes: children.last().map_or(Value::Null, |c| c["notes"].clone()),
        };
        for f in &result.failures {
            eprintln!("strongbench: FAILED {f}");
        }
        result
    }
}

/// One workload, untraced (end-to-end metrics pooled over fresh timing
/// processes, plus the output checks in a process of their own) or traced
/// (per-layer metrics from the trace process, completed from one untraced
/// timing process).
fn run_workload(a: &Args, workload: &str, trace: bool) -> Result<WorkloadResult, String> {
    let measure = || -> Result<(Value, Observation), String> {
        let child = spawn(a, workload, "measure")?;
        let seen = Observation::from_json(&child["observation"]);
        Ok((child, seen.ok_or("measure child: malformed observation")?))
    };
    if trace {
        let traced = spawn(a, workload, "trace")?;
        let (plain, seen) = measure()?;
        let checked = spawn(a, workload, "check")?;
        let (Some(mut metrics), Some(traced_step_ms), Some(resident_step_ms)) = (
            traced["per_layer"].as_object().cloned(),
            floats_from_json(&traced["traced_step_ms"]),
            floats_from_json(&checked["resident_step_ms"]),
        ) else {
            return Err("trace or check child: malformed output".into());
        };
        untraced_per_layer(&seen, &traced_step_ms, &resident_step_ms)
            .overlay(PER_LAYER, &mut metrics);
        return Ok(WorkloadResult::gather(
            Value::Object(metrics),
            &[traced, plain, checked],
        ));
    }
    let mut children = Vec::new();
    let mut observations = Vec::new();
    for _ in 0..PROCESSES_PER_RUN {
        let (child, seen) = measure()?;
        observations.push(seen);
        children.push(child);
    }
    children.push(spawn(a, workload, "check")?);
    Ok(WorkloadResult::gather(
        pool(&observations).to_json(END_TO_END),
        &children,
    ))
}

/// The driver's entry point: one workload, one JSON object on the last line.
fn bench(a: &Args) -> Result<(), String> {
    let (workload, _) = spec_of(a)?;
    let result = run_workload(a, &workload, a.trace)?;
    let mut metrics = Map::new();
    for (name, m) in result
        .metrics
        .as_object()
        .ok_or("child: no metrics")?
        .iter()
    {
        let mut entry = Map::new();
        entry.insert("value".into(), m["value"].clone());
        entry.insert("unit".into(), m["unit"].clone());
        metrics.insert(name.clone(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert("correct".into(), Value::from(result.failed == 0));
    root.insert("attempted".into(), Value::from(result.attempted));
    root.insert("failed".into(), Value::from(result.failed));
    root.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(root)).expect("serializes")
    );
    Ok(())
}

/// Prints a section's metrics by name with unit and sample count; beside
/// each timing, the highest tail percentile that many samples support.
fn print_section(title: &str, defs: &[Def], section: &Value) {
    println!("  {title}");
    for d in defs {
        let m = &section[d.name];
        let n = m["n"].as_u64().unwrap_or(0) as usize;
        let tail = match stats::highest_supported_percentile(n) {
            _ if !matches!(d.unit, "s" | "ms" | "us") || n == 0 => String::new(),
            Some(p) => format!(" (supports p{p})"),
            None => " (median only)".to_string(),
        };
        println!(
            "    {:<40} {:>18.4} {:<8} n={n}{tail}",
            d.name,
            m["value"].as_f64().unwrap_or(0.0),
            d.unit,
        );
    }
}

/// All four workloads, untraced then traced; prints every metric and
/// appends the run to `--out`.
fn run_all(a: &Args) -> Result<bool, String> {
    let out_path = a.out.clone().ok_or("run: --out FILE is required")?;
    let mut workloads = Map::new();
    let mut failed = 0;
    for workload in WORKLOADS {
        let untraced = run_workload(a, workload, false)?;
        let traced = run_workload(a, workload, true)?;
        let (attempted, ops_failed) = (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        );
        println!(
            "{workload}: ops attempted {attempted} failed {ops_failed}  notes {}",
            serde_json::to_string(&untraced.notes).expect("serializes")
        );
        print_section("end to end (untraced)", END_TO_END, &untraced.metrics);
        print_section(
            "per layer (traced run + probes)",
            PER_LAYER,
            &traced.metrics,
        );
        failed += ops_failed;
        let mut w = Map::new();
        w.insert("end_to_end".into(), untraced.metrics);
        w.insert("per_layer".into(), traced.metrics);
        w.insert("attempted".into(), Value::from(attempted));
        w.insert("failed".into(), Value::from(ops_failed));
        w.insert("notes".into(), untraced.notes);
        workloads.insert(workload.into(), Value::Object(w));
    }
    let mut run = Map::new();
    run.insert("seed".into(), Value::from(a.seed));
    run.insert("seconds".into(), Value::from(a.seconds));
    run.insert("quick".into(), Value::from(a.quick));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    run.insert("cores".into(), Value::from(cores as u64));
    run.insert("workloads".into(), Value::Object(workloads));

    // Several invocations accumulate in one file, so `compare` sees the
    // run-to-run spread.
    let mut runs = match std::fs::read_to_string(&out_path) {
        Ok(text) => serde_json::from_str(&text)
            .ok()
            .and_then(|v: Value| v["runs"].as_array().cloned())
            .ok_or(format!(
                "{}: not a strongbench result file",
                out_path.display()
            ))?,
        Err(_) => Vec::new(),
    };
    runs.push(Value::Object(run));
    let mut root = Map::new();
    root.insert("runs".into(), Value::Array(runs));
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serializes");
    std::fs::write(&out_path, text + "\n").map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {} (ops failed: {failed})", out_path.display());
    Ok(failed == 0)
}

fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &Args) -> Result<bool, String> {
    let [file_a, file_b] = a.files.as_slice() else {
        return Err("compare: expected A.json B.json".into());
    };
    let report = compare::compare(
        &read_json(file_a)?,
        &read_json(file_b)?,
        &read_json(&a.bounds)?,
    )?;
    compare::print(&report);
    Ok(report.passed())
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "child")) => (c, &argv[1..]),
        _ => ("bench", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("strongbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "child" => child(&args, t0).map(|()| true),
        "run" => run_all(&args),
        "compare" => compare_files(&args),
        _ => bench(&args).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("strongbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let a = args(&[
            "--workload",
            "train-spill",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload.as_deref(), Some("train-spill"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (9, 15.0, true, false)
        );
        assert!(spec_of(&a).is_ok());
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let unknown = args(&["--workload", "train-dp"]).expect("parses");
        assert!(spec_of(&unknown).is_err());
        assert!(spec_of(&args(&[]).expect("parses")).is_err());
    }

    #[test]
    fn observation_survives_the_pipe() {
        let o = Observation {
            setup_s: 1.25,
            step_ms: vec![10.0, 11.5, 9.25],
            tokens: 45,
            wall_s: 0.5,
            peak_device_bytes: 1 << 33,
            peak_rss_mb: 12.5,
            ttft_ms: vec![3.5],
            ..Observation::default()
        };
        let text = serde_json::to_string(&o.to_json()).expect("serializes");
        let back = Observation::from_json(&serde_json::from_str(&text).expect("parses"));
        assert_eq!(back, Some(o));
        assert_eq!(Observation::from_json(&Value::Null), None);
    }

    #[test]
    fn pooling_takes_medians_sums_and_peaks() {
        let obs = |setup_s, step_ms: &[f64], tokens, wall_s, bytes, rss| Observation {
            setup_s,
            step_ms: step_ms.to_vec(),
            tokens,
            wall_s,
            peak_device_bytes: bytes,
            peak_rss_mb: rss,
            ..Observation::default()
        };
        let pooled = pool(&[
            obs(1.0, &[10.0, 30.0], 20, 1.0, 100, 5.0),
            obs(3.0, &[20.0], 10, 0.5, 300, 4.0),
            obs(2.0, &[40.0, 50.0], 30, 1.5, 200, 6.0),
        ])
        .to_json(END_TO_END);
        let value = |name: &str| pooled[name]["value"].as_f64();
        assert_eq!(value("setup_s"), Some(2.0));
        assert_eq!(value("tokens_per_s"), Some(20.0));
        assert_eq!(value("step_ms_p50"), Some(30.0));
        assert_eq!(value("peak_device_bytes"), Some(300.0));
        assert_eq!(value("peak_rss_mb"), Some(6.0));
        assert_eq!(pooled["step_ms_p50"]["n"].as_u64(), Some(5));
        assert_eq!(pooled["setup_s"]["n"].as_u64(), Some(3));
    }

    #[test]
    fn tracing_overhead_compares_the_same_steps() {
        let seen = Observation {
            step_ms: vec![20.0, 20.0, 20.0, 10.0, 10.0, 10.0, 10.0],
            request_ms: vec![5.0, 7.0, 9.0],
            ..Observation::default()
        };
        // Three traced steps at 22 ms against the first three untraced steps.
        let train = untraced_per_layer(&seen, &[22.0; 3], &[4.0, 5.0, 6.0]).to_json(PER_LAYER);
        let value = |j: &Value, name: &str| j[name]["value"].as_f64().expect("metric");
        assert!((value(&train, "telemetry.overhead_share") - 0.1).abs() < 1e-12);
        assert_eq!(train["telemetry.overhead_share"]["n"].as_u64(), Some(3));
        assert_eq!(value(&train, "offloaded.step_ms_p50"), 10.0);
        assert_eq!(value(&train, "resident.step_ms_p50"), 5.0);
        assert_eq!(value(&train, "resident.offloaded_over_resident"), 2.0);
        assert_eq!(value(&train, "serve.request_ms_p50"), 0.0);
        let serve = untraced_per_layer(&seen, &[22.0; 3], &[]).to_json(PER_LAYER);
        assert_eq!(value(&serve, "serve.request_ms_p50"), 7.0);
        assert_eq!(serve["serve.request_ms_p80"]["n"].as_u64(), Some(3));
        assert_eq!(value(&serve, "offloaded.step_ms_p50"), 0.0);
    }
}
