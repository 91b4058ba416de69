//! The serving workload: `ServeEngine` under a closed loop of clients
//! driven from one thread, checked against `StaticBatchGenerator`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stronghold_baselines::{StaticBatchConfig, StaticBatchGenerator};
use stronghold_core::serve::{GenRequest, GenResult, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_model::transformer::Transformer;
use stronghold_tensor::matmul::stats as gemm_stats;

use crate::inputs::{
    hash_requests, serve_requests, warmup_requests, Fnv, ServeSpec, CHECKED_STREAMS,
};
use crate::stats::median;
use crate::{ms, peak_rss_mb, probes, Observation, Outcome};

/// Traced requests are capped: the span buffer grows without bound.
const MAX_TRACED_REQUESTS: usize = 40;

/// Builds the engine and serves the warm-up requests.
fn ready(spec: &ServeSpec, seed: u64, tel: Telemetry) -> ServeEngine {
    let mut engine =
        ServeEngine::from_model(Transformer::new(spec.model, seed), spec.config(), tel);
    engine.generate(warmup_requests(spec));
    engine
}

/// What one closed-loop run observed. Latencies are on the benchmark's own
/// clock and cover only requests that finished inside the window; `sent`
/// and `results` hold every request, drained ones included.
#[derive(Default)]
struct Observed {
    round_ms: Vec<f64>,
    /// Tokens generated and wall time inside the window.
    tokens: usize,
    wall: Duration,
    queue_wait_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    request_ms: Vec<f64>,
    /// When each request was submitted and the tokens it asked for, by id.
    sent: BTreeMap<u64, (Instant, usize)>,
    results: Vec<GenResult>,
}

/// Runs `spec.clients` closed-loop clients against `engine`: each submits
/// its next request the moment its previous one completes. Once `window`
/// has passed no more are submitted and the in-flight ones drain outside
/// it; without a window the loop runs until `reqs` runs out.
///
/// `GenResult`'s own clocks start at *admission*, so the wait for a slot is
/// recovered from the bench clock: queue wait = (completion − submit) −
/// `latency_ns`, and time to first token = queue wait + `ttft_ns`.
fn closed_loop(
    engine: &mut ServeEngine,
    spec: &ServeSpec,
    mut reqs: impl Iterator<Item = GenRequest>,
    window: Option<Duration>,
) -> Observed {
    let mut obs = Observed::default();
    let mut submit = |engine: &mut ServeEngine, obs: &mut Observed| {
        if let Some(r) = reqs.next() {
            obs.sent.insert(r.id, (Instant::now(), r.max_new_tokens));
            engine.submit(r);
        }
    };
    for _ in 0..spec.clients {
        submit(engine, &mut obs);
    }
    let start = Instant::now();
    let mut open = true;
    while engine.active_slots() > 0 || engine.queue_depth() > 0 {
        let t = Instant::now();
        let done = engine.step();
        let now = Instant::now();
        if open {
            // One token per sequence that held a slot this round.
            obs.round_ms.push(ms(now - t));
            obs.tokens += engine.active_slots() + done.len();
        }
        for r in done {
            if open {
                let total = ms(now - obs.sent[&r.id].0);
                let wait = (total - r.latency_ns as f64 / 1e6).max(0.0);
                obs.queue_wait_ms.push(wait);
                obs.ttft_ms.push(wait + r.ttft_ns as f64 / 1e6);
                obs.request_ms.push(total);
                if r.tokens.len() > 1 {
                    let decode_ns = r.latency_ns - r.ttft_ns;
                    obs.itl_ms
                        .push(decode_ns as f64 / 1e6 / (r.tokens.len() - 1) as f64);
                }
                submit(engine, &mut obs);
            }
            obs.results.push(r);
        }
        if open && window.is_some_and(|w| start.elapsed() >= w) {
            open = false;
            obs.wall = start.elapsed();
        }
    }
    if open {
        obs.wall = start.elapsed();
    }
    obs
}

/// Every request returned exactly the tokens it asked for.
fn check_token_counts(obs: &Observed, out: &mut Outcome) {
    for r in &obs.results {
        let asked = obs.sent[&r.id].1;
        out.check(
            r.tokens.len() == asked,
            format!("request {}: {} tokens, asked {asked}", r.id, r.tokens.len()),
        );
    }
}

/// One untraced timing run: set-up from process start `t0`, then the closed
/// loop for `seconds`. A step is one engine round.
pub fn measure(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    t0: Instant,
    out: &mut Outcome,
) -> Observation {
    let mut engine = ready(spec, seed, Telemetry::disabled());
    let setup_s = t0.elapsed().as_secs_f64();
    let window = Duration::from_secs_f64(seconds);
    let obs = closed_loop(&mut engine, spec, serve_requests(spec, seed), Some(window));
    check_token_counts(&obs, out);
    Observation {
        setup_s,
        tokens: obs.tokens,
        wall_s: obs.wall.as_secs_f64(),
        peak_device_bytes: engine.device().peak(),
        peak_rss_mb: peak_rss_mb(),
        step_ms: obs.round_ms,
        queue_wait_ms: obs.queue_wait_ms,
        ttft_ms: obs.ttft_ms,
        itl_ms: obs.itl_ms,
        request_ms: obs.request_ms,
    }
}

/// The output check, on a run of its own: the first [`CHECKED_STREAMS`]
/// requests' token streams equal the fully-resident static-batching
/// reference bit for bit.
pub fn check(spec: &ServeSpec, seed: u64, out: &mut Outcome) {
    let first: Vec<GenRequest> = serve_requests(spec, seed).take(CHECKED_STREAMS).collect();
    out.note("inputs_hash", hash_requests(&first));
    let mut engine = ready(spec, seed, Telemetry::disabled());
    let got: BTreeMap<u64, Vec<u32>> = engine
        .generate(first.clone())
        .into_iter()
        .map(|r| (r.id, r.tokens))
        .collect();
    let mut reference = StaticBatchGenerator::new(
        spec.model,
        seed,
        StaticBatchConfig {
            slots: spec.slots,
            ..StaticBatchConfig::default()
        },
    );
    let mut hash = Fnv::default();
    for want in reference.generate(first) {
        out.check(
            got.get(&want.id) == Some(&want.tokens),
            format!(
                "request {}: stream differs from StaticBatchGenerator",
                want.id
            ),
        );
        hash.word(want.id);
        hash.tokens(&want.tokens);
    }
    out.note("stream_hash", hash.hex());
}

/// The traced run and the isolated probes: every per-layer metric but the
/// bench-clock latencies and the tracing overhead, which need an untraced
/// run of its own (the parent adds them from a `measure` process).
pub fn trace(spec: &ServeSpec, seed: u64, seconds: f64, out: &mut Outcome) {
    // Traced: a fixed number of requests, so the counts repeat exactly.
    let tel = Telemetry::enabled();
    gemm_stats::reset();
    let mut engine = ready(spec, seed, tel.clone());
    let traced_reqs = serve_requests(spec, seed).take(MAX_TRACED_REQUESTS);
    let traced = closed_loop(&mut engine, spec, traced_reqs, None);
    // Telemetry covers the warm-up rounds too; shares and per-round numbers
    // divide by everything the engine did.
    let rounds = tel.counter("serve.rounds").get();
    let busy_ns = tel.histogram("serve.round_ns").sum().max(1);
    let per_round = |total: u64| total as f64 / rounds.max(1) as f64;
    let n = rounds as usize;
    out.record_gemm_stats(n);

    let m = &mut out.per_layer;
    let h2d_bytes = per_round(engine.device().h2d_bytes());
    m.set("device.h2d_bytes_per_step", h2d_bytes, n);
    m.set(
        "device.h2d_inflight_peak",
        tel.gauge("device.h2d_inflight").peak() as f64,
        n,
    );
    m.set(
        "serve.round_ms_p50",
        median(&traced.round_ms),
        traced.round_ms.len(),
    );
    m.set("serve.rounds", rounds as f64, 1);
    let prefill = tel.counter("serve.prefill_tokens").get();
    let decode = tel.counter("serve.decode_tokens").get();
    m.set("serve.prefill_tokens", prefill as f64, 1);
    m.set("serve.decode_tokens", decode as f64, 1);
    m.set(
        "serve.slots_per_round_mean",
        per_round(tel.counter("serve.tokens").get()),
        n,
    );
    m.set(
        "serve.h2d_busy_share",
        tel.track_busy_nanos("h2d-copy") as f64 / busy_ns as f64,
        n,
    );
    m.set(
        "serve.compute_busy_share",
        tel.track_busy_nanos("serve-compute") as f64 / busy_ns as f64,
        n,
    );
    m.set("serve.h2d_bytes_per_round", h2d_bytes, n);
    m.set(
        "serve.kv_bytes_peak",
        tel.gauge("serve.kv_bytes").peak() as f64,
        1,
    );
    m.set(
        "telemetry.spans_per_step",
        per_round(tel.spans().len() as u64),
        n,
    );
    drop(engine);
    check_token_counts(&traced, out);

    out.traced_step_ms = traced.round_ms;
    probes::serve(
        spec,
        seed,
        Duration::from_secs_f64(seconds / 60.0),
        &mut out.per_layer,
    );
}
