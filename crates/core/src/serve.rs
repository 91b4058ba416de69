//! Continuous-batching generation server on the windowed offload runtime.
//!
//! STRONGHOLD's §VI-D3 observation — FP-only mode serves models far larger
//! than the device could *train* — becomes a real workload here: the same
//! working-window machinery that streams layers H2D under training compute
//! streams them under *decode* compute, so a model whose parameter bytes
//! exceed the device arena generates tokens end-to-end.
//!
//! ## Device arena layout
//!
//! The device budget is carved into two regions, both accounted on the one
//! [`HostDevice`] so capacity violations are loud:
//!
//! * **`m+1` parameter slots** — the training layout, because it is the
//!   training code (`host::stream`): the prefetcher stages layer
//!   `i+1..i+m` while the compute loop runs layer `i`, each staged layer
//!   holding `block_bytes` (half-width on the wire in bf16/f16 modes).
//! * **The KV arena** — `slots × layers` per-sequence K/V caches of
//!   `2 · max_seq · hidden` f32 entries each, allocated once at engine
//!   construction and reused as sequences finish (admission = slot reuse,
//!   never an allocation).
//!
//! Given a fixed `device_capacity`, the window is derived from what remains
//! *after* the KV arena — the serving analogue of the training-side
//! `device_capacity` clamp and `m_mem_max`: `m = ⌊(capacity − kv_bytes)/block_bytes⌋ − 1`.
//!
//! ## Scheduling
//!
//! [`ServeEngine::step`] runs one engine round: FIFO admission into free
//! slots, one layer-streamed pass over every active sequence (freshly
//! admitted sequences run their whole prompt — *prefill* — in the same
//! round in-flight sequences run their single pending token — *decode*),
//! then the tied LM head and per-request sampling. Parameter H2D overlaps
//! decode compute exactly as it overlaps training compute: the prefetcher
//! thread stages layer `i+1` while the compute loop runs layer `i`. When
//! the next round is certain, its pass is chained onto this one's, so the
//! prefetcher stages its first layers under this round's last layers and
//! head instead of after them.
//!
//! The pass is **selectively batched** (Orca): the pending rows of every
//! active sequence are stacked into one `[ΣR, hidden]` activation
//! ([`DecodeBatch`]), so each streamed layer runs one GEMM per linear, not
//! one per slot, and the head one product over the last rows. Only
//! attention stays per sequence, against that sequence's own KV cache: one
//! scores and one context product per head, whether the sequence brings a
//! single decode token or its whole prompt (the prompt's rows are masked to
//! their causal prefixes inside the one product, bit-equal to a
//! row-at-a-time decode).
//!
//! ## The panel image
//!
//! A serving round packs nothing: every `B` operand its products read is
//! already in the GEMM engine's panel order. Serving weights never change,
//! so the host store keeps each layer in the exact layout the compute
//! consumes: [`ServeEngine::from_model`] turns
//! every block into its serving form
//! ([`Block::into_panels`](stronghold_model::block::Block::into_panels)), whose four
//! linear weights are the GEMM engine's `B` panels, and stores that image
//! *instead of* the row-major one. The stream copies it into a serving-form
//! shell as-is (rounding a half mode element-wise, which commutes with the
//! layout), and the decode products read the panels straight out of the
//! shell: each weight is packed once per engine, never on the compute
//! thread. Bits are unchanged — the panels are the ones the per-call pack
//! would have built — and every byte count stays in parameters, since
//! panel padding is layout, not payload. The resident tied head is packed
//! once at construction too ([`Transformer::pack_head`], `vocab · hidden`
//! floats beside the row-major table the embedding lookup reads), and each
//! [`KvCache`] stores its keys and values as panel images written once per
//! token, so the attention products read the cache as it stands. Training
//! keeps row-major shells: its weights change every step, and the backward
//! `dy · W` reads `W` row-major.
//!
//! ## Determinism
//!
//! Each sequence's math touches only its own KV cache, the shared streamed
//! weights, and its own seeded sampling RNG; every product runs through the
//! batch-stable GEMM entries (a row's bits do not depend on which other
//! rows share the product) and every softmax covers exactly the causal
//! prefix. Token streams are therefore bit-identical across window sizes,
//! slot counts, arrival interleavings, and prefill/decode splits — asserted
//! by the integration suite.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{DecodeBatch, Transformer};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::init::seeded_rng;
use stronghold_tensor::Precision;

use crate::error::RuntimeError;
use crate::host::device::HostDevice;
use crate::host::engine::TrainingState;
use crate::host::stream::{LayerStream, Pass};
use crate::optimpool::LayerStore;
use crate::telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Configuration of a [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Working-window size `m` (staged parameter slots beyond the one being
    /// computed). Clamped to what `device_capacity` admits beside the KV
    /// arena.
    pub window: usize,
    /// Concurrent sequence slots (the KV arena's sequence capacity).
    pub slots: usize,
    /// Per-sequence token capacity; `0` means the model's trained context
    /// (`cfg.seq`). Clamped to the positional table.
    pub max_seq: usize,
    /// Device-side parameter precision: H2D payloads shrink to half width
    /// and the device computes on the half grid, exactly as in training.
    pub precision: Precision,
    /// Fixed device byte budget. `None` sizes the device to exactly the
    /// window plus the KV arena; `Some` derives the window from what the
    /// budget leaves beside the arena, and is refused at construction if
    /// that is less than two parameter slots.
    pub device_capacity: Option<u64>,
    /// Sampling temperature; `0.0` is greedy argmax (lowest index wins
    /// ties). Positive values sample from the softmax-scaled distribution
    /// using each request's seeded RNG.
    pub temperature: f32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 2,
            slots: 2,
            max_seq: 0,
            precision: Precision::F32,
            device_capacity: None,
            temperature: 0.0,
        }
    }
}

/// One generation request.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Caller-chosen request id, echoed in the result.
    pub id: u64,
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new_tokens: usize,
    /// Seed for this request's sampling RNG (ignored under greedy).
    pub seed: u64,
}

/// A finished generation.
#[derive(Clone, Debug)]
pub struct GenResult {
    /// The request id.
    pub id: u64,
    /// Prompt length, for throughput accounting.
    pub prompt_len: usize,
    /// Generated tokens, in order.
    pub tokens: Vec<u32>,
    /// Nanoseconds from submission to admission into a slot.
    pub queue_ns: u64,
    /// Nanoseconds from **admission** to the first generated token (add
    /// `queue_ns` for the caller-visible time to first token).
    pub ttft_ns: u64,
    /// Nanoseconds from **admission** to completion.
    pub latency_ns: u64,
    /// Engine rounds this request was active in.
    pub rounds: u64,
}

/// A request occupying a slot.
struct ActiveReq {
    id: u64,
    rng: ChaCha8Rng,
    max_new_tokens: usize,
    prompt_len: usize,
    generated: Vec<u32>,
    /// Tokens already in the KV caches (absolute position of `pending[0]`).
    pos: usize,
    /// Tokens to run this round: the prompt on the admission round
    /// (prefill), the last sampled token after (decode).
    pending: Vec<u32>,
    queue_ns: u64,
    admit_ns: u64,
    ttft_ns: Option<u64>,
    rounds: u64,
}

impl ActiveReq {
    /// Whether the round now running is this request's last: it samples
    /// its final token, or fills its slot's token capacity.
    fn last_round(&self, max_seq: usize) -> bool {
        self.generated.len() + 1 >= self.max_new_tokens || self.pos + self.pending.len() >= max_seq
    }
}

/// The continuous-batching generation engine.
pub struct ServeEngine {
    model: Transformer, // embedding + final LN; blocks live in `store`
    /// All-resident, read-only, no Adam moments.
    store: Arc<LayerStore>,
    /// The H2D side: device arena (KV bytes reserved), `m+1` shells,
    /// prefetcher — the training stream, run forward-only.
    stream: LayerStream,
    /// The request holding each sequence slot.
    slots: Vec<Option<ActiveReq>>,
    /// The KV arena, `[layer][slot]`, preallocated so slot reuse never
    /// allocates.
    kv: Vec<Vec<KvCache>>,
    /// The round's packed activation workspace, grown once.
    batch: DecodeBatch,
    /// Waiting requests with their submission time.
    queue: VecDeque<(GenRequest, u64)>,
    kv_bytes: u64,
    max_seq: usize,
    temperature: f32,
    tel: Telemetry,
    clock: Instant,
    c_requests: Counter,
    c_admitted: Counter,
    c_completed: Counter,
    c_tokens: Counter,
    c_prefill_tokens: Counter,
    c_decode_tokens: Counter,
    c_rounds: Counter,
    g_active: Gauge,
    g_queue: Gauge,
    h_round: Histogram,
    h_queue_wait: Histogram,
    h_ttft: Histogram,
    h_latency: Histogram,
}

impl ServeEngine {
    /// Builds an engine over a freshly initialized model (tests, benches).
    pub fn new(mcfg: ModelConfig, seed: u64, cfg: ServeConfig) -> Self {
        Self::from_model(Transformer::new(mcfg, seed), cfg, Telemetry::disabled())
    }

    /// Builds an engine from a model, taking ownership of its blocks as the
    /// CPU-side layer store.
    pub fn from_model(mut model: Transformer, cfg: ServeConfig, tel: Telemetry) -> Self {
        let mcfg = model.cfg;
        let layers = mcfg.layers;
        assert!(layers > 0, "serve: model has no layers");
        assert!(cfg.slots > 0, "serve: need at least one slot");
        let max_seq = if cfg.max_seq == 0 {
            mcfg.seq
        } else {
            cfg.max_seq.min(mcfg.seq)
        };
        // KV entries stay f32 on the device: decode math runs on full-width
        // activations even when parameters travel half-width.
        let kv_bytes_per_cache = (2 * max_seq * mcfg.hidden * 4) as u64;
        let kv_bytes = cfg.slots as u64 * layers as u64 * kv_bytes_per_cache;
        // The KV arena is carved out of the device pool up front and pinned
        // for the engine's lifetime (slot reuse rewinds caches in place); a
        // fixed budget admits the largest window that fits beside it — the
        // serving analogue of the training-side clamp and `m_mem_max`.
        // Serving weights never change, so each block is stored in serving
        // form: its linears' weights in the GEMM engine's panel layout,
        // packed here once per engine instead of on every round. Each block
        // is converted, flattened into the store and dropped as the model is
        // drained, so set-up never holds two copies of the parameters (nor
        // two layouts); the first one stays as the shell template.
        let mut template = None;
        let images = (model.blocks.drain(..))
            .map(|b| {
                let b = b.into_panels();
                let image = b.flatten_params();
                template.get_or_insert(b);
                image
            })
            .collect();
        let template = template.expect("at least one layer");
        // The resident tied head never changes either: packed once here too.
        model.pack_head();
        let store = LayerStore::without_moments(images, template.param_count());
        let stream = LayerStream::new(
            template,
            layers,
            cfg.precision,
            cfg.window,
            cfg.device_capacity,
            kv_bytes,
            &tel,
        );

        let heads = mcfg.heads;
        let dh = mcfg.hidden / heads;
        let kv = (0..layers)
            .map(|_| {
                (0..cfg.slots)
                    .map(|_| KvCache::new(heads, dh, max_seq))
                    .collect()
            })
            .collect();

        tel.gauge("serve.kv_bytes").set(kv_bytes as i64);
        ServeEngine {
            model,
            store,
            stream,
            slots: (0..cfg.slots).map(|_| None).collect(),
            kv,
            batch: DecodeBatch::new(),
            queue: VecDeque::new(),
            kv_bytes,
            max_seq,
            temperature: cfg.temperature,
            clock: Instant::now(),
            c_requests: tel.counter("serve.requests"),
            c_admitted: tel.counter("serve.admitted"),
            c_completed: tel.counter("serve.completed"),
            c_tokens: tel.counter("serve.tokens"),
            c_prefill_tokens: tel.counter("serve.prefill_tokens"),
            c_decode_tokens: tel.counter("serve.decode_tokens"),
            c_rounds: tel.counter("serve.rounds"),
            g_active: tel.gauge("serve.active_slots"),
            g_queue: tel.gauge("serve.queue_depth"),
            h_round: tel.histogram("serve.round_ns"),
            h_queue_wait: tel.histogram("serve.queue_wait_ns"),
            h_ttft: tel.histogram("serve.ttft_ns"),
            h_latency: tel.histogram("serve.request_latency_ns"),
            tel,
        }
    }

    /// Builds an engine from an SHTS training-state blob (the universal
    /// checkpoint every trainer writes): the FP32 masters become the layer
    /// store, optimizer moments are dropped. A trained blob serves directly.
    pub fn from_state_blob(
        blob: Bytes,
        cfg: ServeConfig,
        tel: Telemetry,
    ) -> Result<Self, RuntimeError> {
        let st = TrainingState::decode(blob)?;
        Ok(Self::from_model(st.model, cfg, tel))
    }

    /// The resolved working-window size.
    pub fn window(&self) -> usize {
        self.stream.window()
    }

    /// Bytes pinned by the KV arena.
    pub fn kv_arena_bytes(&self) -> u64 {
        self.kv_bytes
    }

    /// Per-layer parameter bytes as staged on the device (half-width in
    /// bf16/f16 modes).
    pub fn block_bytes(&self) -> u64 {
        self.stream.block_bytes()
    }

    /// Total parameter bytes of the served model at FP32 (the host-side
    /// store): when this exceeds [`HostDevice::capacity`], the engine is
    /// serving a model larger than the device arena.
    pub fn param_bytes(&self) -> u64 {
        self.store.total_params() as u64 * 4
            + self.model.embedding.param_count() as u64 * 4
            + (self.model.lnf_g.numel() + self.model.lnf_b.numel()) as u64 * 4
    }

    /// The capacity-accounted device.
    pub fn device(&self) -> &HostDevice {
        self.stream.device()
    }

    /// The engine's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Sequences currently holding a slot.
    pub fn active_slots(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Requests waiting for a slot.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request (FIFO admission at the next round boundary),
    /// validating it at the door: a request the engine could not run to
    /// completion is refused here, never mid-round with a slot taken.
    ///
    /// # Errors
    /// [`RuntimeError::Config`] if the prompt is empty, no tokens are
    /// requested, `prompt + max_new_tokens` exceeds the per-sequence token
    /// capacity, or a prompt token is outside the vocabulary.
    pub fn try_submit(&mut self, req: GenRequest) -> Result<(), RuntimeError> {
        let need = req.prompt.len() + req.max_new_tokens;
        let vocab = self.model.embedding.vocab();
        let refusal = if req.prompt.is_empty() {
            Some("empty prompt".to_string())
        } else if req.max_new_tokens == 0 {
            Some("zero tokens requested".to_string())
        } else if need > self.max_seq {
            Some(format!(
                "request needs {need} tokens, slot capacity is {}",
                self.max_seq
            ))
        } else {
            (req.prompt.iter().find(|&&t| t as usize >= vocab))
                .map(|t| format!("token {t} out of vocab {vocab}"))
        };
        if let Some(why) = refusal {
            return Err(RuntimeError::Config(format!("serve: {why}")));
        }
        self.c_requests.incr();
        self.queue.push_back((req, self.now_ns()));
        self.g_queue.set(self.queue.len() as i64);
        Ok(())
    }

    /// [`ServeEngine::try_submit`] for callers that treat a bad request as
    /// a bug.
    ///
    /// # Panics
    /// Panics if the prompt is empty, no tokens are requested, a token is
    /// out of vocabulary, or `prompt + max_new_tokens` cannot fit the
    /// per-sequence token capacity.
    pub fn submit(&mut self, req: GenRequest) {
        if let Err(e) = self.try_submit(req) {
            panic!("{e}");
        }
    }

    /// Submits a batch and runs rounds until every request finishes.
    /// Results are returned in completion order.
    pub fn generate(&mut self, reqs: Vec<GenRequest>) -> Vec<GenResult> {
        for r in reqs {
            self.submit(r);
        }
        let mut out = Vec::new();
        loop {
            let done = self.step();
            out.extend(done);
            if self.queue.is_empty() && self.active_slots() == 0 {
                return out;
            }
        }
    }

    /// FIFO admission: pops queued requests into free slots. The freshly
    /// admitted request's whole prompt becomes its pending token run, so
    /// its prefill rides the same layer stream as everyone else's decode.
    fn admit(&mut self) {
        let now = self.now_ns();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let Some((req, submitted_ns)) = self.queue.pop_front() else {
                break;
            };
            for layer in self.kv.iter_mut() {
                layer[s].clear();
            }
            let queue_ns = now.saturating_sub(submitted_ns);
            self.h_queue_wait.record(queue_ns);
            *slot = Some(ActiveReq {
                id: req.id,
                rng: seeded_rng(req.seed),
                max_new_tokens: req.max_new_tokens,
                prompt_len: req.prompt.len(),
                generated: Vec::with_capacity(req.max_new_tokens),
                pos: 0,
                pending: req.prompt,
                queue_ns,
                admit_ns: now,
                ttft_ns: None,
                rounds: 0,
            });
            self.c_admitted.incr();
        }
        self.g_queue.set(self.queue.len() as i64);
        self.g_active.set(self.active_slots() as i64);
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Runs one engine round; returns the requests that finished in it.
    ///
    /// A round is: admission → stack and embed every active slot's pending
    /// tokens → one streamed pass over all layers (the stream's prefetcher
    /// staging H2D ahead of compute, `m+1` shells circulating through the
    /// device budget), one GEMM per linear over the whole stack → last-row
    /// logits in one head product → one sampled token per active slot.
    /// When another round is certain, its pass is chained onto this one, so
    /// its first layers are staged under this round's tail and head.
    pub fn step(&mut self) -> Vec<GenResult> {
        self.admit();
        let t_round = Instant::now();
        let mut finished = Vec::new();
        if self.active_slots() == 0 {
            return finished;
        }
        self.c_rounds.incr();

        // Stack each active slot's pending run, embedded at its absolute
        // position, into the round's packed activation.
        self.batch.clear();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            let Some(req) = slot else { continue };
            self.batch.push(&self.model, s, &req.pending, req.pos);
            req.rounds += 1;
            let run = req.pending.len() as u64;
            if req.pos == 0 {
                self.c_prefill_tokens.add(run);
            } else {
                self.c_decode_tokens.add(run);
            }
        }

        // ---- one layer-streamed pass over the stacked sequences ----
        // When another round is certain — a request is waiting, or a slot
        // stays active past this round — its pass is chained onto this
        // one: the prefetcher fills each shell this pass's tail releases
        // with the next round's first layers, under the last layers, the
        // head, sampling, admission and embedding. Otherwise nothing is
        // copied that no round would consume.
        let max_seq = self.max_seq;
        if !self.queue.is_empty() || self.slots.iter().flatten().any(|r| !r.last_round(max_seq)) {
            self.stream.stage(&self.store);
        }
        // Run the whole stack through each layer as it lands, then release
        // the shell back to the window.
        let (tel, batch, kv) = (&self.tel, &mut self.batch, &mut self.kv);
        self.stream.run(&self.store, Pass::Forward, |feed| {
            for layer_kv in kv.iter_mut() {
                let (i, block) = feed.next();
                let span = tel.span("serve-compute", format!("L{i}"));
                batch.block_forward(&block, layer_kv);
                span.end();
                feed.release(block);
            }
        });

        // ---- head + sampling + completion ----
        self.batch.head(&self.model);
        let now = self.now_ns();
        for (n, slot) in self.slots.iter_mut().filter(|s| s.is_some()).enumerate() {
            let req = slot.as_mut().expect("filtered to active slots");
            let last = req.last_round(self.max_seq);
            let tok = sample(self.batch.logits(n), self.temperature, &mut req.rng);
            req.pos += req.pending.len();
            req.generated.push(tok);
            self.c_tokens.incr();
            let since_admit = now.saturating_sub(req.admit_ns);
            if req.ttft_ns.is_none() {
                req.ttft_ns = Some(since_admit);
                self.h_ttft.record(since_admit);
            }
            if last {
                let req = slot.take().expect("active request");
                self.c_completed.incr();
                self.h_latency.record(since_admit);
                finished.push(GenResult {
                    id: req.id,
                    prompt_len: req.prompt_len,
                    tokens: req.generated,
                    queue_ns: req.queue_ns,
                    ttft_ns: req.ttft_ns.unwrap_or(since_admit),
                    latency_ns: since_admit,
                    rounds: req.rounds,
                });
            } else {
                req.pending.clear();
                req.pending.push(tok);
            }
        }
        self.g_active.set(self.active_slots() as i64);
        self.h_round.record(t_round.elapsed().as_nanos() as u64);
        finished
    }
}

/// Samples one token from a logits row: greedy argmax at `temperature <= 0`
/// (lowest index wins ties), otherwise softmax-scaled CDF inversion driven
/// by the request's own RNG. Allocation-free. Public so baselines sample
/// through the exact same decision function.
pub fn sample(logits: &[f32], temperature: f32, rng: &mut ChaCha8Rng) -> u32 {
    if temperature <= 0.0 {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in logits.iter().enumerate() {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        return best as u32;
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let sum: f32 = logits
        .iter()
        .map(|&v| ((v - max) / temperature).exp())
        .sum();
    let u: f32 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0f32;
    for (i, &v) in logits.iter().enumerate() {
        acc += ((v - max) / temperature).exp() / sum;
        if u < acc {
            return i as u32;
        }
    }
    (logits.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::tiny;

    fn reqs(n: u64, prompt_len: usize, new_tokens: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|i| GenRequest {
                id: i,
                prompt: (0..prompt_len as u32)
                    .map(|t| (t * 7 + i as u32) % 64)
                    .collect(),
                max_new_tokens: new_tokens,
                seed: 100 + i,
            })
            .collect()
    }

    #[test]
    fn serves_and_completes_fifo() {
        let mut eng = ServeEngine::new(tiny(3), 9, ServeConfig::default());
        let out = eng.generate(reqs(5, 4, 3));
        assert_eq!(out.len(), 5);
        for r in &out {
            assert_eq!(r.tokens.len(), 3);
            assert!(r.latency_ns >= r.ttft_ns);
        }
        assert_eq!(eng.active_slots(), 0);
        assert_eq!(eng.queue_depth(), 0);
    }

    #[test]
    fn device_peak_stays_within_arena_budget() {
        let mcfg = tiny(4);
        let mut eng = ServeEngine::new(
            mcfg,
            9,
            ServeConfig {
                window: 1,
                slots: 2,
                ..ServeConfig::default()
            },
        );
        let cap = eng.device().capacity();
        // The model itself cannot fit: only 2 of 4 layers are staged.
        assert!(eng.param_bytes() > cap, "model must exceed the arena");
        let out = eng.generate(reqs(3, 3, 4));
        assert_eq!(out.len(), 3);
        assert!(eng.device().peak() <= cap, "device over budget");
        // Steady state: only the pinned KV arena remains allocated.
        assert_eq!(eng.device().used(), eng.kv_arena_bytes());
    }

    #[test]
    fn capacity_budget_derives_window_beside_kv_arena() {
        let mcfg = tiny(4);
        let bb = mcfg.block_params() as u64 * 4;
        // Budget for the KV arena plus exactly 3 parameter slots => m = 2.
        let probe = ServeEngine::new(mcfg, 9, ServeConfig::default());
        let kv = probe.kv_arena_bytes();
        let eng = ServeEngine::new(
            mcfg,
            9,
            ServeConfig {
                window: 4,
                device_capacity: Some(kv + 3 * bb + bb / 2),
                ..ServeConfig::default()
            },
        );
        assert_eq!(eng.window(), 2, "window must be derived from the budget");
    }

    #[test]
    #[should_panic(expected = "cannot hold a window of one layer")]
    fn budget_without_two_slots_beside_the_kv_arena_is_refused_at_construction() {
        let mcfg = tiny(4);
        let bb = mcfg.block_params() * 4;
        let kv = ServeEngine::new(mcfg, 9, ServeConfig::default()).kv_arena_bytes();
        ServeEngine::new(
            mcfg,
            9,
            ServeConfig {
                device_capacity: Some(kv + 2 * bb - 1),
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn the_store_holds_parameters_only() {
        let eng = ServeEngine::new(tiny(3), 9, ServeConfig::default());
        for layer in 0..3 {
            let adam = eng.store.adam_snapshot(layer);
            assert!(adam.m.is_empty() && adam.v.is_empty(), "layer {layer}");
        }
        assert_eq!(eng.store.total_params() as u64, 3 * tiny(3).block_params());
    }

    #[test]
    fn temperature_sampling_is_seed_deterministic() {
        let cfg = ServeConfig {
            temperature: 0.8,
            ..ServeConfig::default()
        };
        let mut a = ServeEngine::new(tiny(2), 9, cfg.clone());
        let mut b = ServeEngine::new(tiny(2), 9, cfg);
        let ta = a.generate(reqs(2, 3, 5));
        let tb = b.generate(reqs(2, 3, 5));
        for (x, y) in ta.iter().zip(tb.iter()) {
            assert_eq!(x.tokens, y.tokens, "same seed must sample same stream");
        }
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn oversized_request_rejected() {
        let mut eng = ServeEngine::new(tiny(2), 9, ServeConfig::default());
        eng.submit(GenRequest {
            id: 0,
            prompt: vec![1; 14],
            max_new_tokens: 14,
            seed: 0,
        });
    }
}
