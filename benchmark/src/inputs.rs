//! Workload definitions and seeded input generation.
//!
//! `--seed` is the only source of randomness: it initialises the model,
//! seeds the `SyntheticCorpus` the token data comes from, and drives the
//! prompt-length and output-length permutations. The program under test
//! receives only the generated inputs.

use stronghold_core::host::HostOffloadConfig;
use stronghold_core::serve::{GenRequest, ServeConfig};
use stronghold_core::tier::RESIDENT_BYTES_PER_PARAM;
use stronghold_model::config::ModelConfig;
use stronghold_model::data::SyntheticCorpus;
use stronghold_tensor::Precision;

/// One `(inputs, targets)` sample per batch row.
pub type Batch = Vec<(Vec<u32>, Vec<u32>)>;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = [
    "train-compute",
    "train-stream",
    "train-spill",
    "serve-closed",
];

/// Steps whose losses are checked against the resident reference; the first
/// [`WARMUP_STEPS`] of them are the set-up warm-up.
pub const CHECK_STEPS: usize = 4;
/// Warm-up steps (training) or requests (serving) that end set-up.
pub const WARMUP_STEPS: usize = 2;
/// Distinct batches a training run cycles through.
const BATCH_POOL: usize = 8;
/// Serving streams compared against `StaticBatchGenerator`.
pub const CHECKED_STREAMS: usize = 16;

#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub model: ModelConfig,
    pub window: usize,
    pub precision: Precision,
    /// Host-RAM budget in layers; the rest page through the file tier.
    pub resident_layers: Option<u64>,
}

impl TrainSpec {
    pub fn hocfg(&self) -> HostOffloadConfig {
        HostOffloadConfig {
            window: self.window,
            precision: self.precision,
            host_capacity: self
                .resident_layers
                .map(|n| n * RESIDENT_BYTES_PER_PARAM * self.model.block_params()),
            ..HostOffloadConfig::default()
        }
    }

    /// Tokens one sample feeds the model (next-token pairs of a `seq` run).
    pub fn sample_tokens(&self) -> usize {
        self.model.seq - 1
    }

    pub fn tokens_per_step(&self) -> usize {
        self.model.batch * self.sample_tokens()
    }
}

#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub model: ModelConfig,
    pub window: usize,
    pub slots: usize,
    /// Closed-loop clients: each submits its next request when its previous
    /// one completes. More clients than slots keeps the admission queue
    /// non-empty.
    pub clients: usize,
    pub prompt_lens: [usize; 4],
    /// Output tokens of one request in four / of the other three.
    pub long_out: usize,
    pub short_out: usize,
}

impl ServeSpec {
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            window: self.window,
            slots: self.slots,
            ..ServeConfig::default()
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Spec {
    Train(TrainSpec),
    Serve(ServeSpec),
}

/// The workload called `name`, at full size or at the `--quick` smoke size
/// (same code paths, tiny shapes). `None` for an unknown name.
pub fn workload(name: &str, quick: bool) -> Option<Spec> {
    let model = |layers, hidden, heads, seq, vocab, batch| {
        ModelConfig::new(layers, hidden, heads)
            .with_seq(seq)
            .with_vocab(vocab)
            .with_batch(batch)
    };
    let train = |model, window, precision, resident_layers| {
        Spec::Train(TrainSpec {
            model,
            window,
            precision,
            resident_layers,
        })
    };
    // Parameter-heavy, token-light: the stream/spill model.
    let wide = if quick {
        model(3, 64, 4, 8, 64, 1)
    } else {
        model(8, 512, 8, 16, 512, 1)
    };
    Some(match name {
        "train-compute" => train(
            if quick {
                model(3, 32, 4, 16, 64, 2)
            } else {
                model(8, 256, 8, 128, 1024, 4)
            },
            2,
            Precision::F32,
            None,
        ),
        "train-stream" => train(wide, 1, Precision::Bf16, None),
        "train-spill" => train(wide, 2, Precision::F32, Some(if quick { 1 } else { 2 })),
        "serve-closed" => Spec::Serve(if quick {
            ServeSpec {
                model: model(2, 32, 4, 32, 64, 1),
                window: 1,
                slots: 2,
                clients: 3,
                prompt_lens: [2, 4, 6, 8],
                long_out: 8,
                short_out: 2,
            }
        } else {
            ServeSpec {
                model: model(6, 256, 8, 128, 1024, 1),
                window: 2,
                slots: 4,
                clients: 6,
                prompt_lens: [8, 24, 40, 56],
                long_out: 48,
                short_out: 8,
            }
        }),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's own generator for lengths and permutations
/// (token contents come from `SyntheticCorpus`).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words — the `inputs_hash` / `stream_hash` digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn tokens(&mut self, t: &[u32]) {
        self.word(t.len() as u64);
        for &x in t {
            self.word(u64::from(x));
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The batches a training run cycles through (step `i` trains on batch
/// `i % len`).
pub fn train_batches(spec: &TrainSpec, seed: u64) -> Vec<Batch> {
    let mut corpus = SyntheticCorpus::new(spec.model.vocab, SplitMix::new(seed).next_u64());
    (0..BATCH_POOL)
        .map(|_| corpus.next_batch(spec.model.batch, spec.sample_tokens()))
        .collect()
}

/// The endless, seeded request stream of the serving workload. Each group
/// of four has the four prompt lengths in a seeded order and one seeded
/// long-output member; ids count up from 0.
pub struct RequestStream {
    spec: ServeSpec,
    rng: SplitMix,
    corpus: SyntheticCorpus,
    /// The current group of four, in reverse order of issue.
    group: Vec<GenRequest>,
    next_id: u64,
}

pub fn serve_requests(spec: &ServeSpec, seed: u64) -> RequestStream {
    let mut rng = SplitMix::new(seed);
    let corpus = SyntheticCorpus::new(spec.model.vocab, rng.next_u64());
    RequestStream {
        spec: *spec,
        rng,
        corpus,
        group: Vec::new(),
        next_id: 0,
    }
}

impl Iterator for RequestStream {
    type Item = GenRequest;

    fn next(&mut self) -> Option<GenRequest> {
        if self.group.is_empty() {
            let mut lens = self.spec.prompt_lens;
            for i in (1..lens.len()).rev() {
                lens.swap(i, self.rng.below(i + 1));
            }
            let long = self.rng.below(lens.len());
            for (k, len) in lens.into_iter().enumerate() {
                self.group.push(GenRequest {
                    id: self.next_id + k as u64,
                    prompt: self.corpus.next_sample(len).0,
                    max_new_tokens: if k == long {
                        self.spec.long_out
                    } else {
                        self.spec.short_out
                    },
                    seed: self.rng.next_u64(),
                });
            }
            self.next_id += lens.len() as u64;
            self.group.reverse();
        }
        self.group.pop()
    }
}

/// The short requests that end serving set-up (ids above any timed request).
pub fn warmup_requests(spec: &ServeSpec) -> Vec<GenRequest> {
    (0..WARMUP_STEPS as u64)
        .map(|i| GenRequest {
            id: u64::MAX - i,
            prompt: vec![1; spec.prompt_lens[0]],
            max_new_tokens: 2,
            seed: 0,
        })
        .collect()
}

pub fn hash_batches(batches: &[Batch]) -> String {
    let mut h = Fnv::default();
    for (x, y) in batches.iter().flatten() {
        h.tokens(x);
        h.tokens(y);
    }
    h.hex()
}

pub fn hash_requests(reqs: &[GenRequest]) -> String {
    let mut h = Fnv::default();
    for r in reqs {
        h.tokens(&r.prompt);
        h.word(r.max_new_tokens as u64);
        h.word(r.seed);
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_spec(name: &str) -> TrainSpec {
        match workload(name, true) {
            Some(Spec::Train(t)) => t,
            other => panic!("{name}: {other:?}"),
        }
    }

    fn serve_spec(quick: bool) -> ServeSpec {
        match workload("serve-closed", quick) {
            Some(Spec::Serve(s)) => s,
            other => panic!("serve-closed: {other:?}"),
        }
    }

    #[test]
    fn every_workload_resolves_at_both_sizes() {
        for name in WORKLOADS {
            assert!(workload(name, false).is_some() && workload(name, true).is_some());
        }
        assert!(workload("train-dp", false).is_none());
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        let t = train_spec("train-compute");
        assert_eq!(train_batches(&t, 7), train_batches(&t, 7));
        assert_eq!(
            hash_batches(&train_batches(&t, 7)),
            hash_batches(&train_batches(&t, 7))
        );
        assert_ne!(train_batches(&t, 7), train_batches(&t, 8));
        assert_ne!(
            hash_batches(&train_batches(&t, 7)),
            hash_batches(&train_batches(&t, 8))
        );

        let s = serve_spec(false);
        let prompts = |seed| -> Vec<Vec<u32>> {
            serve_requests(&s, seed)
                .take(32)
                .map(|r| r.prompt)
                .collect()
        };
        assert_eq!(prompts(7), prompts(7));
        assert_ne!(prompts(7), prompts(8));
        let hash = |seed| hash_requests(&serve_requests(&s, seed).take(32).collect::<Vec<_>>());
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
    }

    #[test]
    fn request_stream_is_the_stated_mix() {
        let s = serve_spec(false);
        let reqs: Vec<GenRequest> = serve_requests(&s, 3).take(40).collect();
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        for group in reqs.chunks(4) {
            let mut lens: Vec<usize> = group.iter().map(|r| r.prompt.len()).collect();
            lens.sort_unstable();
            assert_eq!(lens, s.prompt_lens);
            let long = group
                .iter()
                .filter(|r| r.max_new_tokens == s.long_out)
                .count();
            assert_eq!(long, 1, "one long output per four requests");
            for r in group {
                assert!(r.prompt.len() + r.max_new_tokens <= s.model.seq);
            }
        }
    }

    #[test]
    fn spill_workload_pages_most_layers() {
        let t = train_spec("train-spill");
        let cap = t.hocfg().host_capacity.expect("spill budget");
        assert_eq!(cap, RESIDENT_BYTES_PER_PARAM * t.model.block_params());
        assert!(train_spec("train-stream").hocfg().host_capacity.is_none());
    }
}
