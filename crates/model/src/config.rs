//! Model configurations, including every row of the paper's Table I.

/// Default sequence length used throughout the paper's evaluation (§III-F).
pub const DEFAULT_SEQ: usize = 1024;
/// Default vocabulary size (§III-F uses vs = 30k).
pub const DEFAULT_VOCAB: usize = 30_000;

/// A GPT-style model configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of transformer blocks (`n` in the paper).
    pub layers: usize,
    /// Hidden size (`hd`).
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length (`seq`).
    pub seq: usize,
    /// Vocabulary size (`vs`).
    pub vocab: usize,
    /// Per-GPU micro batch size (`bs`).
    pub batch: usize,
    /// Tensor-model-parallel degree (Table I "Model Parallelism" column).
    pub mp_degree: usize,
}

impl ModelConfig {
    /// A configuration with the paper's default seq/vocab and batch 4.
    pub fn new(layers: usize, hidden: usize, heads: usize) -> Self {
        ModelConfig {
            layers,
            hidden,
            heads,
            seq: DEFAULT_SEQ,
            vocab: DEFAULT_VOCAB,
            batch: 4,
            mp_degree: 1,
        }
    }

    /// Builder: set batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: set sequence length.
    pub fn with_seq(mut self, seq: usize) -> Self {
        self.seq = seq;
        self
    }

    /// Builder: set vocabulary size.
    pub fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self
    }

    /// Builder: set model-parallel degree.
    pub fn with_mp(mut self, mp: usize) -> Self {
        self.mp_degree = mp;
        self
    }

    /// Parameters in one transformer block: `12·h² + 13·h`
    /// (QKV 3h²+3h, attention projection h²+h, MLP 8h²+5h, two layernorms 4h).
    pub fn block_params(&self) -> u64 {
        let h = self.hidden as u64;
        12 * h * h + 13 * h
    }

    /// Parameters in the embedding layer (token + position tables).
    pub fn embedding_params(&self) -> u64 {
        (self.vocab as u64 + self.seq as u64) * self.hidden as u64
    }

    /// Parameters in the head layer (final layernorm; LM head is tied to the
    /// token embedding, as in GPT-2/Megatron).
    pub fn head_params(&self) -> u64 {
        2 * self.hidden as u64
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.layers as u64 * self.block_params() + self.embedding_params() + self.head_params()
    }

    /// Total parameters in billions.
    pub fn billions(&self) -> f64 {
        self.total_params() as f64 / 1e9
    }

    /// Human-readable size label, e.g. "1.7B".
    pub fn size_label(&self) -> String {
        format!("{:.1}B", self.billions())
    }

    /// The per-GPU shard of one block's parameters under tensor parallelism.
    pub fn block_params_per_shard(&self) -> u64 {
        // Layernorms are replicated; matmul weights are split mp ways.
        let h = self.hidden as u64;
        (12 * h * h + 9 * h) / self.mp_degree as u64 + 4 * h
    }
}

/// The common 1.7B model (Megatron-LM's largest on the 32 GB V100; Figs. 1b,
/// 8a, 9, 11).
pub fn common_1_7b() -> ModelConfig {
    ModelConfig::new(20, 2560, 16)
}

/// The 4B model used for the Fig. 4 trace and the Fig. 14 ablation.
pub fn model_4b() -> ModelConfig {
    ModelConfig::new(50, 2560, 16)
}

/// The 39.4B model: STRONGHOLD's largest trainable on the V100 (Fig. 6a).
pub fn model_39_4b() -> ModelConfig {
    ModelConfig::new(500, 2560, 16)
}

/// All rows of Table I, in paper order.
pub fn table1() -> Vec<ModelConfig> {
    let mut v = Vec::new();
    // Row 1: hidden 2560, MP 1.
    for layers in [20, 50, 74, 75, 83, 260, 300, 500] {
        v.push(ModelConfig::new(layers, 2560, 16));
    }
    // Row 2: hidden 4096, MP 1.
    v.push(ModelConfig::new(19, 4096, 16));
    // Row 3: hidden 5120, MP 1.
    for layers in [19, 31] {
        v.push(ModelConfig::new(layers, 5120, 16));
    }
    // Row 4: hidden 5120, MP 8.
    for layers in [10, 12, 24, 72, 200, 240, 260, 328, 1174, 1676] {
        v.push(ModelConfig::new(layers, 5120, 16).with_mp(8));
    }
    // Row 5: hidden 8192, MP 8.
    for layers in [24, 31] {
        v.push(ModelConfig::new(layers, 8192, 16).with_mp(8));
    }
    // Row 6: hidden 8704 / 9216 / 13312 at 31 layers, MP 8.
    for hidden in [8704, 9216, 13_312] {
        v.push(ModelConfig::new(31, hidden, 16).with_mp(8));
    }
    v
}

/// A tiny configuration for functional (real-math) tests and examples.
pub fn tiny(layers: usize) -> ModelConfig {
    ModelConfig {
        layers,
        hidden: 32,
        heads: 4,
        seq: 16,
        vocab: 64,
        batch: 2,
        mp_degree: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_match_paper_labels() {
        // Paper sizes for the hidden-2560 row: 1.7, 4.0, 5.9, 6.0, 6.6, 20.5,
        // 23.7, 39.4 billion.
        let expect = [1.7, 4.0, 5.9, 6.0, 6.6, 20.5, 23.7, 39.4];
        for (cfg, want) in table1()[..8].iter().zip(expect) {
            let got = cfg.billions();
            assert!(
                (got - want).abs() < 0.15,
                "layers {} hidden {}: got {got:.2}B want {want}B",
                cfg.layers,
                cfg.hidden
            );
        }
    }

    #[test]
    fn table1_wide_rows_match() {
        let t = table1();
        // hidden 4096, 19 layers -> 4.0B
        assert!((t[8].billions() - 4.0).abs() < 0.15, "{}", t[8].billions());
        // hidden 5120, 19/31 layers -> 6.2B / 10.0B
        assert!((t[9].billions() - 6.2).abs() < 0.2, "{}", t[9].billions());
        assert!(
            (t[10].billions() - 10.0).abs() < 0.3,
            "{}",
            t[10].billions()
        );
        // MP=8 row: 10 layers h=5120 -> 3.4B ... 1676 layers -> 524.5B
        assert!((t[11].billions() - 3.4).abs() < 0.3, "{}", t[11].billions());
        assert!(
            (t[20].billions() - 524.5).abs() < 4.0,
            "{}",
            t[20].billions()
        );
        // hidden 8192: 24 -> 19.8B, 31 -> 25.4B
        assert!(
            (t[21].billions() - 19.8).abs() < 0.5,
            "{}",
            t[21].billions()
        );
        assert!(
            (t[22].billions() - 25.4).abs() < 0.6,
            "{}",
            t[22].billions()
        );
        // 31 layers at 8704/9216/13312 -> 28.7/32.1/66.7B
        assert!(
            (t[23].billions() - 28.7).abs() < 0.7,
            "{}",
            t[23].billions()
        );
        assert!(
            (t[24].billions() - 32.1).abs() < 0.8,
            "{}",
            t[24].billions()
        );
        assert!(
            (t[25].billions() - 66.7).abs() < 1.5,
            "{}",
            t[25].billions()
        );
    }

    #[test]
    fn table1_has_all_26_configs() {
        assert_eq!(table1().len(), 26);
    }

    #[test]
    fn named_models() {
        assert!((common_1_7b().billions() - 1.7).abs() < 0.1);
        assert!((model_4b().billions() - 4.0).abs() < 0.1);
        assert!((model_39_4b().billions() - 39.4).abs() < 0.3);
    }

    #[test]
    fn shard_params_smaller_under_mp() {
        let c = ModelConfig::new(24, 5120, 16).with_mp(8);
        assert!(c.block_params_per_shard() < c.block_params());
        assert!(c.block_params_per_shard() > c.block_params() / 9);
    }

    #[test]
    fn builders() {
        let c = ModelConfig::new(2, 64, 4)
            .with_batch(8)
            .with_seq(128)
            .with_vocab(100)
            .with_mp(2);
        assert_eq!(c.batch, 8);
        assert_eq!(c.seq, 128);
        assert_eq!(c.vocab, 100);
        assert_eq!(c.mp_degree, 2);
    }
}
