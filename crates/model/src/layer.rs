//! Per-layer accounting: the offloading unit of the STRONGHOLD runtime.
//!
//! A [`LayerSpec`] describes one layer of the tensor graph as the runtime
//! sees it (§III-B): its parameter/gradient/optimizer byte sizes (the "model
//! state" `S_k` of the analytical model) and its forward/backward FLOPs.
//! Under tensor parallelism the spec describes the *per-GPU shard*, which the
//! paper notes is then the offloading unit.

use crate::config::ModelConfig;

/// Bytes per FP32 scalar.
pub const F32_BYTES: u64 = 4;
/// Bytes of Adam optimizer state per parameter (momentum + variance, FP32).
pub const ADAM_STATE_BYTES: u64 = 8;

/// The kind of a model layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// Token + positional embedding (kept on-GPU by STRONGHOLD, Fig. 3).
    Embedding,
    /// One transformer block.
    Block,
    /// Final layernorm + (tied) LM head / pooling (kept on-GPU, Fig. 3).
    Head,
}

/// Static description of one layer: the unit of offloading, profiling and
/// window accounting.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpec {
    /// Position in the forward execution order (0-based).
    pub index: usize,
    /// Layer kind.
    pub kind: LayerKind,
    /// Parameter count of this layer's local shard.
    pub params: u64,
    /// FLOPs for a forward pass of one *sample* through this shard.
    pub flops_fp: u64,
    /// FLOPs for a backward pass of one sample (≈ 2× forward; the additional
    /// recompute cost of activation checkpointing is accounted separately by
    /// the cost model, matching footnote 2 of the paper).
    pub flops_bp: u64,
    /// Bytes of the activation checkpoint that must stay resident between FP
    /// and BP for one sample (layer-wise checkpointing, §V-D).
    pub act_checkpoint_bytes: u64,
    /// Peak bytes of transient activation workspace while this layer computes
    /// on one sample (attention score matrices etc.).
    pub act_workspace_bytes: u64,
}

impl LayerSpec {
    /// Parameter bytes (FP32).
    pub fn param_bytes(&self) -> u64 {
        self.params * F32_BYTES
    }

    /// Gradient bytes (FP32).
    pub fn grad_bytes(&self) -> u64 {
        self.params * F32_BYTES
    }

    /// Optimizer state bytes (Adam momentum + variance).
    pub fn opt_state_bytes(&self) -> u64 {
        self.params * ADAM_STATE_BYTES
    }

    /// The model state resident during BP: parameters + gradients.
    pub fn bp_state_bytes(&self) -> u64 {
        self.param_bytes() + self.grad_bytes()
    }

    /// Full model-state footprint if everything lived on one device
    /// (parameters + gradients + optimizer state), 16 bytes/param as in
    /// ZeRO's accounting for FP32.
    pub fn full_state_bytes(&self) -> u64 {
        self.param_bytes() + self.grad_bytes() + self.opt_state_bytes()
    }
}

/// Builds the execution-ordered layer list for a configuration.
///
/// This is the output of STRONGHOLD's preprocessing stage (§III-B): the
/// layer sequence extracted from the tensor graph, with per-layer storage
/// sizes computed at model-load time.
pub fn build_layers(cfg: &ModelConfig) -> Vec<LayerSpec> {
    let h = cfg.hidden as u64;
    let t = cfg.seq as u64;
    let v = cfg.vocab as u64;
    let mp = cfg.mp_degree as u64;
    let heads = cfg.heads as u64;

    let mut layers = Vec::with_capacity(cfg.layers + 2);

    // Embedding: lookup is cheap; LM-head cost is carried by the Head layer.
    layers.push(LayerSpec {
        index: 0,
        kind: LayerKind::Embedding,
        params: (v + t) * h / mp,
        flops_fp: 2 * t * h, // additions of token+position rows
        flops_bp: 2 * t * h,
        act_checkpoint_bytes: t * h * F32_BYTES,
        act_workspace_bytes: t * h * F32_BYTES,
    });

    // Transformer blocks: 24·T·h² matmul FLOPs + 4·T²·h attention FLOPs.
    let block_params = cfg.block_params_per_shard();
    let block_flops = 24 * t * h * h / mp + 4 * t * t * h / mp;
    for i in 0..cfg.layers {
        layers.push(LayerSpec {
            index: i + 1,
            kind: LayerKind::Block,
            params: block_params,
            flops_fp: block_flops,
            flops_bp: 2 * block_flops,
            act_checkpoint_bytes: t * h * F32_BYTES,
            act_workspace_bytes: (4 * t * h + heads * t * t / mp) * F32_BYTES,
        });
    }

    // Head: final LN + tied LM-head matmul + loss.
    layers.push(LayerSpec {
        index: cfg.layers + 1,
        kind: LayerKind::Head,
        params: 2 * h,
        flops_fp: 2 * t * h * v / mp,
        flops_bp: 4 * t * h * v / mp,
        act_checkpoint_bytes: t * h * F32_BYTES,
        act_workspace_bytes: t * v * F32_BYTES / mp,
    });

    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{common_1_7b, ModelConfig};

    #[test]
    fn layer_count_is_blocks_plus_two() {
        let cfg = common_1_7b();
        let layers = build_layers(&cfg);
        assert_eq!(layers.len(), cfg.layers + 2);
        assert_eq!(layers[0].kind, LayerKind::Embedding);
        assert_eq!(layers[cfg.layers + 1].kind, LayerKind::Head);
        assert!(layers[1..=cfg.layers]
            .iter()
            .all(|l| l.kind == LayerKind::Block));
    }

    #[test]
    fn total_params_match_config_without_mp() {
        let cfg = common_1_7b();
        let layers = build_layers(&cfg);
        let params: u64 = layers.iter().map(|l| l.params).sum();
        assert_eq!(params, cfg.total_params());
    }

    #[test]
    fn state_bytes_are_16_per_param() {
        let cfg = ModelConfig::new(4, 256, 4);
        let layers = build_layers(&cfg);
        let state: u64 = layers.iter().map(|l| l.full_state_bytes()).sum();
        let params: u64 = layers.iter().map(|l| l.params).sum();
        assert_eq!(state, params * 16);
    }

    #[test]
    fn bp_flops_double_fp() {
        let layers = build_layers(&common_1_7b());
        for l in &layers[1..layers.len() - 1] {
            assert_eq!(l.flops_bp, 2 * l.flops_fp);
        }
    }

    #[test]
    fn mp_shrinks_shard_and_flops() {
        let base = ModelConfig::new(24, 5120, 16);
        let sharded = base.with_mp(8);
        let l1 = build_layers(&base);
        let l8 = build_layers(&sharded);
        assert!(l8[1].params < l1[1].params / 7);
        assert!(l8[1].flops_fp <= l1[1].flops_fp / 8 + 1);
    }

    #[test]
    fn indices_are_execution_order() {
        let layers = build_layers(&ModelConfig::new(3, 64, 4));
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.index, i);
        }
    }
}
