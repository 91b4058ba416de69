//! GPT-style transformer models for the STRONGHOLD reproduction.
//!
//! Provides both sides of the model coin:
//!
//! * **Accounting** ([`config`], [`layer`], [`memory`]): parameter counts,
//!   FLOPs and byte sizes per layer for arbitrary Table I configurations —
//!   the inputs to the performance simulator. Billion-parameter models are
//!   described here without ever materializing their weights.
//! * **Functional model** ([`block`], [`transformer`]): a real, trainable
//!   GPT built on `stronghold-tensor`, with hand-written backward passes and
//!   activation checkpointing, used by the functional substrate to prove the
//!   runtime's exactness claims.

pub mod block;
pub mod config;
pub mod data;
pub mod layer;
pub mod memory;
pub mod serialize;
pub mod transformer;

pub use config::ModelConfig;
pub use layer::{LayerKind, LayerSpec};
pub use transformer::Transformer;
