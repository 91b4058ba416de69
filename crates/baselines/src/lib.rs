//! The paper's competing baselines (§V-C), each re-implemented from its
//! published description as a memory-placement policy plus an iteration
//! schedule priced on the shared cost model:
//!
//! * [`megatron::MegatronLM`] — everything resident on the GPU; the
//!   trainable-size reference and throughput reference (Megatron-LM v2.6).
//! * [`l2l::L2L`] — one transformer layer on the GPU at a time, fully
//!   synchronous pageable transfers, optimizer state kept on-device.
//! * [`zero_offload::ZeroOffload`] — parameters/gradients on the GPU,
//!   optimizer states + fused CPU Adam on the host.
//! * [`zero_infinity::ZeroInfinity`] — fine-grained partitioning across
//!   GPU/CPU (and optionally NVMe) with per-layer gather/refactor overhead.
//! * [`pytorch_infer::PlainInference`] — a plain framework forward pass
//!   (the Fig. 13 comparator that OOMs beyond device memory).
//!
//! All implement [`stronghold_core::TrainingMethod`], so the harnesses can
//! sweep them interchangeably with STRONGHOLD.

pub mod common;
pub mod l2l;
pub mod megatron;
pub mod pytorch_infer;
pub mod zero_infinity;
pub mod zero_offload;

pub use l2l::L2L;
pub use megatron::MegatronLM;
pub use pytorch_infer::{PlainInference, StaticBatchConfig, StaticBatchGenerator};
pub use zero_infinity::ZeroInfinity;
pub use zero_offload::ZeroOffload;
