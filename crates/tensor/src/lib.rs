//! CPU tensor substrate for the STRONGHOLD reproduction.
//!
//! This crate provides the numerical foundation that stands in for PyTorch's
//! CPU/GPU tensor runtime in the original system: dense `f32` tensors,
//! kernels (matmul, elementwise, softmax, layernorm, GELU) parallel over one
//! persistent fork-join pool ([`pool`]), and hand-written forward/backward
//! passes for the layer types a GPT-style transformer needs (linear,
//! multi-head attention, embedding, cross-entropy).
//!
//! Everything is deterministic: parallel reductions are structured so the
//! floating-point summation order does not depend on thread scheduling, which
//! lets the integration suite assert *exact* equality between offloaded and
//! non-offloaded training (the paper's "no stale updates, no precision loss"
//! claim, Section III-A).

pub mod attention;
pub mod embedding;
pub mod half;
pub mod init;
pub mod linear;
pub mod loss;
pub mod matmul;
pub mod ops;
pub mod pool;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use half::{PackedHalf, Precision};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Offending shapes rendered as strings.
        detail: String,
    },
    /// An index was out of bounds.
    OutOfBounds {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Offending index.
        index: usize,
        /// Bound that was violated.
        bound: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in {op}: {detail}")
            }
            TensorError::OutOfBounds { op, index, bound } => {
                write!(f, "index {index} out of bounds {bound} in {op}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
