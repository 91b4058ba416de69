//! Runtime error types.

/// Errors produced by the STRONGHOLD runtime and the baseline schedulers.
#[derive(Debug, Clone)]
pub enum RuntimeError {
    /// The model cannot run under this method on this platform even with the
    /// smallest configuration the method supports (e.g. window of one layer).
    Infeasible {
        /// Method name.
        method: String,
        /// Why the configuration cannot run.
        reason: String,
    },
    /// Invalid configuration handed to the runtime.
    Config(String),
    /// A training-state blob could not be restored: unknown format version,
    /// truncated or oversized payload, or a model/optimizer shape that does
    /// not match the configuration the trainer was asked to resume with.
    Checkpoint(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Infeasible { method, reason } => {
                write!(f, "{method}: infeasible: {reason}")
            }
            RuntimeError::Config(msg) => write!(f, "configuration error: {msg}"),
            RuntimeError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = RuntimeError::Infeasible {
            method: "l2l".into(),
            reason: "optimizer state exceeds device".into(),
        };
        assert!(e.to_string().contains("infeasible"));
    }
}
