//! Multi-streamed GPU execution (§IV-A).
//!
//! By shrinking the resident footprint, STRONGHOLD frees enough device
//! memory to run several *executors* — each bound to a CUDA stream and
//! processing a micro-batch — against a single copy of the model
//! parameters. The warm-up phase picks the stream count: the largest `k`
//! that (a) still fits device memory and (b) actually improves simulated
//! throughput (concurrency stops paying once the SM array saturates).

use stronghold_model::config::ModelConfig;
use stronghold_sim::Platform;

use crate::error::Result;
use crate::memplan::StrongholdMemPlan;
use crate::offload::{simulate_iteration, OffloadOptions};

/// Upper bound on concurrent executors the runtime will consider (beyond
/// this, per-stream scheduling overhead always dominates).
pub const MAX_STREAMS: usize = 8;

/// Chooses the executor count for a configuration on a platform, as the
/// warm-up phase does: simulate candidate counts and keep the fastest
/// memory-feasible one.
pub fn choose_streams(
    cfg: &ModelConfig,
    platform: &Platform,
    opts: &OffloadOptions,
) -> Result<usize> {
    let mut best_k = 1usize;
    let mut best_tp = f64::MIN;
    for k in 1..=MAX_STREAMS.min(cfg.batch.max(1)) {
        let plan = StrongholdMemPlan::new(*cfg, k, opts.cold_tier);
        // A window of one is the minimum footprint this k could run with.
        if !plan.feasible(platform, 1) {
            break;
        }
        let candidate = OffloadOptions {
            streams: k,
            ..*opts
        };
        let Ok(report) = simulate_iteration(cfg, platform, &candidate) else {
            break;
        };
        if report.throughput > best_tp {
            best_tp = report.throughput;
            best_k = k;
        }
    }
    Ok(best_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;

    #[test]
    fn chooses_more_than_one_stream_for_small_batch() {
        let cfg = common_1_7b().with_batch(4);
        let k = choose_streams(&cfg, &Platform::v100_server(), &OffloadOptions::default()).unwrap();
        assert!(
            k > 1,
            "small-batch 1.7B should benefit from multi-streaming, got k={k}"
        );
    }

    #[test]
    fn stream_count_never_exceeds_batch() {
        let cfg = common_1_7b().with_batch(2);
        let k = choose_streams(&cfg, &Platform::v100_server(), &OffloadOptions::default()).unwrap();
        assert!(k <= 2);
    }
}
