//! Collective communication for the STRONGHOLD reproduction.
//!
//! Three pieces, mirroring §III-F of the paper:
//!
//! * [`real`] — the shared-memory rendezvous all-reduce the data-parallel
//!   trainer's replicas reduce through (the NCCL/Gloo substitute).
//! * [`volume`] — the analytical cross-server traffic model (`V_dp`,
//!   `V_mp`) of §III-F, used by Fig. 12 and the `comms` experiment.
//! * [`order`] — the canonical pairwise reduction tree every gradient
//!   fan-in shares, which is what makes data-parallel training bit-identical
//!   to single-replica training.

pub mod order;
pub mod real;
pub mod volume;

pub use order::{fold_with, tree_sum, FoldPlan};
pub use real::{CommRank, Communicator};
pub use volume::{v_dp, v_dp_exact, v_mp, volume_ratio};
