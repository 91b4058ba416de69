//! Collective communication for the STRONGHOLD reproduction.
//!
//! Three pieces, mirroring §III-E2 and §III-F of the paper:
//!
//! * [`real`] — actual multi-threaded ring collectives over in-memory
//!   buffers, used by the functional substrate (the NCCL/Gloo substitute).
//! * [`hetero`] — concurrent CPU- and GPU-tensor collective channels; the
//!   paper's extension that lifts PyTorch's one-tensor-type-at-a-time
//!   restriction.
//! * [`volume`] — the analytical cross-server traffic model (`V_dp`,
//!   `V_mp`) of §III-F, used by Fig. 12 and the `comms` experiment.
//! * [`order`] — the canonical pairwise reduction tree every gradient
//!   fan-in shares, which is what makes data-parallel training bit-identical
//!   to single-replica training.

pub mod hetero;
pub mod order;
pub mod real;
pub mod volume;

pub use order::{fold_with, tree_sum, FoldPlan};
pub use real::{ring_allgather, ring_allreduce_sum, CommRank, Communicator};
pub use volume::{v_dp, v_dp_exact, v_mp, volume_ratio};
