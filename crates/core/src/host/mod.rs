//! The functional execution substrate: the STRONGHOLD pipeline with real
//! threads and real math.
//!
//! [`offloaded::HostOffloadTrainer`] runs the working-window pipeline — the
//! layer stream (`stream`: a prefetcher thread loading layers from the CPU
//! [`LayerStore`](crate::optimpool::LayerStore) into the `m + 1` shells of a
//! capacity-limited "device"; the serving engine runs the same stream
//! forward-only, staging each next round's first layers under the current
//! round's tail and head), a D2H engine thread copying gradients back, and the
//! concurrent Adam actor pool applying updates as gradients stream off the
//! device. Every one of those threads is started with its owner and joined
//! when it drops: a pass or a step starts none. [`resident::HostResidentTrainer`] is an
//! independently-written conventional trainer over the same model; the
//! integration suite asserts the two produce **bit-identical parameters**,
//! which is the paper's §III-A claim that asynchronous offloading introduces
//! no stale updates and does not affect training precision.

//!
//! Both trainers *are* the step engine in [`engine`] — type aliases of
//! [`Engine`] over their backend: the backends own *placement* (where
//! parameters live, how forward/backward fan out) and the reads specific
//! to it (reached through `Deref`), while the engine owns *policy*
//! (gradient clipping, LR schedules, optimizer dispatch, checkpointing).

//!
//! [`data_parallel::DataParallelTrainer`] composes the above: `w` unchanged
//! [`HostOffloadTrainer`] replicas on rank-sharded batches, with bucketed
//! all-reduce gradient rendezvous through the engine's [`engine::GradSink`]
//! seam.

pub mod data_parallel;
pub mod device;
pub mod engine;
pub mod offloaded;
pub mod profiler;
pub mod resident;
pub(crate) mod stream;

pub use data_parallel::{AllReduceSink, DataParallelConfig, DataParallelTrainer};
pub use engine::{
    Engine, EngineOptions, GradSink, LocalSink, ParamBackend, StepPlan, TrainingState,
};
pub use offloaded::{HostOffloadConfig, HostOffloadTrainer};
pub use resident::HostResidentTrainer;

pub use crate::tier::{Tier, TierBandwidths, TierPlan};
