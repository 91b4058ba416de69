//! The functional execution substrate: the STRONGHOLD pipeline with real
//! threads and real math.
//!
//! [`offloaded::HostOffloadTrainer`] runs the working-window pipeline — the
//! layer stream (`stream`: a prefetcher thread loading layers from the CPU
//! [`LayerStore`](crate::optimpool::LayerStore) into the `m + 1` shells of a
//! capacity-limited "device"; the serving engine runs the same stream
//! forward-only) and the concurrent Adam actor pool applying updates as
//! gradients stream off the device. [`resident::HostResidentTrainer`] is an
//! independently-written conventional trainer over the same model; the
//! integration suite asserts the two produce **bit-identical parameters**,
//! which is the paper's §III-A claim that asynchronous offloading introduces
//! no stale updates and does not affect training precision.

//!
//! Both trainers *are* the step engine in [`engine`] — type aliases of
//! [`Engine`] over their backend: the backends own *placement* (where
//! parameters live, how forward/backward fan out) and the reads specific
//! to it (reached through `Deref`), while the engine owns *policy*
//! (gradient clipping, LR schedules, optimizer dispatch, hooks,
//! checkpointing).

//!
//! [`data_parallel::DataParallelTrainer`] composes the above: `w` unchanged
//! [`HostOffloadTrainer`] replicas on rank-sharded batches, with bucketed
//! all-reduce gradient rendezvous through the engine's [`engine::GradSink`]
//! seam.

pub mod autotune;
pub mod data_parallel;
pub mod device;
pub mod engine;
pub mod offloaded;
pub mod profiler;
pub mod resident;
pub(crate) mod stream;

pub use autotune::{AutotuneConfig, AutotuneController, StallSignals, TuneLimits, Tuning};
pub use data_parallel::{AllReduceSink, DataParallelConfig, DataParallelTrainer};
pub use engine::{
    Engine, EngineOptions, GradSink, LocalSink, ParamBackend, StepPlan, TrainingState,
};
pub use offloaded::{HostOffloadConfig, HostOffloadTrainer};
pub use resident::HostResidentTrainer;

pub use crate::tier::{SpillPolicy, Tier, TierBandwidths, TierPlan};
