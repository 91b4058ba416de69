//! Deterministic virtual-time performance simulator.
//!
//! The STRONGHOLD runtime and every baseline emit *operation schedules*
//! (compute kernels, CPU↔GPU copies, NVMe I/O, collective operations,
//! CPU-optimizer tasks) against this engine. Each hardware unit is a
//! single-server FIFO resource or a worker pool; operation completion times
//! are computed greedily (`start = max(resource free, dependencies)`), which
//! is an exact discrete-event simulation for FIFO servers. Memory is not
//! simulated here: whether a configuration fits is a closed-form peak of its
//! method's memory plan (`StrongholdMemPlan::feasible` in `stronghold-core`
//! and each baseline's `TrainingMethod::feasible`) — the mechanism behind
//! every largest-trainable-model-size experiment (Figs. 1a, 6a, 6b).
//!
//! Nothing here allocates model-sized buffers: a 524 B-parameter model is
//! simulated in microseconds of wall time.

pub mod calibration;
pub mod cost;
pub mod hardware;
pub mod resource;
pub mod time;
pub mod timeline;

pub use cost::CostModel;
pub use hardware::Platform;
pub use resource::{FifoResource, WorkerPool};
pub use time::SimTime;
pub use timeline::{Lane, Segment, Timeline};
