//! Deterministic virtual-time performance simulator.
//!
//! The STRONGHOLD runtime and every baseline write one iteration as a
//! [`plan::Plan`]: an op list (compute kernels, CPU↔GPU copies, NVMe I/O,
//! CPU-optimizer tasks), each op on one hardware lane with a duration, the
//! earlier ops it waits for and a label. Each method's module is only a plan
//! builder; [`plan::price`] is the one pricer. A lane is a single-server
//! FIFO or, for the CPU optimizer, a pool of servers; an op starts at
//! `max(lane free, latest dependency end + its gap)`, which is an exact
//! discrete-event simulation for FIFO servers. Memory is not simulated here:
//! whether a configuration fits is a closed-form peak of its method's memory
//! plan (`StrongholdMemPlan::feasible` in `stronghold-core` and each
//! baseline's `TrainingMethod::feasible`) — the mechanism behind every
//! largest-trainable-model-size experiment (Figs. 1a, 6a, 6b).
//!
//! Nothing here allocates model-sized buffers: a 524 B-parameter model is
//! simulated in microseconds of wall time.

pub mod calibration;
pub mod cost;
pub mod hardware;
pub mod plan;
pub mod time;
pub mod timeline;

pub use cost::CostModel;
pub use hardware::Platform;
pub use plan::{price, OpId, Plan};
pub use time::SimTime;
pub use timeline::{Lane, Segment, Timeline};
