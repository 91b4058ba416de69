//! # STRONGHOLD runtime
//!
//! Reproduction of the core contribution of *"STRONGHOLD: Fast and Affordable
//! Billion-Scale Deep Learning Model Training"* (SC'22): a CPU↔GPU
//! offloading runtime that keeps only a dynamic **working window** of DNN
//! layers in device memory, prefetching and offloading layer state
//! asynchronously so data movement hides under compute.
//!
//! The runtime has two interchangeable execution substrates:
//!
//! * [`offload`] + [`trainer`] schedule iterations on the **virtual-time
//!   simulator** (`stronghold-sim`), pricing billion-parameter models on the
//!   paper's V100/A10 platforms in microseconds of wall time — this is what
//!   regenerates every figure;
//! * [`host`] runs the *same pipeline* with **real threads and real math**
//!   on small models, proving the paper's exactness claim: offloaded
//!   training produces bit-identical parameters to resident training. One
//!   layer stream (`host::stream`) feeds the training step, evaluation and
//!   the [`serve`] engine.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §III-C working window, Fig. 3 pipelines | [`offload`] (sim), [`host::offloaded`] (real) |
//! | §III-D analytical model (P1, P2, Eqs. 3–5) | [`analytic`], [`profile`] |
//! | §III-E1 concurrent CPU optimizers | [`optimpool`], [`adam`] |
//! | §III-E3 user-level memory management | [`host::device::HostDevice`] arena + the `m + 1` shell pool of the layer stream (`host::stream`) |
//! | §III-G NVMe tier | [`nvme`], [`tier`] |
//! | §IV-A multi-stream execution | [`multistream`] (sim), `compute_workers` of [`host::offloaded`] (real) |
//! | §VI-D3 inference / knowledge distillation | [`inference`] |

pub mod adam;
pub mod analytic;
pub mod clip;
pub mod error;
pub mod graph;
pub mod hooks;
pub mod host;
pub mod inference;
pub mod memplan;
pub mod method;
pub mod multistream;
pub mod nvme;
pub mod offload;
pub mod optimpool;
pub mod profile;
pub mod schedule;
pub mod serve;
pub mod telemetry;
pub mod tier;
pub mod trainer;

pub use error::RuntimeError;
pub use method::{IterationReport, TrainingMethod};
pub use telemetry::Telemetry;
pub use trainer::{Stronghold, StrongholdOptions};
