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
//! | §III-C working window, Fig. 3 pipelines | [`offload`] (sim), [`host::offloaded`] (real; no hook registry: the paper hooks into PyTorch's loop, here [`host::Engine::train_step`] owns the loop and channels drive the prefetcher and the D2H engine) |
//! | §III-D analytical model (P1, P2, Eqs. 3–5) | [`analytic`], [`profile`] |
//! | §III-E1 concurrent CPU optimizers | [`optimpool`], [`adam`]; the actors, like the prefetcher, the D2H engine and the spill filler, are instances of the one long-lived worker primitive `actor` |
//! | §III-E3 user-level memory management | [`host::device::HostDevice`] arena + the `m + 1` shell pool of the layer stream (`host::stream`) |
//! | §III-G NVMe tier | [`nvme`], [`tier`] |
//! | §IV-A multi-stream execution | [`multistream`] (sim only: Figs. 11 / 14; on the host the kernel pool shares the one parameter copy inside every GEMM) |
//! | §VI-D3 inference / knowledge distillation | [`inference`] |

mod actor;
pub mod adam;
pub mod analytic;
pub mod clip;
pub mod error;
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

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub use error::RuntimeError;
pub use method::{IterationReport, TrainingMethod};
pub use telemetry::Telemetry;
pub use trainer::Stronghold;

/// Locks `m`, taking the guard back from a poisoned lock. A thread that
/// panicked while holding it (a layer whose swap-file I/O failed panics
/// under its slot lock) must not turn every later lock — the trainer's
/// drop and flush among them — into a second panic.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the guard from poison as [`lock`] does.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::{lock, wait};
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *lock(&m) += 41;
        assert_eq!(*lock(&m), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (flag, cv) = &*pair2;
            let mut ready = lock(flag);
            while !*ready {
                ready = wait(cv, ready);
            }
            *ready
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let (flag, cv) = &*pair;
            *lock(flag) = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn poison_is_recovered() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }
}
