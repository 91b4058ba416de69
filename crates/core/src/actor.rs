//! The one long-lived worker primitive behind the runtime's threads: the
//! layer stream's prefetcher, the D2H engine, the spill filler and the
//! optimizer actors (§III-E1; the paper's Ray actor pool).
//!
//! An [`Actor`] starts its named threads once, at construction, and joins
//! them when it drops, so no step or round starts a thread. Jobs reach the
//! workers over one channel whose bound the owner picks. Each worker runs
//! its own handler, built for it by the owner's factory, so a worker may
//! keep reusable state (an optimizer actor's staging buffers). Every job
//! runs under `catch_unwind`: a panicking job ends only itself, its worker
//! lives on, and the first panic waits for [`Actor::flush`] to hand it to
//! the owner, which re-raises it on the thread that awaits the work.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam_channel::{bounded, unbounded, Sender};

use crate::{lock, wait};

/// A panic payload caught on a worker.
pub(crate) type Panic = Box<dyn Any + Send>;

/// What the workers and [`Actor::flush`] share.
#[derive(Default)]
struct Ledger {
    /// Jobs sent and not yet ended, by return or by unwind.
    in_flight: usize,
    /// The first panic since the last flush.
    panic: Option<Panic>,
}

/// Long-lived threads running jobs of type `J`. See the module docs.
pub(crate) struct Actor<J> {
    /// `None` once the actor is dropping.
    jobs: Option<Sender<J>>,
    ledger: Arc<(Mutex<Ledger>, Condvar)>,
    threads: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> Actor<J> {
    /// Starts one thread per name in `names`, each running every job it
    /// takes through a handler of its own, built by `handler`. `bound` caps
    /// the job queue (`None`: unbounded); a full queue blocks
    /// [`Actor::send`].
    pub(crate) fn start<H>(
        names: impl IntoIterator<Item = String>,
        bound: Option<usize>,
        mut handler: impl FnMut() -> H,
    ) -> Self
    where
        H: FnMut(J) + Send + 'static,
    {
        let (jobs, rx) = match bound {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        let ledger = Arc::new((Mutex::new(Ledger::default()), Condvar::new()));
        let threads = names
            .into_iter()
            .map(|name| {
                let (rx, ledger, mut run) = (rx.clone(), Arc::clone(&ledger), handler());
                crate::telemetry::count_spawn();
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let end = catch_unwind(AssertUnwindSafe(|| run(job)));
                            let (ledger, ended) = &*ledger;
                            let mut ledger = lock(ledger);
                            if let Err(panic) = end {
                                ledger.panic.get_or_insert(panic);
                            }
                            ledger.in_flight -= 1;
                            if ledger.in_flight == 0 {
                                ended.notify_all();
                            }
                        }
                    })
                    .expect("spawn actor thread")
            })
            .collect();
        Actor {
            jobs: Some(jobs),
            ledger,
            threads,
        }
    }

    /// Queues `job` for the next free worker.
    pub(crate) fn send(&self, job: J) {
        lock(&self.ledger.0).in_flight += 1;
        (self.jobs.as_ref().expect("actor alive"))
            .send(job)
            .expect("actor threads alive");
    }

    /// Waits until every job sent has ended, and hands back the first panic
    /// that ended one since the last flush.
    pub(crate) fn flush(&self) -> Option<Panic> {
        let (ledger, ended) = &*self.ledger;
        let mut ledger = lock(ledger);
        while ledger.in_flight > 0 {
            ledger = wait(ended, ledger);
        }
        ledger.panic.take()
    }
}

impl<J> Drop for Actor<J> {
    /// Closes the queue and joins the workers; they run the jobs still
    /// queued first.
    fn drop(&mut self) {
        drop(self.jobs.take());
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    type Job = Box<dyn FnOnce() + Send>;

    fn actor(workers: usize) -> Actor<Job> {
        Actor::start((0..workers).map(|w| format!("test-{w}")), None, || {
            |job: Job| job()
        })
    }

    /// Runs `body` on its own thread and fails if it has not returned
    /// within ten seconds: a flush that never wakes fails, not hangs.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the body returned");
    }

    #[test]
    fn a_panicking_job_is_reported_once_and_its_worker_lives_on() {
        within_watchdog(|| {
            let actor = actor(1);
            let ran = Arc::new(AtomicUsize::new(0));
            actor.send(Box::new(|| panic!("job failed")));
            let later = Arc::clone(&ran);
            actor.send(Box::new(move || {
                std::thread::sleep(Duration::from_millis(20));
                later.fetch_add(1, Ordering::SeqCst);
            }));
            let panic = actor.flush().expect("the panic is handed back");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"job failed"));
            assert_eq!(ran.load(Ordering::SeqCst), 1, "the later job ran");
            assert!(actor.flush().is_none(), "the panic is handed back once");
        });
    }

    #[test]
    fn drop_runs_the_queued_jobs_then_joins() {
        let actor = actor(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let (open, gate) = mpsc::channel::<()>();
        actor.send(Box::new(move || {
            let _ = gate.recv();
        }));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            actor.send(Box::new(move || {
                std::thread::sleep(Duration::from_millis(5));
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        open.send(()).expect("the gate job is waiting");
        drop(actor);
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn flush_waits_for_every_job_from_every_producer() {
        within_watchdog(|| {
            let actor = actor(4);
            let ran = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for i in 0..50 {
                            let ran = Arc::clone(&ran);
                            actor.send(Box::new(move || {
                                std::thread::sleep(Duration::from_micros(200 * (i % 3)));
                                ran.fetch_add(1, Ordering::SeqCst);
                            }));
                        }
                    });
                }
            });
            assert!(actor.flush().is_none());
            assert_eq!(ran.load(Ordering::SeqCst), 100);
        });
    }
}
