//! Offline shim for `rayon`.
//!
//! Two tiers of fidelity:
//!
//! * The slice adapters (`par_iter` / `par_iter_mut` / `par_chunks` /
//!   `par_chunks_mut`) return the corresponding **std sequential
//!   iterators**. Every adapter the workspace chains on them (`zip`,
//!   `enumerate`, `map`, `for_each`, `collect`, `sum`) is then the plain
//!   `Iterator` machinery, so kernels compile unchanged and — as a bonus
//!   — reductions become bit-exact deterministic regardless of thread
//!   count.
//! * Index-space parallelism (`(0..n).into_par_iter().for_each(..)`) is
//!   **real**: the calling thread and the helpers of one process-wide
//!   persistent pool claim indices from a shared atomic cursor. This is
//!   the dispatch the blocked GEMM engine uses for its tile grid, where
//!   each index owns a disjoint output tile and the summation order is a
//!   function of shape alone, so any schedule is bit-identical.
//!
//! # The pool
//!
//! * **Lifecycle.** Helpers are OS threads started lazily by the first
//!   dispatch that wants them — `available_parallelism − 1` by default,
//!   more when a [`ThreadPool::install`] override asks for a wider
//!   fan-out — and they live, parked, until the process exits (like real
//!   rayon's global pool they are never joined). Because they persist,
//!   whatever a kernel keeps in `thread_local` storage (pack scratch,
//!   tensor pools) stays warm from one dispatch to the next.
//! * **The caller takes part.** A dispatch publishes the job, wakes
//!   sleeping helpers, and then claims indices itself. It returns once the
//!   cursor is exhausted and every helper that *joined* has left; a helper
//!   that wakes late finds the job closed and never delays the caller.
//! * **Spin, then park.** After a job a helper polls for the next one for
//!   50 µs (kernel dispatches arrive in bursts a few microseconds
//!   apart) and then blocks on a condvar, so an idle pool costs nothing
//!   and a busy box gets its core back.
//! * **Busy → inline.** The pool runs one job at a time. A dispatch that
//!   finds it taken — another thread's job, or a dispatch nested inside a
//!   task — runs its range sequentially on the calling thread instead of
//!   queueing, so concurrent callers never oversubscribe the machine and
//!   nesting cannot deadlock.
//! * **Placement.** A helper that joins a job on the very CPU its
//!   dispatcher is running on would time-share that CPU while another sits
//!   idle — and the kernel's balancer can take a second to notice (newly
//!   started and newly woken threads both land next to the thread that
//!   started or woke them). On Linux such a helper therefore bars itself
//!   from that one CPU (`sched_setaffinity`, within the process's allowed
//!   set) and is migrated at once; elsewhere placement is the kernel's.
//! * **Panics.** A panicking task stops further claims, is carried to the
//!   dispatching thread and resumed there after all helpers have left the
//!   job; the pool stays usable.
//!
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] mirror rayon's pool
//! API closely enough for thread-count-sensitivity tests: `install` runs
//! the closure on the calling thread with a thread-local override that
//! `current_num_threads` (and thus `for_each` fan-out) observes.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Sequential stand-ins for `rayon::prelude` traits, plus the real
/// range-parallel entry point.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

thread_local! {
    /// Pool-size override installed by [`ThreadPool::install`].
    static POOL_SIZE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The machine's available parallelism, read once: the std query walks
/// cgroup files on Linux (allocating as it goes), which is far too slow
/// for the per-kernel-call check `current_num_threads` serves.
fn default_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of threads parallel dispatch will use on this thread (the
/// caller plus helpers): the innermost [`ThreadPool::install`] override,
/// else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    POOL_SIZE
        .with(|p| p.get())
        .unwrap_or_else(default_num_threads)
}

/// Error type mirroring rayon's builder error (this shim cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Fresh builder (defaults to available parallelism).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 means "default", as in rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(default_num_threads),
        })
    }
}

/// A sized pool handle: a fan-out width, not a set of threads. Parallel
/// dispatch under [`ThreadPool::install`] runs on the one process-wide
/// pool, which grows to this width on demand.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing all parallel
    /// dispatch performed inside (on this thread).
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        POOL_SIZE.with(|p| {
            let old = p.replace(Some(self.num_threads));
            // Restore on unwind too, so a panicking closure does not leak
            // the override into later work on this thread.
            struct Reset<'a>(&'a Cell<Option<usize>>, Option<usize>);
            impl Drop for Reset<'_> {
                fn drop(&mut self) {
                    self.0.set(self.1);
                }
            }
            let _reset = Reset(p, old);
            f()
        })
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// `into_par_iter` over index ranges (the only item type the workspace
/// fans out over).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over `Range<usize>`: real fan-out over the pool.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Applies `f` to every index. With more than one worker the calling
    /// thread and up to `current_num_threads() − 1` pool helpers claim
    /// indices dynamically from an atomic cursor; when the pool is already
    /// running a job (another thread's, or the one this call is nested in)
    /// the range runs sequentially right here. Either way the caller
    /// returns only after every index completes. `f` must tolerate any
    /// assignment of indices to threads (in the workspace each index owns
    /// disjoint output, so results do not depend on the schedule).
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let workers = current_num_threads().min(self.range.len());
        if workers > 1 && POOL.run(self.range.clone(), workers - 1, &f) {
            return;
        }
        self.range.for_each(f);
    }
}

/// How long an idle helper polls for the next job before it parks.
/// Kernel dispatches come in bursts — a layer issues its next product a
/// few microseconds after the last — and waking a parked thread costs
/// tens of microseconds, so a short poll keeps a burst on two cores; it
/// is kept well under a scheduler tick so that on a box whose other core
/// has work of its own (optimizer, copies, spill I/O) the helper gives it
/// back almost at once.
const SPIN: Duration = Duration::from_micros(50);

/// Low half of [`Pool::state`]: helpers currently inside the job.
const ACTIVE_MASK: u64 = 0xFFFF_FFFF;
/// One join ticket in the high half of [`Pool::state`].
const TICKET: u64 = 1 << 32;

/// A job's type-erased task, borrowed from the dispatching thread's stack.
type Task = &'static (dyn Fn(usize) + Sync);

/// The process-wide fork-join pool (see the module docs for the policy).
///
/// # Protocol
///
/// `busy` serialises dispatchers. Its holder writes the job (`task`,
/// `next`, `end`) while `state == 0`, then *opens* it by storing
/// `helpers` join tickets into the high half of `state`. A helper joins
/// with one CAS that takes a ticket and bumps the active count in the low
/// half, and only then reads the job; it leaves by decrementing the
/// count. Whoever first finds the cursor exhausted *closes* the job
/// (clears the tickets), and the dispatcher returns only once it has
/// closed the job and `state == 0` — so no helper can be reading the job
/// or running its task after the borrow behind `task` ends.
struct Pool {
    busy: AtomicBool,
    state: AtomicU64,
    task: UnsafeCell<Option<Task>>,
    next: AtomicUsize,
    end: AtomicUsize,
    /// CPU the dispatcher was on when it opened the job ([`cpu::UNKNOWN`]
    /// where the platform cannot tell).
    dispatcher_cpu: AtomicUsize,
    /// First panic payload caught on a helper during the current job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Helper threads started so far (written only under `busy`).
    spawned: AtomicUsize,
    /// Helpers blocked (or about to block) on `wake`.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
}

// SAFETY: `task` is the only non-`Sync` field. It is written only by the
// thread holding `busy`, while `state == 0` (no helper inside a job), and
// read only by helpers that joined through `state` afterwards; the SeqCst
// operations on `state` order the write before every such read.
unsafe impl Sync for Pool {}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    state: AtomicU64::new(0),
    task: UnsafeCell::new(None),
    next: AtomicUsize::new(0),
    end: AtomicUsize::new(0),
    dispatcher_cpu: AtomicUsize::new(cpu::UNKNOWN),
    panic: Mutex::new(None),
    spawned: AtomicUsize::new(0),
    sleepers: AtomicUsize::new(0),
    sleep: Mutex::new(()),
    wake: Condvar::new(),
};

impl Pool {
    /// Runs `f` over `range` on the caller plus up to `helpers` pool
    /// threads. Returns `false`, having done nothing, when the pool is
    /// busy.
    fn run(&'static self, range: Range<usize>, helpers: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let helpers = self.ensure_helpers(helpers);
        // SAFETY: extends the borrow to `'static` for storage only. The
        // job is closed and every joined helper has left (`finish`) before
        // this function returns or unwinds, so no use outlives `f`.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(f) };
        // SAFETY: we hold `busy` and `state == 0`, so no helper reads
        // `task` until the store to `state` below publishes it.
        unsafe { *self.task.get() = Some(task) };
        self.next.store(range.start, Ordering::Relaxed);
        self.end.store(range.end, Ordering::Relaxed);
        self.dispatcher_cpu.store(cpu::current(), Ordering::Relaxed);
        self.state.store(helpers as u64 * TICKET, Ordering::SeqCst);
        // A helper counts itself a sleeper *before* it re-checks `state`
        // (both SeqCst), so either it sees the open job or we see it here;
        // taking `sleep` then orders the notify after its wait began.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }

        let mine = catch_unwind(AssertUnwindSafe(|| self.claim(f)));
        self.finish();
        let theirs = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        self.busy.store(false, Ordering::Release);
        match (mine, theirs) {
            (Err(payload), _) | (Ok(()), Some(payload)) => resume_unwind(payload),
            (Ok(()), None) => true,
        }
    }

    /// Claims and runs indices until the cursor is exhausted, then closes
    /// the job so no further helper joins it. On unwind the cursor is
    /// exhausted for everyone.
    fn claim(&self, f: &(dyn Fn(usize) + Sync)) {
        struct StopOnUnwind<'a>(&'a Pool);
        impl Drop for StopOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    let end = self.0.end.load(Ordering::Relaxed);
                    self.0.next.store(end, Ordering::Relaxed);
                }
            }
        }
        let _stop = StopOnUnwind(self);
        let end = self.end.load(Ordering::Relaxed);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= end {
                break;
            }
            f(i);
        }
        self.state.fetch_and(ACTIVE_MASK, Ordering::SeqCst);
    }

    /// Closes the job and waits until every helper that joined has left.
    fn finish(&self) {
        self.state.fetch_and(ACTIVE_MASK, Ordering::SeqCst);
        let mut spins = 0;
        while self.state.load(Ordering::SeqCst) != 0 {
            // A joined helper is mid-task on another core; if it was
            // preempted instead, yielding now and then lets it run.
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                spins = 0;
                std::thread::yield_now();
            }
        }
    }

    /// Grows the pool towards `want` helpers; returns how many exist. A
    /// failed spawn is not an error — the caller just does more itself.
    fn ensure_helpers(&'static self, want: usize) -> usize {
        let mut have = self.spawned.load(Ordering::Relaxed);
        while have < want {
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{have}"))
                .spawn(move || self.helper_main());
            if spawned.is_err() {
                break;
            }
            have += 1;
        }
        self.spawned.store(have, Ordering::Relaxed);
        have.min(want)
    }

    /// Takes a join ticket if the job is open.
    fn try_join(&self) -> bool {
        let mut state = self.state.load(Ordering::SeqCst);
        while state >= TICKET {
            match self.state.compare_exchange_weak(
                state,
                state - TICKET + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(now) => state = now,
            }
        }
        false
    }

    /// Returns once this helper has joined a job: polls for [`SPIN`], then
    /// parks until a dispatcher opens one, and polls afresh after every
    /// wake-up (a job missed by waking late is usually followed by more).
    fn join_next_job(&self) {
        loop {
            let idle_since = Instant::now();
            while idle_since.elapsed() < SPIN {
                if self.try_join() {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.state.load(Ordering::SeqCst) < TICKET {
                guard = self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn helper_main(&self) {
        loop {
            self.join_next_job();
            // SAFETY: we joined, so the dispatcher published `task` before
            // opening the job and cannot retire it until we leave.
            let task = unsafe { *self.task.get() }.expect("job published before it opens");
            cpu::leave(self.dispatcher_cpu.load(Ordering::Relaxed));
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.claim(task))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
            self.state.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Which CPU a thread is on, and moving a helper off its dispatcher's.
#[cfg(target_os = "linux")]
mod cpu {
    use std::sync::OnceLock;

    pub const UNKNOWN: usize = usize::MAX;

    /// Words in a kernel CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    type Mask = [u64; WORDS];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread is running on right now.
    pub fn current() -> usize {
        // SAFETY: no arguments, no memory touched; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).unwrap_or(UNKNOWN)
    }

    /// If the calling (helper) thread is on `cpu`, restricts it to every
    /// other CPU helpers may use — the kernel migrates it before the call
    /// returns. "May use" is the mask the first helper to get here started
    /// with (inherited from its dispatcher: the process's cpuset or
    /// `taskset`), so a later call for a different CPU lifts this
    /// restriction again. When no other CPU is allowed, or on any error,
    /// nothing changes.
    pub fn leave(cpu: usize) {
        static STARTING: OnceLock<Mask> = OnceLock::new();
        if cpu >= 64 * WORDS || current() != cpu {
            return;
        }
        let size = std::mem::size_of::<Mask>();
        let mut mask = *STARTING.get_or_init(|| {
            let mut mask = [0; WORDS];
            // SAFETY: `mask` is `size` writable bytes; pid 0 is the calling
            // thread.
            if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
                mask = [0; WORDS];
            }
            mask
        });
        mask[cpu / 64] &= !(1 << (cpu % 64));
        if mask != [0; WORDS] {
            // SAFETY: `mask` is `size` readable bytes; pid 0 is the calling
            // thread, so only this helper's affinity changes.
            unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub const UNKNOWN: usize = usize::MAX;

    pub fn current() -> usize {
        UNKNOWN
    }

    pub fn leave(_cpu: usize) {}
}

/// `par_chunks` on slices.
pub trait ParallelSlice<T> {
    /// Chunked iteration; sequential in this shim.
    fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
        self.chunks(chunk_size)
    }
}

/// `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T> {
    /// Mutable chunked iteration; sequential in this shim.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk_size)
    }
}

/// `par_iter` on slices.
pub trait IntoParallelRefIterator<T> {
    /// Element iteration; sequential in this shim.
    fn par_iter(&self) -> std::slice::Iter<'_, T>;
}

impl<T> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> std::slice::Iter<'_, T> {
        self.iter()
    }
}

/// `par_iter_mut` on slices.
pub trait IntoParallelRefMutIterator<T> {
    /// Mutable element iteration; sequential in this shim.
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
}

impl<T> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_compose_like_rayon() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        let doubled: Vec<f32> = xs.par_iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![2.0, 4.0, 6.0, 8.0]);

        let mut ys = vec![0.0f32; 4];
        ys.par_iter_mut()
            .zip(xs.par_iter())
            .for_each(|(y, x)| *y = x + 1.0);
        assert_eq!(ys, vec![2.0, 3.0, 4.0, 5.0]);

        let mut rows = vec![0usize; 6];
        rows.par_chunks_mut(2)
            .enumerate()
            .for_each(|(i, row)| row.iter_mut().for_each(|v| *v = i));
        assert_eq!(rows, vec![0, 0, 1, 1, 2, 2]);

        let chunk_sums: Vec<usize> = rows.par_chunks(2).map(|c| c.iter().sum()).collect();
        assert_eq!(chunk_sums, vec![0, 2, 4]);
    }

    #[test]
    fn par_range_visits_every_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for threads in [1usize, 2, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
            pool.install(|| {
                assert_eq!(crate::current_num_threads(), threads);
                (0..100usize).into_par_iter().for_each(|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn install_restores_thread_count_on_exit() {
        let outside = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        pool.install(|| assert_eq!(crate::current_num_threads(), 3));
        assert_eq!(crate::current_num_threads(), outside);
        assert_eq!(pool.current_num_threads(), 3);
    }

    fn pool_of(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// Dispatches `0..n` and checks every index ran exactly once.
    fn dispatch_and_check(n: usize) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        (0..n).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_dispatchers_all_complete() {
        // The pool serves one job at a time; the other three callers of
        // each round must fall back to running inline, not wait or drop
        // indices.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    pool_of(2).install(|| {
                        for _ in 0..200 {
                            dispatch_and_check(37);
                        }
                    });
                });
            }
        });
    }

    #[test]
    fn dispatch_while_pool_is_busy_runs_inline() {
        // Task 0 of the outer job parks on a barrier, so the pool is
        // provably mid-job while the second thread dispatches; that
        // dispatch has to complete on its own for the outer job to end.
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                pool_of(2).install(|| dispatch_and_check(64));
                gate.wait();
            });
            pool_of(2).install(|| {
                (0..2usize).into_par_iter().for_each(|i| {
                    if i == 0 {
                        gate.wait();
                        gate.wait();
                    }
                });
            });
        });
    }

    #[test]
    fn nested_dispatch_completes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        pool_of(4).install(|| {
            (0..6usize).into_par_iter().for_each(|_| {
                (0..50usize).into_par_iter().for_each(|_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn panic_reaches_the_caller_and_pool_survives() {
        // Repeated so that both the dispatching thread and a helper get to
        // be the one that claims the panicking index.
        for _ in 0..4 {
            let caught = std::panic::catch_unwind(|| {
                pool_of(2).install(|| {
                    (0..16usize).into_par_iter().for_each(|i| {
                        if i == 7 {
                            panic!("task 7 failed");
                        }
                    });
                });
            });
            let payload = caught.expect_err("the task's panic must reach the dispatcher");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 7 failed"));
            pool_of(2).install(|| dispatch_and_check(100));
        }
    }
}
