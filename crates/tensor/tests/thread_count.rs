//! The pool's helpers are started once and reused: the process's OS thread
//! count may not move with the number of dispatches. A binary of its own,
//! so no other test's threads come and go while it counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use stronghold_tensor::pool;

/// `Threads:` from `/proc/self/status`; `None` where there is no procfs.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn thread_count_does_not_grow_with_dispatches() {
    let Some(before) = os_threads() else {
        return; // not Linux: nothing to read the count from
    };
    let sum = AtomicUsize::new(0);
    let dispatch = || {
        pool::for_each(0..8, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
    };
    pool::with_threads(4, || {
        for _ in 0..10 {
            dispatch();
        }
        let after_10 = os_threads().unwrap();
        assert!(
            after_10 <= before + 3,
            "a 4-wide fan-out needs at most 3 helpers: {before} -> {after_10} threads"
        );
        assert_eq!(
            pool::helper_starts() as usize,
            after_10 - before,
            "the helper-start count matches the threads that appeared"
        );
        for _ in 10..10_000 {
            dispatch();
        }
        assert_eq!(
            os_threads().unwrap(),
            after_10,
            "dispatching must not start threads once the helpers exist"
        );
    });
    assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 28);
}
