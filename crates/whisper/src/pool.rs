//! The crate's one worker pool.
//!
//! Every fan-out in the suite — applications, serve sweeps, crash
//! rows, optimizer rewrites — has the same shape: `n` independent,
//! seeded tasks whose results must come back in index order so the
//! output never depends on the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `task(0)`..`task(n - 1)` across `workers` scoped threads and
/// return the results in index order.
///
/// Workers claim indices from a shared cursor, so one slow task does
/// not serialize the rest behind it. `workers` is clamped to `1..=n`;
/// at 1 the tasks run serially on the **caller's** thread — thread-local
/// state the tasks touch (`hops::fig10_invocations`, the
/// `pmobs::trace::context` label) stays visible to the caller. A
/// panicking task propagates its payload once every worker has stopped.
pub(crate) fn fan_out<R: Send>(
    workers: usize,
    n: usize,
    task: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, task(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    claimed.sort_unstable_by_key(|(i, _)| *i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [0, 1, 2, 3, 16] {
            assert_eq!(fan_out(workers, 7, |i| i * i), [0, 1, 4, 9, 16, 25, 36]);
            assert!(fan_out(workers, 0, |i| i).is_empty());
        }
    }

    #[test]
    fn workers_are_clamped_to_the_task_count() {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        fan_out(64, 3, |_| {
            seen.lock().unwrap().insert(thread::current().id());
        });
        let seen = seen.into_inner().unwrap();
        assert!((1..=3).contains(&seen.len()), "{} threads", seen.len());
        assert!(
            !seen.contains(&thread::current().id()),
            "pooled, not inline"
        );
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let me = thread::current().id();
        for (workers, n) in [(1, 4), (0, 4), (8, 1)] {
            let ids = fan_out(workers, n, |_| thread::current().id());
            assert!(ids.iter().all(|id| *id == me), "workers={workers} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "task 2 failed")]
    fn a_panicking_task_propagates() {
        fan_out(3, 5, |i| assert!(i != 2, "task {i} failed"));
    }
}
