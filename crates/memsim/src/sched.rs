//! Deterministic seeded interleaving of logical worker threads.
//!
//! The WHISPER applications drive one simulated [`crate::Machine`] from
//! a single host thread, interleaving N *logical* workers
//! per-operation. The [`Scheduler`] decides which worker runs next:
//! every decision is a pure function of the run seed and the number of
//! earlier decisions, so a run is bit-identical wherever it executes —
//! the suite can fan app runs across any number of host threads
//! (`--parallel`) without perturbing a single interleaving.
//!
//! The generator is [`pmrand::splitmix64`], the same stream used to
//! derive per-app seeds elsewhere in the suite; workers are picked
//! uniformly, which under the paper's workloads produces the irregular
//! cross-thread epoch overlap the Fig. 5 dependency analysis is after
//! (a round-robin rotation would synchronize epoch boundaries
//! artificially).

use pmrand::splitmix64;
use pmtrace::Tid;

/// A deterministic seeded scheduler over `workers` logical threads
/// `Tid(0) .. Tid(workers-1)`.
///
/// ```
/// use memsim::Scheduler;
/// let mut sched = Scheduler::new(2, 42);
/// let mut ran = [0u32; 2];
/// for _ in 0..100 {
///     ran[sched.next().0 as usize] += 1; // one operation as that worker
/// }
/// assert!(ran.iter().all(|&n| n > 0));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    state: u64,
    workers: u64,
}

impl Scheduler {
    /// A scheduler over `workers` logical threads, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero or exceeds the machine-wide cap of
    /// 64 threads (the [`crate::Machine`] dirty-index mask width).
    pub fn new(workers: u32, seed: u64) -> Scheduler {
        assert!(
            (1..=64).contains(&workers),
            "worker count {workers} outside 1..=64"
        );
        Scheduler {
            // Pre-mix so nearby seeds diverge immediately.
            state: seed ^ 0xD6E8_FEB8_6659_FD93,
            workers: u64::from(workers),
        }
    }

    /// The next worker to run one operation, picked uniformly.
    ///
    /// Not an [`Iterator`]: the stream never ends.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Tid {
        Tid((splitmix64(&mut self.state) % self.workers) as u32)
    }
}

/// An out-of-range [`Tid`]: the id names a thread slot the machine (or
/// an engine sized from [`crate::MachineConfig::threads`]) does not
/// have. Returned by the validating entry points instead of an index
/// panic deep inside a per-thread `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TidError {
    /// The offending thread id.
    pub tid: Tid,
    /// The thread count the id was validated against.
    pub threads: u32,
}

impl std::fmt::Display for TidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} out of range (machine has {} threads)",
            self.tid, self.threads
        )
    }
}

impl std::error::Error for TidError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(workers: u32, seed: u64, decisions: usize) -> Vec<Tid> {
        let mut sched = Scheduler::new(workers, seed);
        (0..decisions).map(|_| sched.next()).collect()
    }

    #[test]
    fn same_seed_same_interleaving() {
        assert_eq!(trace(4, 7, 200), trace(4, 7, 200));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(trace(4, 7, 200), trace(4, 8, 200));
    }

    #[test]
    fn single_worker_is_sequential() {
        let order = trace(1, 3, 10);
        assert_eq!(order, vec![Tid(0); 10]);
    }

    #[test]
    fn interleaving_is_not_round_robin() {
        // A seeded pick must break the rotation: some worker runs twice
        // in a row somewhere in a long trace.
        let order = trace(4, 42, 400);
        assert!(order.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn zero_workers_rejected() {
        let _ = Scheduler::new(0, 1);
    }

    #[test]
    fn tid_error_displays_both_sides() {
        let e = TidError {
            tid: Tid(4),
            threads: 4,
        };
        assert_eq!(
            e.to_string(),
            "thread t4 out of range (machine has 4 threads)"
        );
    }
}
