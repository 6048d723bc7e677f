//! The ten WHISPER applications (paper Section 3) and the one table
//! that describes them.
//!
//! Every application follows the same contract, in two phases:
//!
//! * **setup** — build its persistent state on a fresh instrumented
//!   [`memsim::Machine`] and load it: everything before the run first
//!   consumes its seed, i.e. the untraced build-and-load phase the
//!   paper excludes from its measurements. It depends on the op count
//!   and the worker count only, and returns a [`Setup`];
//! * **drive** — run the seeded Table 1 workload on that state, with
//!   logical clients interleaved onto the machine's hardware threads,
//!   paced or (for the gem5 subset) unpaced, and return an [`AppRun`]
//!   carrying the trace, access counters, and simulated duration — the
//!   raw material for every table and figure.
//!
//! A [`Setup`] can be forked ([`Setup::fork`], a copy-on-write
//! [`Machine::fork`] plus a copy of the application's handles), so
//! several seeds can be driven from one setup; a driven fork is
//! exactly the run a fresh setup would have produced. [`App::run`] is
//! setup-then-drive and the only way an application runs.
//!
//! Each module also contains crash-recovery tests: the paper's headline
//! requirement is that "WHISPER includes crash-recoverable
//! applications, which means that they persist all information in PM
//! that is necessary to recover after a crash."
//!
//! # The app table
//!
//! The paper describes its suite in one table; so does this crate.
//! [`APPS`] holds one [`App`] per Table 1 row — a `const` written beside
//! the application's code — and the suite driver, the reports, the crash
//! campaign, cross-validation and the serving sweep all read it. Adding
//! an application is one `App` entry listed once in [`APPS`].

pub mod echo;
pub mod fsapps;
pub mod memcached;
pub mod micro;
pub mod nstore;
pub mod redis;
pub mod vacation;

use crate::crashtest::{Arm, CrashRun};
use crate::report::PaperRow;
use memsim::{Machine, MachineConfig, MemStats};
use pmem::Addr;
use pmtrace::{Category, Event, Tid};

/// Table 1's "access layer" column: the software an application
/// reaches persistent memory through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Loads, stores, flushes and fences issued by the application's
    /// own persistence code (echo, N-store).
    Native,
    /// Intel NVML (`libpmemobj`): undo-logged transactions.
    Nvml,
    /// Mnemosyne: redo-logged durable transactions.
    Mnemosyne,
    /// The PMFS file system, through `read`/`write`/`fsync`.
    Pmfs,
}

/// One Table 1 row: what the paper says about the application, how to
/// run it, and how the crash campaign exercises it.
#[derive(Debug)]
pub struct App {
    /// Table 1, first column.
    pub name: &'static str,
    /// Table 1, third column.
    pub workload: &'static str,
    /// Table 1, second column.
    pub layer: Layer,
    /// Operation count at `--scale 1.0`; [`SuiteConfig`] scales it.
    ///
    /// [`SuiteConfig`]: crate::suite::SuiteConfig
    pub base_ops: usize,
    /// The paper's numbers for this row.
    pub paper: PaperRow,
    /// The seed-free setup for `(ops, workers)` (see the module docs).
    /// `workers` reaches the scheduler-interleaved applications (redis,
    /// memcached, vacation); the rest model their Table 1 thread counts
    /// internally and ignore it.
    pub setup: fn(usize, u32) -> Setup,
    /// Whether the paper's gem5 simulations also run this row unpaced
    /// for Figures 6 and 10 ([`App::run_unpaced`]) — exactly where the
    /// paper has a Figure 6 value.
    pub unpaced: bool,
    /// Operations the crash workload commits. Fixed, not suite-scaled:
    /// the campaign sweeps *coverage* of recovery paths, and the counts
    /// are tuned so every app reaches steady state while the full sweep
    /// stays test-suite fast.
    pub crash_ops: usize,
    /// The crash workload and its recovery oracle for `(ops, workers)`:
    /// [`crate::crashtest::run`] for the row's
    /// [`crate::crashtest::Workload`]. `workers` reaches the same three
    /// applications as [`App::setup`]'s.
    pub(crate) crash_run: fn(usize, u32, &Arm<'_>) -> CrashRun,
}

impl App {
    /// Run the Table 1 workload: setup for `(ops, workers)`, then a
    /// paced drive with `seed`.
    pub fn run(&self, ops: usize, seed: u64, workers: u32) -> AppRun {
        (self.setup)(ops, workers).drive(seed, true)
    }

    /// The unpaced `(ops, seed)` run the paper's gem5 simulations use
    /// for Figures 6 and 10, at the Table 1 worker count.
    ///
    /// # Panics
    ///
    /// Panics for a row outside the gem5 subset ([`App::unpaced`]).
    pub fn run_unpaced(&self, ops: usize, seed: u64) -> AppRun {
        assert!(self.unpaced, "{} has no unpaced run", self.name);
        (self.setup)(ops, WORKERS).drive(seed, false)
    }

    /// Finish a run of this application: harvest the machine's trace,
    /// counters, and clock under the row's name and workload.
    pub(crate) fn collect(&self, mut machine: Machine) -> AppRun {
        let stats = machine.stats();
        let duration_ns = machine.now_ns();
        let threads = machine.config().threads;
        let events = std::mem::take(machine.trace_mut()).into_events();
        AppRun {
            name: self.name.to_string(),
            workload: self.workload.to_string(),
            events,
            stats,
            duration_ns,
            threads,
        }
    }

    /// Run this row's crash workload at `workers` logical clients,
    /// armed as `arm` says.
    pub(crate) fn crash(&self, workers: u32, arm: &Arm<'_>) -> CrashRun {
        #[cfg(test)]
        CRASH_RUNS.with_borrow_mut(|runs| runs.push(self.name));
        (self.crash_run)(self.crash_ops, workers, arm)
    }
}

/// The eleven Table 1 rows, in Table 1 order (ten applications; N-store
/// contributes two workloads).
pub static APPS: [App; 11] = [
    echo::APP,
    nstore::YCSB,
    nstore::TPCC,
    redis::APP,
    micro::CTREE,
    micro::HASHMAP,
    vacation::APP,
    memcached::APP,
    fsapps::NFS,
    fsapps::EXIM,
    fsapps::MYSQL,
];

/// A name that is not a Table 1 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownApp(pub String);

impl std::fmt::Display for UnknownApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid = crate::suite::APP_NAMES;
        write!(f, "unknown app {:?}; valid: {valid:?}", self.0)
    }
}

impl std::error::Error for UnknownApp {}

/// The Table 1 row called `name`.
pub fn by_name(name: &str) -> Result<&'static App, UnknownApp> {
    APPS.iter()
        .find(|app| app.name == name)
        .ok_or_else(|| UnknownApp(name.to_string()))
}

/// [`by_name`] for the name-keyed entry points whose contract is "a
/// Table 1 name".
///
/// # Panics
///
/// Panics with [`UnknownApp`]'s message on any other name.
pub(crate) fn named(name: &str) -> &'static App {
    by_name(name).unwrap_or_else(|unknown| panic!("{unknown}"))
}

/// Table 1 worker-thread count for the scheduler-interleaved apps
/// (redis, memcached, vacation); `--threads` overrides it per run.
pub(crate) const WORKERS: u32 = crate::suite::DEFAULT_WORKER_THREADS;

/// Bytes of persistent heap per worker arena in the Mnemosyne apps
/// (memcached, vacation): 64 MiB while `workers` × 64 MiB fits a 2 GiB
/// heap budget (up to 32 workers), above that an even split of the
/// budget rounded down to 64 KiB — so `--threads 64` fits the 4 GiB PM
/// range, and runs at up to 32 workers keep their layout.
pub(crate) fn arena_bytes(workers: u32) -> u64 {
    const ARENA: u64 = 64 << 20;
    const HEAP_BUDGET: u64 = 2 << 30;
    ARENA.min((HEAP_BUDGET / u64::from(workers)) & !0xffff)
}

/// An `asplos17` configuration with at least `workers` hardware
/// threads, so every scheduler-picked [`Tid`] is in range — for the run
/// and for the oracle's reboot alike.
pub(crate) fn config_for(workers: u32) -> MachineConfig {
    let mut cfg = MachineConfig::asplos17();
    cfg.threads = cfg.threads.max(workers);
    cfg
}

/// An application after its seed-free setup: the machine and the
/// application's handles on it, waiting for [`Setup::drive`].
pub struct Setup {
    machine: Machine,
    app: Box<dyn Stage>,
}

impl Setup {
    /// Wrap a set-up `machine` and the application `state` living on
    /// it, with the function that drives them.
    pub(crate) fn new<S: Clone + 'static>(
        machine: Machine,
        state: S,
        drive: fn(Machine, S, u64, bool) -> AppRun,
    ) -> Setup {
        Setup {
            machine,
            app: Box::new(Staged { state, drive }),
        }
    }

    /// An independent copy of this setup ([`Machine::fork`] plus a copy
    /// of the application's handles). Driving it gives exactly the run
    /// a fresh setup would, and leaves this one untouched.
    pub fn fork(&mut self) -> Setup {
        Setup {
            machine: self.machine.fork(),
            app: self.app.fork(),
        }
    }

    /// Run the seeded workload on this state: `paced` selects the
    /// Table 1 configuration, `!paced` the unpaced gem5 one (rows
    /// outside the gem5 subset have only the former and ignore it).
    pub fn drive(self, seed: u64, paced: bool) -> AppRun {
        self.app.drive(self.machine, seed, paced)
    }
}

/// The application half of a [`Setup`], typed away.
trait Stage {
    fn fork(&self) -> Box<dyn Stage>;
    fn drive(self: Box<Self>, machine: Machine, seed: u64, paced: bool) -> AppRun;
}

struct Staged<S> {
    state: S,
    drive: fn(Machine, S, u64, bool) -> AppRun,
}

impl<S: Clone + 'static> Stage for Staged<S> {
    fn fork(&self) -> Box<dyn Stage> {
        Box::new(Staged {
            state: self.state.clone(),
            drive: self.drive,
        })
    }

    fn drive(self: Box<Self>, machine: Machine, seed: u64, paced: bool) -> AppRun {
        // Free the box before the run allocates: a small block left
        // live between the setup's pages and the run's keeps glibc
        // from reusing the space around it.
        let Staged { state, drive } = {
            let staged = self;
            *staged
        };
        drive(machine, state, seed, paced)
    }
}

/// The outcome of one application run: everything the analysis needs.
#[derive(Debug)]
pub struct AppRun {
    /// Application name (Table 1, first column).
    pub name: String,
    /// Workload description (Table 1, third column).
    pub workload: String,
    /// The recorded PM-operation trace.
    pub events: Vec<Event>,
    /// DRAM/PM access counters (Figure 6).
    pub stats: MemStats,
    /// Simulated wall-clock duration (denominator of Table 1).
    pub duration_ns: u64,
    /// Hardware threads used.
    pub threads: u32,
}

/// A DRAM scratch region over which applications perform their
/// *volatile* work — request parsing, volatile indexes, client
/// buffers. The paper's Figure 6 point is that "the majority (>96%) of
/// accesses are to DRAM" because "applications optimize by placing
/// transient data structures in volatile memory"; each app models its
/// characteristic volatile footprint by touching this arena a tuned
/// number of times per operation.
#[derive(Debug, Clone)]
pub(crate) struct VolatileArena {
    base: Addr,
    len: u64,
    cursor: u64,
}

impl VolatileArena {
    pub(crate) fn new(m: &mut Machine, bytes: u64) -> VolatileArena {
        VolatileArena {
            base: m.alloc_dram(bytes, 64),
            len: bytes,
            cursor: 0,
        }
    }

    /// Perform `accesses` DRAM operations: a handful of real 8-byte
    /// loads/stores for functional realism, the rest accounted through
    /// the machine's bulk path (identical counters and clock, without
    /// simulating each access).
    pub(crate) fn work(&mut self, m: &mut Machine, tid: Tid, accesses: u64) {
        let real = accesses.min(4);
        for i in 0..real {
            let at = self.base + (self.cursor % (self.len - 8));
            if i % 3 == 2 {
                m.store_u64(tid, at, i, Category::UserData);
            } else {
                let _ = m.load_u64(tid, at);
            }
            self.cursor = self.cursor.wrapping_add(72);
        }
        m.dram_bulk(tid, accesses - real);
    }
}

#[cfg(test)]
thread_local! {
    /// The rows whose crash workload [`App::crash`] ran on this thread,
    /// in run order.
    pub(crate) static CRASH_RUNS: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;

    #[test]
    fn arenas_split_the_heap_budget_above_32_workers() {
        assert_eq!(arena_bytes(1), 64 << 20);
        assert_eq!(arena_bytes(32), 64 << 20);
        assert_eq!(arena_bytes(64), 32 << 20);
        for workers in 1..=64 {
            let arena = arena_bytes(workers);
            assert_eq!(arena % 65_536, 0, "{workers} workers");
            assert!(u64::from(workers) * arena <= 2 << 30, "{workers} workers");
        }
    }

    #[test]
    fn volatile_arena_counts_only_dram() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut a = VolatileArena::new(&mut m, 4096);
        a.work(&mut m, Tid(0), 100);
        assert_eq!(m.stats().dram_accesses, 100);
        assert_eq!(m.stats().pm_total(), 0);
        assert!(m.trace().is_empty(), "volatile work never traced");
    }
}
