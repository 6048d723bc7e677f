//! Offline analysis of a recorded trace (paper Section 5).
//!
//! "We consider an epoch to consist of stores, whether cacheable or
//! non-temporal, to PM between two sfence instructions. For this
//! analysis, we ignore cache flush operations." — Section 5.1.
//!
//! [`for_each_epoch`] is the one traversal. It keeps one open [`Epoch`]
//! per thread in a vector indexed by thread id and **lends** each epoch
//! to its sink as the closing fence arrives, then recycles it — no hash
//! lookup per event, no allocation per epoch. [`Epoch::lines`] is a
//! sorted, duplicate-free `Vec`. [`Analyzer::analyze_events`] folds the
//! lent epochs; [`split_epochs`] clones them into a vector. The two
//! accumulators keyed by values a trace is free to choose keep them
//! differently: [`DepTracker`] (any address) holds one 16-byte slot per
//! written line in a [`pmem::SparseLineMap`], which hashes a 64-line
//! page's number, not each line; [`TxStatsBuilder`] (any transaction
//! id, and few of them) is a [`pmem::FxHashMap`].

mod amplify;
mod analyzer;
mod deps;
mod histogram;
mod txstats;

pub use amplify::AmplificationReport;
pub use analyzer::{Analyzer, TraceReport};
pub use deps::{DepStats, DepTracker, DEP_WINDOW_NS};
pub use histogram::{EpochSizeHistogram, SIZE_BUCKET_LABELS};
pub use txstats::{TxStats, TxStatsBuilder};

use crate::event::{Category, Event, EventKind, Tid, TxId};
use pmem::{lines_spanning, Line};

/// A set of PM stores on one thread between two ordering points.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Thread that issued the epoch.
    pub tid: Tid,
    /// Per-thread epoch sequence number (0-based).
    pub index: u64,
    /// Timestamp of the epoch's first store.
    pub start_ns: u64,
    /// Timestamp of the fence that closed the epoch.
    pub end_ns: u64,
    /// Unique 64 B cache lines stored to, in ascending order.
    pub lines: Vec<Line>,
    /// Total bytes stored (not deduplicated).
    pub bytes: u64,
    /// Bytes written with non-temporal stores.
    pub nt_bytes: u64,
    /// Number of store operations.
    pub stores: u32,
    /// Number of non-temporal store operations.
    pub nt_stores: u32,
    /// Bytes per [`Category`], indexed as in [`Category::ALL`].
    pub bytes_by_cat: [u64; Category::ALL.len()],
    /// Durable transaction active when the epoch began, if any.
    pub tx: Option<TxId>,
    /// True if the closing fence was a durability fence.
    pub durable: bool,
}

impl Epoch {
    /// Size of the epoch in unique cache lines (the paper's "epoch size").
    pub fn unique_lines(&self) -> usize {
        self.lines.len()
    }

    /// A singleton epoch updates exactly one 64 B line.
    pub fn is_singleton(&self) -> bool {
        self.lines.len() == 1
    }

    /// Thread `tid`'s first epoch, with no store in it yet.
    fn open(tid: Tid) -> Epoch {
        Epoch {
            tid,
            index: 0,
            start_ns: 0,
            end_ns: 0,
            lines: Vec::new(),
            bytes: 0,
            nt_bytes: 0,
            stores: 0,
            nt_stores: 0,
            bytes_by_cat: [0; Category::ALL.len()],
            tx: None,
            durable: false,
        }
    }

    /// Account one store of `len` bytes at `addr`.
    fn store(&mut self, addr: u64, len: u32, nt: bool, cat: Category) {
        // Appended as stored (bar an immediate repeat) and put in order
        // by `close`: a trace may hold an epoch of a million lines in
        // any order, which inserting in place would make quadratic.
        for (line, _, _) in lines_spanning(addr, len as usize) {
            if self.lines.last() != Some(&line) {
                self.lines.push(line);
            }
        }
        self.bytes += len as u64;
        self.stores += 1;
        if nt {
            self.nt_bytes += len as u64;
            self.nt_stores += 1;
        }
        self.bytes_by_cat[cat.index()] += len as u64;
    }

    /// Close the epoch at a fence: `lines` becomes sorted and unique.
    fn close(&mut self, end_ns: u64, durable: bool) {
        self.end_ns = end_ns;
        self.durable = durable;
        // A store's lines ascend and most epochs write forwards, so the
        // common epoch is in order already.
        if !self.lines.is_sorted_by(|a, b| a < b) {
            self.lines.sort_unstable();
            self.lines.dedup();
        }
    }

    /// Become the thread's next epoch, empty, keeping the line buffer.
    fn reopen(&mut self) {
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        *self = Epoch {
            index: self.index + 1,
            lines,
            ..Epoch::open(self.tid)
        };
    }
}

/// What [`for_each_epoch`] keeps per thread: the epoch being built (it
/// is an epoch only once it holds a store) and the transaction that is
/// active, if any.
#[derive(Debug)]
struct ThreadWalk {
    open: Epoch,
    active_tx: Option<TxId>,
}

/// Walk a globally-ordered event stream and lend each closed epoch to
/// `sink`, in fence-close (global execution) order — the order
/// [`DepTracker`] requires. The epoch is recycled when `sink`
/// returns; a sink that keeps it clones it (as [`split_epochs`] does).
///
/// Fences that close an empty epoch (no stores since the previous
/// fence) produce nothing, matching the paper's store-centric epoch
/// definition. A trailing run of stores with no closing fence is
/// likewise dropped — it never became an ordering unit.
///
/// Per-thread state lives in a vector indexed by thread id, so memory
/// is proportional to the largest id in the trace: ids are hardware
/// thread numbers (`memsim` has at most 64; the codec stores 24 bits).
///
/// This is the single traversal both [`split_epochs`] (which collects)
/// and [`Analyzer::analyze_events`] (which folds statistics without
/// materializing the epoch vector) are built on. It returns the
/// trace's `Fence` and `DFence` counts, empty epochs' fences included.
pub fn for_each_epoch(events: &[Event], mut sink: impl FnMut(&Epoch)) -> [u64; 2] {
    let mut threads: Vec<ThreadWalk> = Vec::new();
    let mut fences = [0u64; 2];

    for ev in events {
        let t = ev.tid.0 as usize;
        while threads.len() <= t {
            threads.push(ThreadWalk {
                open: Epoch::open(Tid(threads.len() as u32)),
                active_tx: None,
            });
        }
        let ThreadWalk { open, active_tx } = &mut threads[t];
        match ev.kind {
            EventKind::PmStore { addr, len, nt, cat } => {
                if open.stores == 0 {
                    // First store of the epoch fixes its start time and
                    // transaction attribution.
                    open.start_ns = ev.at_ns;
                    open.tx = *active_tx;
                }
                open.store(addr, len, nt, cat);
            }
            EventKind::Fence | EventKind::DFence => {
                fences[usize::from(ev.kind == EventKind::DFence)] += 1;
                if open.stores > 0 {
                    open.close(ev.at_ns, ev.kind == EventKind::DFence);
                    sink(open);
                    open.reopen();
                }
            }
            EventKind::TxBegin { id } => *active_tx = Some(id),
            EventKind::TxEnd { .. } => *active_tx = None,
            EventKind::Flush { .. } => {
                // Ignored, per Section 5.1.
            }
            EventKind::PmLoad { .. } | EventKind::RecoveryBegin => {
                // Loads and recovery markers are not stores; they never
                // open or extend an epoch.
            }
        }
    }
    fences
}

/// Split a globally-ordered event stream into per-thread epochs.
///
/// See [`for_each_epoch`] for the epoch-boundary rules.
pub fn split_epochs(events: &[Event]) -> Vec<Epoch> {
    let mut out = Vec::new();
    for_each_epoch(events, |e| out.push(e.clone()));
    out
}

/// Epochs per second over the traced interval (Table 1's rightmost
/// column). `duration_ns` is the simulated wall-clock length of the run.
///
/// Returns 0.0 for an empty interval.
pub fn epochs_per_second(epoch_count: usize, duration_ns: u64) -> f64 {
    if duration_ns == 0 {
        return 0.0;
    }
    epoch_count as f64 * 1e9 / duration_ns as f64
}

/// Fraction of singleton epochs that wrote fewer than 10 bytes
/// ("Of the singletons, we saw that 60% updated fewer than 10 bytes" —
/// Section 5.1). Returns `None` when there are no singletons.
pub fn small_singleton_fraction(epochs: &[Epoch]) -> Option<f64> {
    let singles: Vec<_> = epochs.iter().filter(|e| e.is_singleton()).collect();
    if singles.is_empty() {
        return None;
    }
    let small = singles.iter().filter(|e| e.bytes < 10).count();
    Some(small as f64 / singles.len() as f64)
}

/// Fraction of PM bytes written with non-temporal stores
/// (Consequence 10: "about 96% of writes in PMFS and 67% in Mnemosyne
/// use NTIs"). Returns `None` for a trace with no PM bytes.
pub fn nt_fraction(epochs: &[Epoch]) -> Option<f64> {
    let total: u64 = epochs.iter().map(|e| e.bytes).sum();
    if total == 0 {
        return None;
    }
    let nt: u64 = epochs.iter().map(|e| e.nt_bytes).sum();
    Some(nt as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    fn t0() -> Tid {
        Tid(0)
    }

    #[test]
    fn empty_trace_no_epochs() {
        assert!(split_epochs(&[]).is_empty());
    }

    #[test]
    fn fence_without_stores_is_not_an_epoch() {
        let mut t = TraceBuffer::new();
        t.fence(t0(), 1);
        t.fence(t0(), 2);
        assert!(split_epochs(t.events()).is_empty());
    }

    #[test]
    fn stores_between_fences_form_epochs() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.pm_store(t0(), 64, 8, false, Category::UserData, 2);
        t.fence(t0(), 3);
        t.pm_store(t0(), 128, 8, true, Category::RedoLog, 4);
        t.dfence(t0(), 5);
        let e = split_epochs(t.events());
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].unique_lines(), 2);
        assert!(!e[0].durable);
        assert_eq!(e[0].index, 0);
        assert_eq!(e[1].unique_lines(), 1);
        assert!(e[1].durable);
        assert_eq!(e[1].nt_bytes, 8);
        assert_eq!(e[1].index, 1);
    }

    #[test]
    fn start_time_attributed_after_empty_epoch_fence() {
        // Regression: an empty-epoch fence (and a transaction begun
        // before any store) must not disturb the next epoch's start
        // time or transaction attribution — both come from the epoch's
        // first store.
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.fence(t0(), 2);
        t.fence(t0(), 3); // closes an empty epoch: produces nothing
        t.tx_begin(t0(), 9, 4);
        t.pm_store(t0(), 64, 8, false, Category::UserData, 50);
        t.fence(t0(), 60);
        let e = split_epochs(t.events());
        assert_eq!(e.len(), 2);
        assert_eq!(
            e[1].start_ns, 50,
            "start is the first store, not the fence or tx begin"
        );
        assert_eq!(e[1].end_ns, 60);
        assert_eq!(e[1].tx, Some(9));
        assert_eq!(e[1].index, 1, "empty epoch consumed no sequence number");
    }

    #[test]
    fn trailing_unfenced_stores_dropped() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        assert!(split_epochs(t.events()).is_empty());
    }

    #[test]
    fn repeated_line_counts_once() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.pm_store(t0(), 8, 8, false, Category::UserData, 2);
        t.fence(t0(), 3);
        let e = split_epochs(t.events());
        assert_eq!(e[0].unique_lines(), 1);
        assert!(e[0].is_singleton());
        assert_eq!(e[0].bytes, 16);
    }

    #[test]
    fn cross_line_store_spans_lines() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 60, 8, false, Category::UserData, 1);
        t.fence(t0(), 2);
        let e = split_epochs(t.events());
        assert_eq!(e[0].unique_lines(), 2);
    }

    #[test]
    fn threads_have_independent_epochs() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 1);
        t.pm_store(Tid(1), 64, 8, false, Category::UserData, 2);
        t.fence(Tid(0), 3);
        t.fence(Tid(1), 4);
        let e = split_epochs(t.events());
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].tid, Tid(0));
        assert_eq!(e[1].tid, Tid(1));
        assert_eq!(e[0].index, 0);
        assert_eq!(e[1].index, 0);
    }

    #[test]
    fn tx_attribution() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.fence(t0(), 2);
        t.tx_begin(t0(), 42, 3);
        t.pm_store(t0(), 64, 8, false, Category::UserData, 4);
        t.fence(t0(), 5);
        t.tx_end(t0(), 42, 6);
        t.pm_store(t0(), 128, 8, false, Category::UserData, 7);
        t.fence(t0(), 8);
        let e = split_epochs(t.events());
        assert_eq!(e[0].tx, None);
        assert_eq!(e[1].tx, Some(42));
        assert_eq!(e[2].tx, None);
    }

    #[test]
    fn category_byte_attribution() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.pm_store(t0(), 64, 24, false, Category::UndoLog, 2);
        t.fence(t0(), 3);
        let e = split_epochs(t.events());
        assert_eq!(e[0].bytes_by_cat[Category::UserData.index()], 8);
        assert_eq!(e[0].bytes_by_cat[Category::UndoLog.index()], 24);
        assert_eq!(e[0].bytes_by_cat[Category::RedoLog.index()], 0);
    }

    #[test]
    fn epochs_per_second_math() {
        assert_eq!(epochs_per_second(0, 0), 0.0);
        let r = epochs_per_second(1_000, 1_000_000); // 1000 epochs in 1 ms
        assert!((r - 1e9 / 1e3).abs() < 1e-6);
    }

    #[test]
    fn small_singleton_fraction_math() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 4, false, Category::AllocMeta, 1); // small singleton
        t.fence(t0(), 2);
        t.pm_store(t0(), 64, 32, false, Category::UserData, 3); // big singleton
        t.fence(t0(), 4);
        let e = split_epochs(t.events());
        assert_eq!(small_singleton_fraction(&e), Some(0.5));
        assert_eq!(small_singleton_fraction(&[]), None);
    }

    #[test]
    fn nt_fraction_math() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, true, Category::RedoLog, 1);
        t.pm_store(t0(), 64, 24, false, Category::UserData, 2);
        t.fence(t0(), 3);
        let e = split_epochs(t.events());
        assert_eq!(nt_fraction(&e), Some(0.25));
        assert_eq!(nt_fraction(&[]), None);
    }

    #[test]
    fn loads_and_recovery_markers_do_not_open_epochs() {
        let mut t = TraceBuffer::new();
        t.pm_load(t0(), 0, 1);
        t.recovery_begin(t0(), 2);
        t.fence(t0(), 3); // closes nothing: no stores happened
        t.pm_store(t0(), 0, 8, false, Category::UserData, 4);
        t.pm_load(t0(), 64, 5); // mid-epoch load leaves stats alone
        t.fence(t0(), 6);
        let e = split_epochs(t.events());
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].stores, 1);
        assert_eq!(e[0].start_ns, 4);
    }

    #[test]
    fn fence_count_counts_both_kinds() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.fence(t0(), 2);
        t.dfence(t0(), 3);
        // One of each kind; only the first closes an epoch.
        assert_eq!(for_each_epoch(t.events(), |_| {}), [1, 1]);
    }

    #[test]
    fn flushes_are_ignored() {
        let mut t = TraceBuffer::new();
        t.pm_store(t0(), 0, 8, false, Category::UserData, 1);
        t.flush(t0(), 0, 2);
        t.flush(t0(), 64, 2);
        t.fence(t0(), 3);
        let e = split_epochs(t.events());
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].unique_lines(), 1);
    }
}
