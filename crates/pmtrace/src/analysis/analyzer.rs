//! Single-pass streaming trace analysis.
//!
//! The suite driver needs every Section-5 statistic for every trace:
//! transaction sizes, size histogram, dependencies, amplification, NT
//! fraction, small-singleton fraction and epoch count. [`Analyzer`]
//! folds all of them in **one** traversal — each through its own
//! accumulator ([`TxStatsBuilder`], [`EpochSizeHistogram`],
//! [`DepTracker`], [`AmplificationReport`]) — and
//! [`Analyzer::analyze_events`] consumes epochs as
//! [`for_each_epoch`](super::for_each_epoch) closes them, so the epoch
//! vector is never materialized at all. It is the one way to compute
//! these statistics; [`Analyzer::analyze_epochs`] folds epochs a caller
//! already holds.

use super::{
    AmplificationReport, DepStats, DepTracker, Epoch, EpochSizeHistogram, TxStats, TxStatsBuilder,
};
use crate::event::Event;

/// Everything the single pass produces — one field per Section-5
/// statistic, plus the epoch count.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Total epochs in the trace.
    pub epoch_count: usize,
    /// Figure 3: epochs per durable transaction.
    pub tx_stats: TxStats,
    /// Figure 4: epoch-size histogram.
    pub size_hist: EpochSizeHistogram,
    /// Figure 5: self/cross dependency counts.
    pub deps: DepStats,
    /// Section 5.2: write amplification by category.
    pub amplification: AmplificationReport,
    /// Consequence 10: NT-store fraction of PM bytes (`None` if no
    /// bytes were written).
    pub nt_fraction: Option<f64>,
    /// Section 5.1: fraction of singletons under 10 bytes (`None` if
    /// there are no singletons).
    pub small_singleton_fraction: Option<f64>,
    /// Consequence 1: ordering (`Fence`) and durability (`DFence`)
    /// fences in the trace, counted by
    /// [`analyze_events`](Analyzer::analyze_events) (zero when folded
    /// from epochs).
    pub fences: [u64; 2],
}

/// Streaming fold of all Section-5 statistics.
///
/// Feed epochs in global execution order (the order
/// [`split_epochs`](super::split_epochs) emits) — the dependency
/// tracker is order-sensitive. Then call [`finish`](Analyzer::finish).
#[derive(Debug, Default)]
pub struct Analyzer {
    epoch_count: usize,
    tx: TxStatsBuilder,
    size_hist: EpochSizeHistogram,
    deps: DepTracker,
    amplification: AmplificationReport,
    total_bytes: u64,
    nt_bytes: u64,
    singletons: u64,
    small_singletons: u64,
    fences: [u64; 2],
}

impl Analyzer {
    /// A fresh accumulator.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Fold one epoch into every statistic.
    pub fn push(&mut self, e: &Epoch) {
        self.epoch_count += 1;
        self.tx.push(e);
        self.size_hist.push(e);
        self.deps.push(e);
        self.amplification.push(e);
        self.total_bytes += e.bytes;
        self.nt_bytes += e.nt_bytes;
        if e.is_singleton() {
            self.singletons += 1;
            if e.bytes < 10 {
                self.small_singletons += 1;
            }
        }
    }

    /// Finalize the report.
    pub fn finish(self) -> TraceReport {
        TraceReport {
            epoch_count: self.epoch_count,
            tx_stats: self.tx.finish(),
            size_hist: self.size_hist,
            deps: self.deps.stats(),
            amplification: self.amplification,
            nt_fraction: if self.total_bytes == 0 {
                None
            } else {
                Some(self.nt_bytes as f64 / self.total_bytes as f64)
            },
            small_singleton_fraction: if self.singletons == 0 {
                None
            } else {
                Some(self.small_singletons as f64 / self.singletons as f64)
            },
            fences: self.fences,
        }
    }

    /// Analyze already-split epochs in one pass.
    pub fn analyze_epochs<'a>(epochs: impl IntoIterator<Item = &'a Epoch>) -> TraceReport {
        let mut a = Analyzer::new();
        for e in epochs {
            a.push(e);
        }
        a.finish()
    }

    /// Analyze a raw event stream in one pass, splitting epochs and
    /// folding statistics in the same traversal — each epoch is lent
    /// by [`for_each_epoch`](super::for_each_epoch) and recycled as
    /// soon as it has been accounted, so peak memory is one open epoch
    /// per thread instead of the whole epoch vector.
    pub fn analyze_events(events: &[Event]) -> TraceReport {
        let _span = pmobs::span!("analyze");
        let mut a = Analyzer::new();
        a.fences = super::for_each_epoch(events, |e| a.push(e));
        pmobs::count!("pmtrace.events_analyzed", events.len() as u64);
        pmobs::count!("pmtrace.epochs_analyzed", a.epoch_count as u64);
        a.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{nt_fraction, small_singleton_fraction, split_epochs};
    use crate::{Category, Tid, TraceBuffer};

    /// A trace exercising every statistic: transactions, NT stores,
    /// multiple threads, singletons, multi-line epochs, dependencies.
    fn busy_trace() -> Vec<Event> {
        let mut t = TraceBuffer::new();
        for i in 0..40u64 {
            let tid = Tid((i % 3) as u32);
            if i % 5 == 0 {
                t.tx_begin(tid, i, i * 100);
            }
            let addr = (i % 7) * 64;
            t.pm_store(
                tid,
                addr,
                4 + (i % 12) as u32,
                i % 4 == 0,
                Category::UserData,
                i * 100 + 10,
            );
            if i % 3 == 0 {
                t.pm_store(tid, addr + 640, 200, false, Category::UndoLog, i * 100 + 20);
            }
            if i % 2 == 0 {
                t.fence(tid, i * 100 + 30);
            } else {
                t.dfence(tid, i * 100 + 30);
            }
            if i % 5 == 4 {
                t.tx_end(tid, i - 4, i * 100 + 40);
            }
        }
        t.into_events()
    }

    /// What the line-indexed walk could get wrong: thread ids far
    /// apart, addresses below any PM range (synthetic traces and
    /// `--from-trace` files carry address 0), a store wider than the
    /// Figure 4 tail bucket, a line stored twice in one epoch, and
    /// lines stored in descending order.
    fn awkward_trace() -> Vec<Event> {
        let (a, b) = (Tid(0), Tid(63));
        let mut t = TraceBuffer::new();
        t.tx_begin(b, 7, 1);
        t.pm_store(a, 0, 8, false, Category::UserData, 2);
        t.pm_store(b, 4096, 8, true, Category::RedoLog, 3);
        t.pm_store(a, 32, 8, false, Category::UserData, 4); // line 0 again
        t.pm_store(b, 64 * 100 + 60, 64 * 64, false, Category::UndoLog, 5); // 65 lines
        t.pm_store(b, 0, 8, false, Category::UserData, 6); // below b's other lines
        t.pm_store(b, 4100, 4, false, Category::LogMeta, 6); // line 64 again, not adjacent
        t.fence(a, 7);
        t.dfence(b, 8);
        t.tx_end(b, 7, 9);
        t.pm_store(b, 0, 4, false, Category::AppMeta, 10); // depends on both threads
        t.fence(b, 11);
        t.into_events()
    }

    #[test]
    fn awkward_trace_splits_as_expected() {
        let epochs = split_epochs(&awkward_trace());
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].lines, vec![pmem::Line(0)]);
        assert_eq!((epochs[0].stores, epochs[0].bytes), (2, 16));
        assert_eq!(epochs[1].tid, Tid(63));
        assert_eq!(epochs[1].unique_lines(), 1 + 1 + 65);
        assert!(epochs[1].lines.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(epochs[1].tx, Some(7));
        assert_eq!((epochs[2].index, epochs[2].tx), (1, None));
    }

    /// The single pass against the definitions that do not go through
    /// it: the collected epochs (each holding its lines strictly
    /// ascending) and the two fraction functions.
    #[test]
    fn single_pass_matches_legacy_functions() {
        for events in [busy_trace(), awkward_trace()] {
            let epochs = split_epochs(&events);
            assert!(epochs
                .iter()
                .all(|e| e.lines.windows(2).all(|w| w[0] < w[1])));
            let report = Analyzer::analyze_events(&events);
            assert_eq!(report.epoch_count, epochs.len());
            assert_eq!(report.nt_fraction, nt_fraction(&epochs));
            assert_eq!(
                report.small_singleton_fraction,
                small_singleton_fraction(&epochs)
            );
        }
    }

    /// Streaming the events and folding the collected epochs agree on
    /// every field.
    #[test]
    fn analyze_epochs_equals_analyze_events() {
        for events in [busy_trace(), awkward_trace()] {
            let from_events = Analyzer::analyze_events(&events);
            let from_epochs = Analyzer::analyze_epochs(&split_epochs(&events));
            assert_eq!(from_epochs.epoch_count, from_events.epoch_count);
            assert_eq!(
                from_epochs.tx_stats.epochs_per_tx,
                from_events.tx_stats.epochs_per_tx
            );
            assert_eq!(from_epochs.size_hist, from_events.size_hist);
            assert_eq!(from_epochs.deps, from_events.deps);
            assert_eq!(from_epochs.amplification, from_events.amplification);
            assert_eq!(from_epochs.nt_fraction, from_events.nt_fraction);
            assert_eq!(
                from_epochs.small_singleton_fraction,
                from_events.small_singleton_fraction
            );
        }
    }

    #[test]
    fn empty_trace_report() {
        let report = Analyzer::analyze_events(&[]);
        assert_eq!(report.epoch_count, 0);
        assert_eq!(report.nt_fraction, None);
        assert_eq!(report.small_singleton_fraction, None);
        assert_eq!(report.tx_stats.tx_count(), 0);
        assert_eq!(report.deps, DepStats::default());
    }
}
