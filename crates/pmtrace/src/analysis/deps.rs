//! Self- and cross-thread epoch dependencies (Figure 5).
//!
//! Section 5.1 defines, for epochs that write a common cache line `c`:
//! a *cross-dependency* when the two epochs come from different threads
//! and a *self-dependency* when a later epoch of the same thread writes
//! a line an earlier epoch wrote. "To simplify trace processing, we only
//! look for dependencies within a 50 µsec window, which is the upper
//! limit for which a flushed cache line could be buffered before
//! becoming persistent."

use super::Epoch;
use crate::event::Tid;
use pmem::{FxHashMap, Line};

/// The paper's dependency window: 50 µs, in nanoseconds.
pub const DEP_WINDOW_NS: u64 = 50_000;

/// Counts of dependent epochs, as fractions of all epochs (Figure 5's
/// y-axis is "epoch dependencies as a percentage of total epochs").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Total epochs analyzed.
    pub total_epochs: u64,
    /// Epochs with at least one write-after-write dependency on an
    /// earlier epoch of the *same* thread within the window.
    pub self_dep_epochs: u64,
    /// Epochs with at least one write-after-write dependency on an
    /// earlier epoch of a *different* thread within the window.
    pub cross_dep_epochs: u64,
}

impl DepStats {
    /// Self-dependent fraction of all epochs.
    pub fn self_fraction(&self) -> f64 {
        if self.total_epochs == 0 {
            0.0
        } else {
            self.self_dep_epochs as f64 / self.total_epochs as f64
        }
    }

    /// Cross-dependent fraction of all epochs.
    pub fn cross_fraction(&self) -> f64 {
        if self.total_epochs == 0 {
            0.0
        } else {
            self.cross_dep_epochs as f64 / self.total_epochs as f64
        }
    }
}

/// Figure 5's accumulator: feed epochs in global execution order (as
/// [`super::for_each_epoch`] lends them from a time-ordered trace),
/// then read [`stats`](DepTracker::stats).
#[derive(Debug, Default)]
pub struct DepTracker {
    // line -> (thread of last writer epoch, its end time). Hashed, not
    // range-indexed: a trace may carry any address.
    last_writer: FxHashMap<Line, (Tid, u64)>,
    stats: DepStats,
}

impl DepTracker {
    /// Account one epoch. An epoch depends on the most recent earlier
    /// epoch that wrote any of its lines, if that epoch ended within
    /// [`DEP_WINDOW_NS`] of this epoch's start.
    pub fn push(&mut self, e: &Epoch) {
        self.stats.total_epochs += 1;
        let mut self_dep = false;
        let mut cross_dep = false;
        // An epoch's lines are distinct, so reading a line's previous
        // writer and recording this epoch as its new one is one step.
        for line in &e.lines {
            if let Some((wtid, wend)) = self.last_writer.insert(*line, (e.tid, e.end_ns)) {
                let within = e.start_ns.saturating_sub(wend) <= DEP_WINDOW_NS;
                if within {
                    if wtid == e.tid {
                        self_dep = true;
                    } else {
                        cross_dep = true;
                    }
                }
            }
        }
        if self_dep {
            self.stats.self_dep_epochs += 1;
        }
        if cross_dep {
            self.stats.cross_dep_epochs += 1;
        }
    }

    /// The counts accumulated so far.
    pub fn stats(&self) -> DepStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::{Category, TraceBuffer};

    #[test]
    fn self_dependency_detected() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 8, false, Category::UserData, 1);
        t.fence(tid, 2);
        t.pm_store(tid, 0, 8, false, Category::UserData, 3); // same line, same thread
        t.fence(tid, 4);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.total_epochs, 2);
        assert_eq!(s.self_dep_epochs, 1);
        assert_eq!(s.cross_dep_epochs, 0);
        assert_eq!(s.self_fraction(), 0.5);
    }

    #[test]
    fn cross_dependency_detected() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 1);
        t.fence(Tid(0), 2);
        t.pm_store(Tid(1), 0, 8, false, Category::UserData, 3);
        t.fence(Tid(1), 4);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.cross_dep_epochs, 1);
        assert_eq!(s.self_dep_epochs, 0);
    }

    #[test]
    fn dependency_outside_window_ignored() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 8, false, Category::UserData, 1);
        t.fence(tid, 2);
        // More than 50 µs later:
        t.pm_store(tid, 0, 8, false, Category::UserData, 2 + DEP_WINDOW_NS + 1);
        t.fence(tid, 2 + DEP_WINDOW_NS + 2);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.self_dep_epochs, 0);
    }

    #[test]
    fn boundary_exactly_at_window_counts() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 8, false, Category::UserData, 1);
        t.fence(tid, 2);
        t.pm_store(tid, 0, 8, false, Category::UserData, 2 + DEP_WINDOW_NS);
        t.fence(tid, 3 + DEP_WINDOW_NS);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.self_dep_epochs, 1);
    }

    #[test]
    fn disjoint_lines_no_dependency() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 8, false, Category::UserData, 1);
        t.fence(tid, 2);
        t.pm_store(tid, 64, 8, false, Category::UserData, 3);
        t.fence(tid, 4);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.self_dep_epochs, 0);
        assert_eq!(s.cross_dep_epochs, 0);
    }

    #[test]
    fn epoch_counted_once_despite_many_shared_lines() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 128, false, Category::UserData, 1); // 2 lines
        t.fence(tid, 2);
        t.pm_store(tid, 0, 128, false, Category::UserData, 3); // same 2 lines
        t.fence(tid, 4);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.self_dep_epochs, 1);
    }

    #[test]
    fn both_self_and_cross_possible_for_one_epoch() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 1);
        t.fence(Tid(0), 2);
        t.pm_store(Tid(1), 64, 8, false, Category::UserData, 3);
        t.fence(Tid(1), 4);
        // Thread 0 epoch touching both lines: self-dep on line 0,
        // cross-dep on line 1.
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 5);
        t.pm_store(Tid(0), 64, 8, false, Category::UserData, 6);
        t.fence(Tid(0), 7);
        let s = Analyzer::analyze_events(t.events()).deps;
        assert_eq!(s.self_dep_epochs, 1);
        assert_eq!(s.cross_dep_epochs, 1);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let s = Analyzer::analyze_events(&[]).deps;
        assert_eq!(s.self_fraction(), 0.0);
        assert_eq!(s.cross_fraction(), 0.0);
    }
}
