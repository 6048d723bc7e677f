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
use pmem::SparseLineMap;

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

/// The last epoch to write a line, in 16 bytes. `tid` is `None` for a
/// line never written: every [`Tid`], `Tid(u32::MAX)` included, is one
/// a trace may carry, so none can stand for "nobody".
#[derive(Debug, Clone, Copy, Default)]
struct LastWriter {
    tid: Option<Tid>,
    /// When that epoch's closing fence ran.
    end_ns: u64,
}

// A page of last writers is 1 KiB.
const _: () = assert!(size_of::<LastWriter>() == 16);

/// Figure 5's accumulator: feed epochs in global execution order (as
/// [`super::for_each_epoch`] lends them from a time-ordered trace),
/// then read [`stats`](DepTracker::stats).
#[derive(Debug, Default)]
pub struct DepTracker {
    // Per line, its last writer. Paged, not range-indexed: a trace may
    // carry any address, and an epoch's sorted lines hash once per
    // 64-line page.
    last_writer: SparseLineMap<LastWriter>,
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
        let this = LastWriter {
            tid: Some(e.tid),
            end_ns: e.end_ns,
        };
        for line in &e.lines {
            let prev = std::mem::replace(self.last_writer.slot(*line), this);
            if let Some(wtid) = prev.tid {
                if e.start_ns.saturating_sub(prev.end_ns) <= DEP_WINDOW_NS {
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
    use crate::analysis::{for_each_epoch, Analyzer};
    use crate::{Category, TraceBuffer};
    use miniprop::prelude::*;
    use pmem::{FxHashMap, Line, SPARSE_PAGE_LINES};

    /// The tracker as it was before it was paged: one hash-map entry per
    /// line ever written. The reference the paged one must equal.
    #[derive(Default)]
    struct HashDepTracker {
        last_writer: FxHashMap<Line, (Tid, u64)>,
        stats: DepStats,
    }

    impl HashDepTracker {
        fn push(&mut self, e: &Epoch) {
            self.stats.total_epochs += 1;
            let mut self_dep = false;
            let mut cross_dep = false;
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
    }

    /// Thread ids the random epochs come from; the last is the largest
    /// a `Tid` holds.
    const TIDS: [Tid; 4] = [Tid(0), Tid(1), Tid(9), Tid(u32::MAX)];

    /// Lines the random stores start in: both ends of the address
    /// space, and either side of a 64-line page boundary.
    const HOT: [u64; 8] = [
        0,
        1,
        SPARSE_PAGE_LINES as u64 - 2,
        SPARSE_PAGE_LINES as u64 - 1,
        SPARSE_PAGE_LINES as u64,
        u64::MAX / 64 - 2,
        u64::MAX / 64 - 1,
        u64::MAX / 64,
    ];

    /// Gaps between one epoch's end and the next one's start.
    const GAPS: [u64; 6] = [
        0,
        1,
        DEP_WINDOW_NS - 1,
        DEP_WINDOW_NS,
        DEP_WINDOW_NS + 1,
        3 * DEP_WINDOW_NS,
    ];

    /// One random epoch: (thread, stores as (hot line, offset into it,
    /// length), gap before it, its own length in ns), indices into the
    /// tables above.
    type EpochSpec = (usize, Vec<(usize, u64, u64)>, usize, u64);

    /// The epochs `spec` describes, in execution order. A store near
    /// the top is cut short where the address space ends.
    fn epochs(spec: &[EpochSpec]) -> Vec<Epoch> {
        let mut clock = 0;
        let mut out = Vec::new();
        for (tid, stores, gap, dur) in spec {
            let mut e = Epoch::open(TIDS[*tid]);
            e.start_ns = clock + GAPS[*gap];
            for &(hot, off, len) in stores {
                let addr = (HOT[hot] * 64 + off).min(u64::MAX - 1);
                let len = len.min(u64::MAX - addr) as u32;
                e.store(addr, len, false, Category::UserData);
            }
            e.close(e.start_ns + dur, false);
            clock = e.end_ns;
            out.push(e);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn paged_tracker_equals_the_hash_map_reference(
            spec in collection::vec(
                (
                    0..TIDS.len(),
                    collection::vec((0..HOT.len(), 0..64u64, 1..=200u64), 1..4),
                    0..GAPS.len(),
                    0..3u64,
                ),
                0..40,
            )
        ) {
            let mut paged = DepTracker::default();
            let mut reference = HashDepTracker::default();
            for e in epochs(&spec) {
                paged.push(&e);
                reference.push(&e);
                prop_assert_eq!(paged.stats(), reference.stats);
            }
        }
    }

    #[test]
    fn footprint_is_one_page_per_64_lines_written() {
        const LINES: u64 = 16_384; // 1 MiB
        let mut t = TraceBuffer::new();
        for (tid, at) in [(Tid(0), 1), (Tid(1), 3)] {
            let len = (LINES * 64) as u32;
            t.pm_store(tid, 4 << 30, len, true, Category::UserData, at);
            t.fence(tid, at + 1);
        }
        let mut tracker = DepTracker::default();
        for_each_epoch(t.events(), |e| {
            tracker.push(e);
            // The second epoch stores the same lines: found, not
            // allocated.
            assert_eq!(tracker.last_writer.resident(), 256);
        });
        assert_eq!(tracker.stats().cross_dep_epochs, 1);
    }

    #[test]
    fn the_largest_thread_id_is_a_writer_like_any_other() {
        let mut tracker = DepTracker::default();
        let mut first = Epoch::open(Tid(u32::MAX));
        first.store(0, 8, false, Category::UserData);
        first.close(1, false);
        tracker.push(&first);
        let mut second = Epoch::open(Tid(0));
        second.start_ns = 2;
        second.store(0, 8, false, Category::UserData);
        second.close(3, false);
        tracker.push(&second);
        let s = tracker.stats();
        assert_eq!((s.self_dep_epochs, s.cross_dep_epochs), (0, 1));
    }

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
