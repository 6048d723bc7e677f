//! The dense line table every `pmcheck` pass runs on.
//!
//! A cache line is *interned* once per event to a dense `u32` id, and
//! everything any pass knows about the line lives in that id's
//! [`LineRec`]. Interning is page-granular: the ids live in a
//! [`pmem::SparseLineMap`], which hashes a 4 KiB page's number to its
//! array of 64 line ids and caches the last page found, so the 64 lines
//! of a 4 KiB store cost one hash lookup between them. That page index
//! is the only line-keyed hash left in the crate. Ids are
//! handed out in order of first touch — a record exists only for a line
//! some event named, and lines touched together sit together.
//!
//! The table also owns the one **line-state automaton**
//! (`Clean → Dirty → Flushed → Durable`, [`LineState`]) and the
//! per-thread pending-flush lists it needs; the streaming checker and
//! the crash-point durability proof ([`crate::hb::durable_lines_at`],
//! asked at trace positions) both drive it through
//! [`store`](LineTable::store), [`flush`](LineTable::flush) and
//! [`fence`](LineTable::fence) instead of each keeping a copy.
//!
//! A record holds the interned line, the automaton's state and the
//! checker's `tx_managed` flag, and nothing else. Every other per-line fact
//! lives in a vector under the same ids, owned by the one pass that
//! reads it: the happens-before engine's clocks ([`crate::hb`]), the
//! checker's pending persists (`P-EPOCH-RACE`), and the crash proof's
//! in-flight write-back counters. A pass that needs none of them
//! allocates none of them.
//!
//! Sets of lines ("stored in thread T's open epoch", "awaiting T's
//! fence") are `Vec<LineId>` lists owned by whoever drains them. A
//! list never needs a hash to stay duplicate-free or to drop a member:
//! membership is read off the record (the automaton's `Flushed { by }`,
//! the engine's per-slot write tick), and an entry the record no longer
//! backs is skipped when the list drains. Nothing iterates a hash
//! table, so no output order depends on a hasher.

use pmem::{FxHashMap, Line, SparseLineMap};
use pmtrace::Tid;

/// Dense index of an interned line.
pub(crate) type LineId = u32;

/// Durability progress of one cache line.
///
/// `Flushed`/`Durable` record which thread's fence is / was the
/// covering ordering point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Never stored to.
    #[default]
    Clean,
    /// Cacheable store landed; no covering flush yet.
    Dirty {
        /// Last storing thread.
        by: Tid,
    },
    /// A `clwb`/`clflushopt` snapshot or an NT store is in flight;
    /// durable once `by` fences.
    Flushed {
        /// Thread whose fence will complete the flush.
        by: Tid,
        /// When the covering operation was issued.
        at_ns: u64,
        /// True when the coverage is a write-combining NT store
        /// (which may legally keep combining until the fence) rather
        /// than a `clwb`/`clflushopt` snapshot.
        nt: bool,
    },
    /// Flushed and fenced: persistent as of the fence.
    Durable,
}

/// What the automaton and the checker know about one line. Each group
/// of fields has one writer. The checker's flag sits here, beside
/// `state`, because it reads both on every store it checks; the facts
/// of the other passes live in their own vectors (see the module doc).
#[derive(Debug)]
pub(crate) struct LineRec {
    pub(crate) line: Line,
    /// The automaton's state — written only by [`LineTable::store`],
    /// [`LineTable::flush`] and [`LineTable::fence`].
    pub(crate) state: LineState,

    // Checker.
    /// Ever stored under an open durable transaction — the tx-managed
    /// region model behind `P-TX-ATOMICITY`.
    pub(crate) tx_managed: bool,
}

// Every pass allocates one per line a trace touches.
const _: () = assert!(size_of::<LineRec>() == 32);

/// Line interner, per-line records, thread slots, and the line-state
/// automaton.
#[derive(Debug, Default)]
pub(crate) struct LineTable {
    /// Per line: its id plus one, or 0 while no event has named it.
    ids: SparseLineMap<LineId>,
    /// Records by id, in order of first touch.
    pub(crate) recs: Vec<LineRec>,
    slots: FxHashMap<Tid, usize>,
    /// Slot → thread, in order of first appearance.
    pub(crate) tids: Vec<Tid>,
    /// Per slot: lines that were `Flushed { by: <slot's thread> }` when
    /// listed. A line whose state moved on since is skipped at the
    /// fence.
    pending: Vec<Vec<LineId>>,
}

impl LineTable {
    /// The id of `line`, allocated at first appearance.
    pub(crate) fn intern(&mut self, line: Line) -> LineId {
        let id_plus_one = self.ids.slot(line);
        if *id_plus_one == 0 {
            self.recs.push(LineRec {
                line,
                state: LineState::Clean,
                tx_managed: false,
            });
            *id_plus_one =
                LineId::try_from(self.recs.len()).expect("fewer than 2^32 interned lines");
        }
        *id_plus_one - 1
    }

    /// The dense slot of `tid`, allocated at first appearance.
    pub(crate) fn slot(&mut self, tid: Tid) -> usize {
        if let Some(s) = self.slots.get(&tid) {
            return *s;
        }
        let s = self.tids.len();
        self.slots.insert(tid, s);
        self.tids.push(tid);
        self.pending.push(Vec::new());
        s
    }

    /// A store to `id` by the thread in `slot`. Returns the state the
    /// store replaced.
    pub(crate) fn store(&mut self, id: LineId, slot: usize, at_ns: u64, nt: bool) -> LineState {
        let tid = self.tids[slot];
        let rec = &mut self.recs[id as usize];
        let prev = rec.state;
        rec.state = if nt {
            // An NT store bypasses the cache into the write-combining
            // buffer: it is its own flush, pending this thread's fence.
            if !matches!(prev, LineState::Flushed { by, .. } if by == tid) {
                self.pending[slot].push(id);
            }
            LineState::Flushed {
                by: tid,
                at_ns,
                nt: true,
            }
        } else {
            LineState::Dirty { by: tid }
        };
        prev
    }

    /// A `clwb`/`clflushopt` of `id` by the thread in `slot`. Returns
    /// the state the flush found: `Clean`/`Durable` mean it was
    /// redundant and changed nothing; `Dirty` means it snapshotted the
    /// line.
    pub(crate) fn flush(&mut self, id: LineId, slot: usize, at_ns: u64) -> LineState {
        let tid = self.tids[slot];
        let rec = &mut self.recs[id as usize];
        let prev = rec.state;
        // A re-flush of a still-pending line only matters when it
        // takes coverage over from another thread's `clwb`; a pending
        // *NT* entry drains on its storing thread's fence, which a
        // foreign flush cannot accelerate, so its ownership stays.
        let covers = match prev {
            LineState::Dirty { .. } => true,
            LineState::Flushed { by, nt, .. } => !nt && by != tid,
            LineState::Clean | LineState::Durable => false,
        };
        if covers {
            rec.state = LineState::Flushed {
                by: tid,
                at_ns,
                nt: false,
            };
            self.pending[slot].push(id);
        }
        prev
    }

    /// A fence by the thread in `slot`: every line still waiting on
    /// that thread becomes durable.
    pub(crate) fn fence(&mut self, slot: usize) {
        let tid = self.tids[slot];
        for id in self.pending[slot].drain(..) {
            let rec = &mut self.recs[id as usize];
            if matches!(rec.state, LineState::Flushed { by, .. } if by == tid) {
                rec.state = LineState::Durable;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense_in_touch_order() {
        let mut t = LineTable::default();
        // Page 2 offset 2, page 0, then the neighbours of the first:
        // ids follow first touch, not addresses.
        let lines = [Line(130), Line(5), Line(131), Line(128), Line(64 * 1000)];
        for (want, line) in lines.into_iter().enumerate() {
            assert_eq!(t.intern(line), want as LineId);
        }
        for (want, line) in lines.into_iter().enumerate() {
            assert_eq!(t.intern(line), want as LineId, "stable");
            assert_eq!(t.recs[want].line, line);
        }
        assert_eq!(t.recs.len(), lines.len(), "a record per named line only");
    }

    #[test]
    fn automaton_walks_dirty_flushed_durable() {
        let (t0, t1) = (Tid(0), Tid(7));
        let mut t = LineTable::default();
        let (s0, s1) = (t.slot(t0), t.slot(t1));
        assert_eq!((s0, s1, t.slot(t0)), (0, 1, 0));
        let id = t.intern(Line(9));
        assert_eq!(t.flush(id, s0, 1), LineState::Clean);
        assert_eq!(t.store(id, s0, 2, false), LineState::Clean);
        assert_eq!(t.flush(id, s0, 3), LineState::Dirty { by: t0 });
        // A foreign clwb takes coverage over; t0's fence then retires
        // nothing, t1's does.
        assert!(matches!(
            t.flush(id, s1, 4),
            LineState::Flushed { by, nt: false, .. } if by == t0
        ));
        t.fence(s0);
        assert!(matches!(t.recs[id as usize].state, LineState::Flushed { by, .. } if by == t1));
        t.fence(s1);
        assert_eq!(t.recs[id as usize].state, LineState::Durable);
        assert_eq!(t.flush(id, s0, 5), LineState::Durable);
        // An NT store is its own flush; repeating it lists the line once.
        t.store(id, s0, 6, true);
        t.store(id, s0, 7, true);
        assert_eq!(t.pending[s0], vec![id]);
        t.fence(s0);
        assert_eq!(t.recs[id as usize].state, LineState::Durable);
    }
}
