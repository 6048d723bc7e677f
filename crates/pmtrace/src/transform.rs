//! Owned trace transforms: elide events by index, splice ranges.
//!
//! The checker (`pmcheck`'s rewrite pass) and any future trace
//! editor need to produce a *new* event stream from a recorded one
//! without disturbing the relative order or timestamps of the events
//! that survive — the hops `Replayer` prices inter-event gaps from the
//! recorded `at_ns` values, and the crash `CrashCounter` counts
//! surviving fences, so both stay aligned as long as survivors keep
//! their original order and stamps. Everything here returns owned
//! `Vec<Event>`s; [`Event`] is `Copy`, so no per-event allocation
//! happens either way.

use crate::event::Event;

/// An accumulated set of events to drop from a trace, applied in one
/// pass. Indices refer to the *original* trace; duplicates and
/// out-of-order insertion are fine.
#[derive(Debug, Clone, Default)]
pub struct TraceEdit {
    elide: Vec<usize>,
}

impl TraceEdit {
    /// An edit that drops nothing.
    pub fn new() -> TraceEdit {
        TraceEdit::default()
    }

    /// Mark the event at `idx` (original-trace index) for elision.
    pub fn elide(&mut self, idx: usize) -> &mut TraceEdit {
        self.elide.push(idx);
        self
    }

    /// True when no elisions are queued.
    pub fn is_empty(&self) -> bool {
        self.elide.is_empty()
    }

    /// Number of distinct queued elisions.
    pub fn len(&self) -> usize {
        let mut v = self.elide.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Apply the edit: returns the surviving events (original order and
    /// timestamps preserved) plus, for each survivor, its index in the
    /// original trace — the map a caller needs to chain edits across
    /// passes. Indices past the end of `events` are ignored.
    pub fn apply(&self, events: &[Event]) -> (Vec<Event>, Vec<usize>) {
        let mut drop = self.elide.clone();
        drop.sort_unstable();
        drop.dedup();
        let mut kept = Vec::with_capacity(events.len().saturating_sub(drop.len()));
        let mut origin = Vec::with_capacity(kept.capacity());
        let mut next_drop = drop.iter().copied().peekable();
        for (i, ev) in events.iter().enumerate() {
            if next_drop.peek() == Some(&i) {
                next_drop.next();
                continue;
            }
            kept.push(*ev);
            origin.push(i);
        }
        (kept, origin)
    }
}

/// Drop the events at `indices` (any order, duplicates fine) and
/// return the surviving trace. See [`TraceEdit::apply`] for the
/// ordering guarantees.
pub fn elide_indices(events: &[Event], indices: &[usize]) -> Vec<Event> {
    let mut edit = TraceEdit::new();
    for &i in indices {
        edit.elide(i);
    }
    edit.apply(events).0
}

/// Replace `events[range]` with `replacement`, keeping everything
/// around the range untouched. Panics (like slice indexing) if the
/// range is out of bounds or decreasing.
pub fn splice(
    events: &[Event],
    range: std::ops::Range<usize>,
    replacement: &[Event],
) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len() - range.len() + replacement.len());
    out.extend_from_slice(&events[..range.start]);
    out.extend_from_slice(replacement);
    out.extend_from_slice(&events[range.end..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Tid, TraceBuffer};

    fn sample() -> Vec<Event> {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 8, false, Category::UserData, 10);
        t.flush(tid, 0, 20);
        t.fence(tid, 30);
        t.flush(tid, 0, 40);
        t.fence(tid, 50);
        t.into_events()
    }

    #[test]
    fn elide_preserves_order_and_stamps() {
        let evs = sample();
        let out = elide_indices(&evs, &[3]);
        assert_eq!(out.len(), 4);
        let stamps: Vec<u64> = out.iter().map(|e| e.at_ns).collect();
        assert_eq!(stamps, vec![10, 20, 30, 50]);
    }

    #[test]
    fn elide_tolerates_duplicates_and_out_of_range() {
        let evs = sample();
        let out = elide_indices(&evs, &[4, 3, 3, 99]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn apply_reports_origin_indices() {
        let evs = sample();
        let mut edit = TraceEdit::new();
        edit.elide(1).elide(3);
        let (kept, origin) = edit.apply(&evs);
        assert_eq!(kept.len(), 3);
        assert_eq!(origin, vec![0, 2, 4]);
        assert_eq!(edit.len(), 2);
    }

    #[test]
    fn empty_edit_is_identity() {
        let evs = sample();
        let (kept, origin) = TraceEdit::new().apply(&evs);
        assert_eq!(kept, evs);
        assert_eq!(origin, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn splice_replaces_a_range() {
        let evs = sample();
        let out = splice(&evs, 1..3, &evs[3..4]);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1].at_ns, 40);
        assert_eq!(out[2].at_ns, 40);
    }
}
