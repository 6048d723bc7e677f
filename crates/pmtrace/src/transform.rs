//! Owned trace transforms: elide events by index.
//!
//! A trace rewrite (`pmcheck`'s optimizer pass) produces a *new* event
//! stream from a recorded one without disturbing the relative order or
//! timestamps of the events that survive — the hops `Replayer` prices
//! inter-event gaps from the recorded `at_ns` values, and the crash
//! `CrashCounter` counts surviving fences, so both stay aligned as long
//! as survivors keep their original order and stamps. [`Event`] is
//! `Copy`, so no per-event allocation happens.

use crate::event::Event;

/// Drop the events at `indices` (any order, duplicates fine, indices
/// past the end ignored) and return the survivors in their original
/// order with their original timestamps.
pub fn elide_indices(events: &[Event], indices: &[usize]) -> Vec<Event> {
    let mut drop = indices.to_vec();
    drop.sort_unstable();
    drop.dedup();
    let mut drop = drop.into_iter().peekable();
    events
        .iter()
        .enumerate()
        .filter(|(i, _)| drop.next_if_eq(i).is_none())
        .map(|(_, ev)| *ev)
        .collect()
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
    fn empty_edit_is_identity() {
        let evs = sample();
        assert_eq!(elide_indices(&evs, &[]), evs);
    }
}
