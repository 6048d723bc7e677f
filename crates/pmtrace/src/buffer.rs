//! Recording side of the trace framework.

use crate::event::{Category, Event, EventKind, Tid, TxId};
use pmem::Addr;

/// An append-only buffer of trace [`Event`]s.
///
/// The `memsim` machine owns one of these and records every PM
/// operation as applications run — the analogue of WHISPER's `PM_*`
/// macros feeding ftrace. Recording can be disabled to measure
/// tracing-free runs (the paper reports 2–10× tracing overhead; ours is
/// a vector push of one 16-byte [`Event`] record, packed from its
/// [`EventKind`] by [`Event::new`]).
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<Event>,
    enabled: bool,
}

impl TraceBuffer {
    /// A new, enabled, empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off mid-run (e.g. to skip a warm-up phase).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The recorded events, in global timestamp order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all recorded events, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Consume the buffer, returning the raw events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    fn push(&mut self, tid: Tid, at_ns: u64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event::new(tid, at_ns, kind));
        }
    }

    /// Record a PM store.
    pub fn pm_store(
        &mut self,
        tid: Tid,
        addr: Addr,
        len: u32,
        nt: bool,
        cat: Category,
        at_ns: u64,
    ) {
        self.push(tid, at_ns, EventKind::PmStore { addr, len, nt, cat });
    }

    /// Record a `clwb`/`clflushopt`.
    pub fn flush(&mut self, tid: Tid, addr: Addr, at_ns: u64) {
        self.push(tid, at_ns, EventKind::Flush { addr });
    }

    /// Record an ordering fence (epoch boundary).
    pub fn fence(&mut self, tid: Tid, at_ns: u64) {
        self.push(tid, at_ns, EventKind::Fence);
    }

    /// Record a durability fence (also an epoch boundary).
    pub fn dfence(&mut self, tid: Tid, at_ns: u64) {
        self.push(tid, at_ns, EventKind::DFence);
    }

    /// Record the start of a durable transaction.
    pub fn tx_begin(&mut self, tid: Tid, id: TxId, at_ns: u64) {
        self.push(tid, at_ns, EventKind::TxBegin { id });
    }

    /// Record a transaction commit.
    pub fn tx_end(&mut self, tid: Tid, id: TxId, at_ns: u64) {
        self.push(tid, at_ns, EventKind::TxEnd { id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 64, 8, false, Category::UserData, 1);
        t.fence(Tid(0), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].at_ns(), 1);
        assert_eq!(t.events()[1].kind(), EventKind::Fence);
    }

    #[test]
    fn disabled_discards() {
        let mut t = TraceBuffer::new();
        t.set_enabled(false);
        t.fence(Tid(0), 1);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn toggle_mid_run() {
        let mut t = TraceBuffer::new();
        t.fence(Tid(0), 1);
        t.set_enabled(false);
        t.fence(Tid(0), 2);
        t.set_enabled(true);
        t.fence(Tid(0), 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_keeps_enabled_flag() {
        let mut t = TraceBuffer::new();
        t.fence(Tid(0), 1);
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
    }

    #[test]
    fn into_events_round_trip() {
        let mut t = TraceBuffer::new();
        t.tx_begin(Tid(1), 7, 0);
        t.tx_end(Tid(1), 7, 9);
        let ev = t.into_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].kind(), EventKind::TxEnd { id: 7 });
    }
}
