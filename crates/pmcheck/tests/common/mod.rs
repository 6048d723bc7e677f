//! The random-trace generator the property tests share.
//!
//! Traces draw on 1–70 distinct, sparse thread ids (so thread slots
//! are not the ids themselves and clocks grow past their inline
//! components) and on six lines laid across a 4 KiB page boundary,
//! with stores of one to four lines (so a store regularly straddles
//! two interned pages). [`build_at`] relocates the same operations —
//! other lines, later thread slots — for properties that say the
//! relocation must not matter.

#![allow(dead_code)] // each test file uses its own subset

use miniprop::prelude::*;
use pmtrace::{Category, Event, Tid, TraceBuffer};

/// Most threads a trace draws on.
pub const MAX_THREADS: u8 = 70;

/// Where a trace's six line slots sit, and how many thread slots are
/// taken before its own threads appear.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Line number of slot 0.
    pub first_line: u64,
    /// Lines between consecutive slots (1: a store of several lines
    /// runs into the next slots; 64: the slots share a page offset).
    pub stride: u64,
    /// Unrelated threads that each store and fence a private line
    /// before the trace proper, pushing its threads to later slots.
    pub bystanders: u8,
}

/// Contiguous slots, three below a 4 KiB page boundary and three above.
pub const STRADDLING: Layout = Layout {
    first_line: 64 * 5 - 3,
    stride: 1,
    bystanders: 0,
};

#[derive(Debug, Clone, Copy)]
pub enum TraceOp {
    /// A store of `lines` whole-or-partial lines starting in `slot`.
    Store {
        tid: u8,
        slot: u8,
        lines: u8,
        nt: bool,
    },
    Flush {
        tid: u8,
        slot: u8,
    },
    Fence {
        tid: u8,
        durable: bool,
    },
    TxToggle {
        tid: u8,
    },
}

/// `(thread count, ops)`: traces of stores, flushes, fences and tx
/// markers, shorter than `max_len`.
pub fn write_ops(max_len: usize) -> impl Strategy<Value = (u8, Vec<TraceOp>)> {
    let tid = || 0..MAX_THREADS;
    let arms = vec![
        (tid(), 0u8..6, 1u8..=4, any::<bool>())
            .prop_map(|(tid, slot, lines, nt)| TraceOp::Store {
                tid,
                slot,
                lines,
                nt,
            })
            .boxed(),
        (tid(), 0u8..6)
            .prop_map(|(tid, slot)| TraceOp::Flush { tid, slot })
            .boxed(),
        (tid(), any::<bool>())
            .prop_map(|(tid, durable)| TraceOp::Fence { tid, durable })
            .boxed(),
        tid().prop_map(|tid| TraceOp::TxToggle { tid }).boxed(),
    ];
    (
        1..=MAX_THREADS,
        collection::vec(miniprop::OneOf { arms }, 0..max_len),
    )
}

/// Materialize `ops` over `threads` threads, in the [`STRADDLING`]
/// layout.
pub fn build(threads: u8, ops: &[TraceOp]) -> Vec<Event> {
    build_at(threads, ops, STRADDLING)
}

/// Materialize `ops` over `threads` threads in `layout`. The
/// bystanders' events come first: two per bystander.
pub fn build_at(threads: u8, ops: &[TraceOp], layout: Layout) -> Vec<Event> {
    let mut t = TraceBuffer::new();
    let mut now = 0u64;
    for i in 0..u32::from(layout.bystanders) {
        let (tid, addr) = (Tid(900 + i), (1 << 36) + u64::from(i) * 4096);
        t.pm_store(tid, addr, 8, false, Category::UserData, now + 1);
        t.fence(tid, now + 2);
        now += 2;
    }
    let mut open_tx = [None::<u64>; MAX_THREADS as usize];
    let mut next_tx = 1u64;
    // Sparse ids: a thread's slot is never its id.
    let tid_of = |i: u8| Tid(3 + 7 * u32::from(i % threads));
    let addr_of = |slot: u8| (layout.first_line + u64::from(slot) * layout.stride) * 64;
    for op in ops {
        now += 2;
        match *op {
            TraceOp::Store {
                tid,
                slot,
                lines,
                nt,
            } => {
                let len = (u32::from(lines) - 1) * 64 + 8;
                t.pm_store(tid_of(tid), addr_of(slot), len, nt, Category::UserData, now);
            }
            TraceOp::Flush { tid, slot } => t.flush(tid_of(tid), addr_of(slot), now),
            TraceOp::Fence { tid, durable } => {
                if durable {
                    t.dfence(tid_of(tid), now);
                } else {
                    t.fence(tid_of(tid), now);
                }
            }
            TraceOp::TxToggle { tid } => {
                let open = &mut open_tx[usize::from(tid % threads)];
                match open.take() {
                    Some(id) => t.tx_end(tid_of(tid), id, now),
                    None => {
                        t.tx_begin(tid_of(tid), next_tx, now);
                        *open = Some(next_tx);
                        next_tx += 1;
                    }
                }
            }
        }
    }
    t.into_events()
}
