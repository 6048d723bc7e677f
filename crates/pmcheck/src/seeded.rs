//! The seeded-bug "buggy log": a hand-scripted trace of a tiny
//! two-thread append-only persistent log in which most appends follow
//! the correct store → flush → fence → commit discipline, but eight
//! bugs are deliberately planted — at least one for each rule,
//! including the happens-before rules (`P-CROSS-DEP`, `P-EPOCH-RACE`)
//! and `P-TX-ATOMICITY`.
//!
//! `examples/buggy_log.rs` runs the checker over this trace and prints
//! the findings; the `pmcheck` integration tests assert the exact rule
//! ids and counts below, proving every rule fires.

use crate::rules::Rule;
use pmtrace::{Category, Event, Tid, TraceBuffer};

/// Expected findings per rule over [`buggy_log_events`]:
/// `(rule, error_count, warn_count)` in [`Rule::ALL`] order.
pub const EXPECTED: [(Rule, usize, usize); Rule::ALL.len()] = [
    (Rule::Unflushed, 1, 0),      // append committed without any flush
    (Rule::Unordered, 2, 0),      // commit before fence + dependent store
    (Rule::RedundantFlush, 0, 2), // clean-line flush + re-flush after fence
    (Rule::DoubleFence, 0, 1),    // back-to-back fences
    (Rule::CrossDep, 2, 0),       // two unfenced writers on one line (×2)
    (Rule::EpochRace, 1, 0),      // concurrent persists of one line
    (Rule::TxAtomicity, 1, 0),    // naked store to a tx-managed entry
];

/// Total error- and warn-severity findings in [`buggy_log_events`].
pub const EXPECTED_ERRORS: usize = 7;
/// See [`EXPECTED_ERRORS`].
pub const EXPECTED_WARNINGS: usize = 3;

/// Build the buggy-log trace. Deterministic: no RNG, fixed timestamps.
pub fn buggy_log_events() -> Vec<Event> {
    let (t0, t1) = (Tid(0), Tid(1));
    let entry = |slot: u64| slot * 64; // one log entry per 64 B line
    let mut t = TraceBuffer::new();

    // -- Three correct appends: the background the bugs stand out from.
    // Entry 1, thread 0: store, flush, fence, commit.
    t.tx_begin(t0, 1, 10);
    t.pm_store(t0, entry(1), 24, false, Category::UserData, 12);
    t.flush(t0, entry(1), 14);
    t.fence(t0, 16);
    t.tx_end(t0, 1, 18);
    // Entry 2, thread 1: same discipline.
    t.tx_begin(t1, 1, 20);
    t.pm_store(t1, entry(2), 24, false, Category::UserData, 22);
    t.flush(t1, entry(2), 24);
    t.fence(t1, 26);
    t.tx_end(t1, 1, 28);
    // Entry 3, thread 0: a non-temporal append — its own flush, only a
    // durability fence needed.
    t.tx_begin(t0, 2, 30);
    t.pm_store(t0, entry(3), 32, true, Category::RedoLog, 32);
    t.dfence(t0, 34);
    t.tx_end(t0, 2, 36);

    // -- Bug 1 (P-UNFLUSHED): entry 4 is committed with no covering
    // flush at all; a crash after the commit record could lose it.
    t.tx_begin(t0, 3, 40);
    t.pm_store(t0, entry(4), 16, false, Category::UserData, 42);
    t.tx_end(t0, 3, 44);
    t.flush(t0, entry(4), 46); // late cleanup so only the commit is buggy
    t.fence(t0, 48);

    // -- Bug 2 (P-UNORDERED, commit variant): entry 5 is flushed but
    // the commit happens before any fence orders the flush.
    t.tx_begin(t0, 4, 50);
    t.pm_store(t0, entry(5), 16, false, Category::UserData, 52);
    t.flush(t0, entry(5), 54);
    t.tx_end(t0, 4, 56);
    t.fence(t0, 58);

    // -- Bug 3 (P-UNORDERED, dependent-store variant): entry 6's line
    // is flushed, then stored to again before the fence — the flushed
    // snapshot no longer covers the line's newest bytes.
    t.pm_store(t0, entry(6), 8, false, Category::AppMeta, 60);
    t.flush(t0, entry(6), 62);
    t.pm_store(t0, entry(6) + 8, 8, false, Category::AppMeta, 64);
    t.flush(t0, entry(6), 66);
    t.fence(t0, 68);

    // -- Bug 4 (P-REDUNDANT-FLUSH × 2): thread 1 flushes entry 7's
    // line before ever storing to it, then re-flushes entry 8 after
    // it is already flushed and fenced.
    t.flush(t1, entry(7), 70);
    t.pm_store(t1, entry(8), 8, false, Category::AppMeta, 72);
    t.flush(t1, entry(8), 74);
    t.fence(t1, 76);
    t.flush(t1, entry(8), 78);
    t.fence(t1, 80);

    // -- Bug 5 (P-DOUBLE-FENCE): thread 1 fences again with no PM
    // work since the fence at 80 ns.
    t.fence(t1, 82);

    // -- Bug 6 (P-CROSS-DEP): both threads store entry 10's line with
    // no fence between — whichever epoch a crash cuts, the line's
    // durable value is a race outcome.
    t.pm_store(t0, entry(10), 8, false, Category::UserData, 90);
    t.pm_store(t1, entry(10), 8, false, Category::UserData, 92);
    t.flush(t0, entry(10), 94);
    t.fence(t0, 96);
    t.fence(t1, 98); // closes thread 1's racy epoch (stores were real work)

    // -- Bug 7 (P-EPOCH-RACE, plus a second P-CROSS-DEP): both threads
    // store entry 11's line unfenced (the cross dependency), then both
    // flush it before either fences — two happens-before-concurrent
    // persists, so the device may write back either thread's bytes
    // last. Thread 1's flush takes over coverage and its fence retires
    // the line, keeping the trace end clean.
    t.pm_store(t0, entry(11), 8, false, Category::UserData, 100);
    t.pm_store(t1, entry(11), 8, false, Category::UserData, 102);
    t.flush(t0, entry(11), 104);
    t.flush(t1, entry(11), 106);
    t.fence(t0, 108);
    t.fence(t1, 110);

    // -- Bug 8 (P-TX-ATOMICITY): entry 12 is appended under a durable
    // transaction (making its line tx-managed), then patched with a
    // bare store after the commit — the update bypasses the undo/redo
    // log, so a crash mid-patch can leave the entry torn.
    t.tx_begin(t0, 5, 120);
    t.pm_store(t0, entry(12), 16, false, Category::UserData, 122);
    t.flush(t0, entry(12), 124);
    t.fence(t0, 126);
    t.tx_end(t0, 5, 128);
    t.pm_store(t0, entry(12), 8, false, Category::UserData, 130);
    t.flush(t0, entry(12), 132);
    t.fence(t0, 134);

    t.into_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_are_consistent() {
        let errors: usize = EXPECTED.iter().map(|(_, e, _)| e).sum();
        let warns: usize = EXPECTED.iter().map(|(_, _, w)| w).sum();
        assert_eq!(errors, EXPECTED_ERRORS);
        assert_eq!(warns, EXPECTED_WARNINGS);
        for (i, (rule, _, _)) in EXPECTED.iter().enumerate() {
            assert_eq!(*rule, Rule::ALL[i], "EXPECTED is in Rule::ALL order");
        }
    }
}
