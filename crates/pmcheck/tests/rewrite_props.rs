//! Property and pinning tests for the ordering optimizer
//! (`pmcheck::rewrite`).
//!
//! The properties the crash campaign relies on, checked over random
//! traces: the rewrite is idempotent, it only ever removes
//! flush/fence events (never a store or tx marker the crash counter
//! or another rule depends on), and it preserves every error-severity
//! finding. The pinning test fixes the exact elision counts for the
//! seeded buggy-log trace so optimizer coverage changes are loud.

mod common;

use common::{build, write_ops};
use miniprop::prelude::*;
use pmcheck::{check_events, rewrite::rewrite_events, seeded, Rule, Severity};
use pmtrace::{Event, EventKind, Tid};

/// (rule, tid, at_ns, line) for every error finding — the identity of
/// an error minus its (rewrite-shifted) event index.
fn error_keys(events: &[Event]) -> Vec<(Rule, Tid, u64, Option<pmem::Line>)> {
    check_events(events)
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| (f.rule, f.tid, f.at_ns, f.line))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimizing an optimized trace elides nothing.
    #[test]
    fn rewrite_is_idempotent((threads, ops) in write_ops(60)) {
        let events = build(threads, &ops);
        let first = rewrite_events(&events);
        let second = rewrite_events(&first.events);
        prop_assert_eq!(second.elided.len(), 0, "second pass elided {:?}", second.elided);
        prop_assert_eq!(&second.events, &first.events);
        prop_assert_eq!(second.rounds, 1);
    }

    /// The fixpoint trace is clean of both flagged rules.
    #[test]
    fn rewritten_trace_has_no_elidable_findings((threads, ops) in write_ops(60)) {
        let events = build(threads, &ops);
        let r = rewrite_events(&events);
        let after = check_events(&r.events);
        prop_assert_eq!(after.count(Rule::RedundantFlush), 0);
        prop_assert_eq!(after.count(Rule::DoubleFence), 0);
    }

    /// Only flush/fence events are ever removed: every store and tx
    /// marker — everything the crash counter and the other rules
    /// anchor on — survives, in order, and the survivors are exactly
    /// the original trace minus the reported elision indices.
    #[test]
    fn rewrite_never_removes_a_depended_on_event((threads, ops) in write_ops(60)) {
        let events = build(threads, &ops);
        let r = rewrite_events(&events);
        for &i in &r.elided {
            prop_assert!(matches!(
                events[i].kind,
                EventKind::Flush { .. } | EventKind::Fence | EventKind::DFence
            ), "elided a {:?}", events[i].kind);
        }
        prop_assert_eq!(
            &r.events,
            &pmtrace::transform::elide_indices(&events, &r.elided)
        );
        let count = |evs: &[Event], pred: fn(&EventKind) -> bool| {
            evs.iter().filter(|e| pred(&e.kind)).count()
        };
        let anchors = |k: &EventKind| matches!(
            k,
            EventKind::PmStore { .. } | EventKind::TxBegin { .. } | EventKind::TxEnd { .. }
        );
        prop_assert_eq!(count(&r.events, anchors), count(&events, anchors));
    }

    /// Elision is warn-only surgery: every error-severity finding of
    /// the original trace survives unchanged (same rule, thread,
    /// timestamp, line), and no new error appears.
    #[test]
    fn rewrite_preserves_every_error((threads, ops) in write_ops(60)) {
        let events = build(threads, &ops);
        let r = rewrite_events(&events);
        prop_assert_eq!(error_keys(&r.events), error_keys(&events));
    }
}

#[test]
fn seeded_buggy_log_elision_counts_are_pinned() {
    // The seeded trace plants two P-REDUNDANT-FLUSH sites (indices 29
    // and 33: the clean-line flush at 70 ns and the durable re-flush
    // at 78 ns) and one P-DOUBLE-FENCE (index 35, the fence at 82 ns).
    // Round 1 elides those three; with the re-flush gone, thread 1's
    // fence at 80 ns (index 34) closes an empty epoch and cascades out
    // in round 2; round 3 is the clean fixpoint pass.
    let events = seeded::buggy_log_events();
    let r = rewrite_events(&events);
    assert_eq!(r.elided_flushes, 2);
    assert_eq!(r.elided_fences, 2);
    assert_eq!(r.elided, vec![29, 33, 34, 35]);
    assert_eq!(r.rounds, 3);
    assert_eq!(r.events.len(), events.len() - 4);

    // The rewritten trace is clean of the elided rules but keeps every
    // planted error: the optimizer fixes performance bugs, not
    // correctness bugs.
    let after = check_events(&r.events);
    assert_eq!(after.count(Rule::RedundantFlush), 0);
    assert_eq!(after.count(Rule::DoubleFence), 0);
    assert_eq!(after.errors(), seeded::EXPECTED_ERRORS);
}
