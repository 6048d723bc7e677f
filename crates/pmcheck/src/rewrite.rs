//! The ordering optimizer: elide checker-flagged redundant flushes and
//! double fences from a recorded trace.
//!
//! WHISPER's central result is that ordering (flushes/fences) dominates
//! PM overhead; MOD and Bentō later showed much of that ordering is
//! semantically unnecessary. The checker already *finds* exactly those
//! sites — `P-REDUNDANT-FLUSH` (a `clwb`/`clflushopt` of a clean or
//! already-durable line) and `P-DOUBLE-FENCE` (a fence with no PM work
//! since the previous fence) — and this pass turns the findings into a
//! rewritten trace with the flagged events removed.
//!
//! Why the elision is safe, at trace level:
//!
//! * A flagged flush covers a line the state machine sees as *Clean*
//!   (never stored since the trace began) or *Durable* (already flushed
//!   and fenced). Removing it takes no store's durability coverage
//!   away.
//! * A flagged fence closes an epoch containing no PM store or flush.
//!   It retires nothing, so no `Flushed` line loses its ordering point.
//!
//! Elision can *cascade*: removing a redundant flush may leave the
//! following fence with no PM work, turning it into a double fence on
//! the next pass. The rewrite therefore iterates check → elide to a
//! fixpoint; each non-empty round removes at least one event, so it
//! terminates in at most `events.len()` rounds (real traces converge in
//! two or three). By construction the fixpoint trace is clean of both
//! flagged rules, and eliding warn-only events introduces no new
//! errors — both re-checked by `whisper-report --optimize`, and
//! machine-verified by re-running the crash campaign over the elided
//! schedule (the Bentō-style soundness gate).
//!
//! Surviving events keep their original order, ids, and timestamps, so
//! the hops `Replayer` prices the rewritten trace directly and epoch
//! segmentation stays aligned.

use crate::checker::Checker;
use crate::rules::{Rule, RuleSet};
use pmtrace::{Event, EventKind};
use std::borrow::Cow;

/// What one [`rewrite_events`] run did.
#[derive(Debug, Clone, Default)]
pub struct RewriteReport<'a> {
    /// The rewritten trace: the input minus every elided event, order
    /// and timestamps untouched. It borrows the input when no round
    /// elided anything, and owns a compacted copy otherwise.
    pub events: Cow<'a, [Event]>,
    /// Indices of the elided events *in the original trace*,
    /// ascending.
    pub elided: Vec<usize>,
    /// Elided `Flush` events (all anchored by `P-REDUNDANT-FLUSH`).
    pub elided_flushes: usize,
    /// Elided `Fence`/`DFence` events (all anchored by
    /// `P-DOUBLE-FENCE`).
    pub elided_fences: usize,
    /// Checking passes run, including the final clean pass that proves
    /// the fixpoint (so ≥ 1 even when nothing is elided).
    pub rounds: usize,
}

impl RewriteReport<'_> {
    /// Total elided events.
    pub fn elided_total(&self) -> usize {
        self.elided.len()
    }
}

/// True for the rules whose findings the optimizer may elide.
pub fn is_elidable(rule: Rule) -> bool {
    matches!(rule, Rule::RedundantFlush | Rule::DoubleFence)
}

/// One checking pass reporting only the elidable rules: the indices of
/// the events its findings anchor, ascending and once each. Neither
/// rule reads a vector clock, so the pass runs the line-state automaton
/// alone, and its report is gone before the caller compacts the trace.
fn elision_targets(events: &[Event]) -> Vec<usize> {
    let mut c = Checker::with_rules(RuleSet::of(
        Rule::ALL.into_iter().filter(|r| is_elidable(*r)),
    ));
    for ev in events {
        c.push(ev);
    }
    let mut targets: Vec<usize> = c
        .finish()
        .findings
        .iter()
        .filter_map(|f| f.at_index)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// Rewrite `events` to a fixpoint: repeatedly check, elide every
/// event anchored by a `P-REDUNDANT-FLUSH` or `P-DOUBLE-FENCE`
/// finding, and re-check until a pass reports neither rule. Findings
/// without an anchoring event (end-of-trace warnings) are never
/// elision candidates, and no event of any other kind is ever removed.
/// The first pass reads `events` in place; the trace is copied only
/// once a round has something to elide, and a clean trace comes back
/// borrowed.
pub fn rewrite_events(events: &[Event]) -> RewriteReport<'_> {
    let _span = pmobs::span!("pmcheck.rewrite");
    // The rewritten trace so far, and origin[i] = index of its i-th
    // event in the *original* trace.
    let mut rewritten: Option<(Vec<Event>, Vec<usize>)> = None;
    let mut out = RewriteReport::default();

    loop {
        out.rounds += 1;
        let targets = elision_targets(rewritten.as_ref().map_or(events, |(current, _)| current));
        if targets.is_empty() {
            break;
        }
        let (current, origin) =
            rewritten.get_or_insert_with(|| (events.to_vec(), (0..events.len()).collect()));
        for &i in &targets {
            match current[i].kind() {
                EventKind::Flush { .. } => out.elided_flushes += 1,
                EventKind::Fence | EventKind::DFence => out.elided_fences += 1,
                // The flagged rules only ever anchor flushes and
                // fences; anything else would be a checker bug.
                _ => unreachable!("elidable finding anchored a non-flush/fence event"),
            }
            out.elided.push(origin[i]);
        }
        // Compact the survivors and their original indices in place,
        // order and timestamps untouched.
        let mut drop = targets.into_iter().peekable();
        let mut kept = 0;
        for i in 0..current.len() {
            if drop.next_if_eq(&i).is_none() {
                current[kept] = current[i];
                origin[kept] = origin[i];
                kept += 1;
            }
        }
        current.truncate(kept);
        origin.truncate(kept);
    }

    out.elided.sort_unstable();
    pmobs::count!("pmcheck.rewrite.elided", out.elided.len() as u64);
    out.events = rewritten.map_or(Cow::Borrowed(events), |(current, _)| Cow::Owned(current));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_events;
    use pmtrace::{Category, Tid, TraceBuffer};

    const T0: Tid = Tid(0);

    #[test]
    fn clean_trace_is_untouched() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        let r = rewrite_events(t.events());
        assert_eq!(r.events, t.events());
        assert_eq!(r.elided_total(), 0);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn cascade_elides_the_fence_a_redundant_flush_was_propping_up() {
        // flush(clean), store, flush, fence, flush(durable), fence:
        // round 1 drops both redundant flushes; with the durable
        // re-flush gone the final fence has no PM work, so round 2
        // drops it too.
        let mut t = TraceBuffer::new();
        t.flush(T0, 640, 5);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.flush(T0, 0, 40);
        t.fence(T0, 50);
        let r = rewrite_events(t.events());
        assert_eq!(r.elided_flushes, 2);
        assert_eq!(r.elided_fences, 1);
        assert_eq!(r.elided, vec![0, 4, 5]);
        assert_eq!(r.rounds, 3, "two eliding rounds + the clean pass");
        assert_eq!(r.events.len(), 3);
        assert!(check_events(&r.events).findings.is_empty());
    }

    #[test]
    fn rewrite_is_idempotent() {
        let mut t = TraceBuffer::new();
        t.flush(T0, 640, 5);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.flush(T0, 0, 40);
        t.fence(T0, 50);
        let first = rewrite_events(t.events());
        let second = rewrite_events(&first.events);
        assert_eq!(second.elided_total(), 0);
        assert_eq!(second.events, first.events);
    }

    #[test]
    fn end_of_trace_warnings_are_not_elided() {
        // A trace cut before its persist point: dirty + pending lines
        // warn at finish() with no anchoring event, so nothing can or
        // should be removed.
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.pm_store(T0, 64, 8, false, Category::UserData, 20);
        t.flush(T0, 64, 30);
        let r = rewrite_events(t.events());
        assert_eq!(r.elided_total(), 0);
        assert_eq!(r.events, t.events());
    }
}
