//! Property tests for the happens-before engine (`pmcheck::hb`).
//!
//! Checked over random small traces: the HB relation is a strict
//! partial order (irreflexive, antisymmetric, transitive), it always
//! contains per-thread program order, and the vector-clock comparison
//! agrees exactly with reachability over the explicit edge list
//! (program order + release→acquire) the recording engine emits.
//!
//! The traces come from `common`: 1–70 sparse thread ids and stores
//! that straddle a 4 KiB page boundary. On top of the order
//! properties, the relation must not move when the same operations
//! are relocated — to other lines and pages (page-granular line
//! interning aliases nothing, wherever a store's lines cross a page
//! end) or to later thread slots (the per-thread line lists and the clocks'
//! spilled components have no thread-count cliff).

mod common;

use common::{build, build_at, write_ops, Layout, STRADDLING};
use miniprop::prelude::*;
use pmcheck::check_events;
use pmcheck::hb::{EpochGraph, HbIndex};
use pmtrace::{Category, Tid, TraceBuffer};

/// `reach[a][b]` ⇔ `b` is reachable from `a` over the explicit HB
/// edges (one or more hops) — the ground truth the clocks summarize.
fn reachability(idx: &HbIndex) -> Vec<Vec<bool>> {
    let n = idx.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in idx.edges() {
        adj[*a as usize].push(*b as usize);
    }
    let mut reach = vec![vec![false; n]; n];
    for start in 0..n {
        let mut stack: Vec<usize> = adj[start].clone();
        while let Some(v) = stack.pop() {
            if !reach[start][v] {
                reach[start][v] = true;
                stack.extend(adj[v].iter().copied());
            }
        }
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Irreflexive and antisymmetric: no event precedes itself, and no
    /// two events precede each other.
    #[test]
    fn hb_is_irreflexive_and_antisymmetric((threads, ops) in write_ops(40)) {
        let events = build(threads, &ops);
        let idx = HbIndex::of(&events);
        for a in 0..idx.len() {
            prop_assert!(!idx.happens_before(a, a), "event {a} precedes itself");
            for b in (a + 1)..idx.len() {
                prop_assert!(
                    !(idx.happens_before(a, b) && idx.happens_before(b, a)),
                    "events {a} and {b} precede each other"
                );
            }
        }
    }

    /// Transitive: a ≺ b and b ≺ c imply a ≺ c.
    #[test]
    fn hb_is_transitive((threads, ops) in write_ops(40)) {
        let events = build(threads, &ops);
        let idx = HbIndex::of(&events);
        let n = idx.len();
        for a in 0..n {
            for b in 0..n {
                if !idx.happens_before(a, b) {
                    continue;
                }
                for c in 0..n {
                    if idx.happens_before(b, c) {
                        prop_assert!(
                            idx.happens_before(a, c),
                            "{a} ≺ {b} ≺ {c} but not {a} ≺ {c}"
                        );
                    }
                }
            }
        }
    }

    /// Per-thread program order is always contained in HB.
    #[test]
    fn hb_contains_program_order((threads, ops) in write_ops(40)) {
        let events = build(threads, &ops);
        let idx = HbIndex::of(&events);
        for a in 0..events.len() {
            for b in (a + 1)..events.len() {
                if events[a].tid() == events[b].tid() {
                    prop_assert!(
                        idx.happens_before(a, b),
                        "program order {a} → {b} (tid {}) lost",
                        events[a].tid()
                    );
                }
            }
        }
    }

    /// The vector-clock comparison agrees with edge-reachability on
    /// every pair: the clocks are a sound *and* complete summary of
    /// the explicit ordering edges.
    #[test]
    fn hb_clocks_agree_with_edge_reachability((threads, ops) in write_ops(40)) {
        let events = build(threads, &ops);
        let idx = HbIndex::of(&events);
        let reach = reachability(&idx);
        for (a, row) in reach.iter().enumerate() {
            for (b, &reachable) in row.iter().enumerate() {
                if a == b {
                    continue;
                }
                prop_assert_eq!(
                    idx.happens_before(a, b),
                    reachable,
                    "clock vs reachability disagree on ({}, {})", a, b
                );
            }
        }
    }

    /// Which lines the slots are — inside one page, across a page
    /// boundary, a page or a page and a line apart — and which thread
    /// slots the threads got changes neither the relation, nor the
    /// epoch graph, nor what the checker finds.
    #[test]
    fn hb_is_invariant_under_relocation((threads, ops) in write_ops(40)) {
        let relation = |layout: Layout| {
            let events = build_at(threads, &ops, layout);
            let skip = 2 * usize::from(layout.bystanders);
            let idx = HbIndex::of(&events);
            let n = idx.len() - skip;
            let before: Vec<bool> = (0..n * n)
                .map(|i| idx.happens_before(skip + i / n, skip + i % n))
                .collect();
            let graph = EpochGraph::build(&events[skip..]).to_json("x").to_pretty();
            let findings: Vec<_> = check_events(&events[skip..])
                .findings
                .iter()
                .map(|f| (f.rule, f.severity, f.tid, f.at_ns, f.epoch, f.tx, f.at_index))
                .collect();
            (before, format!("{graph}\n{findings:?}"))
        };
        let contiguous = relation(STRADDLING);
        for first_line in [64 * 9 + 10, 64 * 9 + 58, 64 * 9 + 63] {
            let moved = relation(Layout { first_line, ..STRADDLING });
            prop_assert!(moved == contiguous, "contiguous slots from line {first_line}");
        }
        // Stores reach at most three lines past their slot, so slots
        // 64 or 65 lines apart never share a line — and share a page
        // offset only in the first case.
        let apart = relation(Layout { stride: 64, ..STRADDLING });
        let moved = relation(Layout { stride: 65, ..STRADDLING });
        prop_assert!(moved == apart, "slots 65 lines apart");
        for bystanders in [7, 8, 63, 64, 70] {
            let (before, _) = relation(Layout { bystanders, ..STRADDLING });
            prop_assert!(before == contiguous.0, "{bystanders} earlier thread slots");
        }
    }

    /// HB never orders two events of different threads with no
    /// communication: a trace with thread-disjoint lines and no
    /// cross-thread release keeps the threads fully concurrent.
    #[test]
    fn hb_orders_nothing_without_communication(
        n0 in 1usize..6, n1 in 1usize..6
    ) {
        let mut t = TraceBuffer::new();
        let mut now = 0;
        for i in 0..n0 {
            now += 2;
            t.pm_store(Tid(0), i as u64 * 64, 8, false, Category::UserData, now);
            now += 2;
            t.fence(Tid(0), now);
        }
        for i in 0..n1 {
            now += 2;
            t.pm_store(Tid(1), 4096 + i as u64 * 64, 8, false, Category::UserData, now);
            now += 2;
            t.fence(Tid(1), now);
        }
        let evs = t.into_events();
        let idx = HbIndex::of(&evs);
        for a in 0..evs.len() {
            for b in 0..evs.len() {
                if evs[a].tid() != evs[b].tid() {
                    prop_assert!(
                        !idx.happens_before(a, b),
                        "disjoint threads ordered: {a} ≺ {b}"
                    );
                }
            }
        }
    }
}
