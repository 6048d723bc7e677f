//! Machine-level elision plans: skip planned flushes/fences by ordinal.
//!
//! The `pmcheck` rewrite pass decides *which* redundant flushes and
//! no-work fences a trace can lose; this module lets a live machine
//! actually not execute them, so the crash campaign can re-run a
//! workload under the optimized schedule and prove recovery still
//! works. Trace events carry no store payloads, so an optimized trace
//! cannot be replayed into a machine directly — instead the workload
//! is re-executed deterministically and the machine skips the N-th
//! flush / M-th fence (1-based, counted from [`Machine::set_elide_plan`]
//! (crate::Machine::set_elide_plan)), which is exactly the event the
//! checker flagged because the traced and re-executed runs issue
//! persistence instructions in the same order.
//!
//! The machine keeps a veto: a planned flush is only skipped when its
//! line is clean in every thread's cache, and a planned fence only
//! when the issuing thread has no pending `clwb` snapshot and no live
//! write-combining entry — i.e. when the instruction is a machine-level
//! no-op apart from its cost. The checker sees the trace from arming
//! onward while the machine carries state from untraced setup, so a
//! site the checker calls redundant can still be load-bearing in the
//! machine; the veto counters in [`ElideStats`] make that visible
//! instead of risking durability.

/// Which persistence instructions to skip, as 1-based ordinals counted
/// per kind from the moment the plan is armed.
#[derive(Debug, Clone, Default)]
pub struct ElidePlan {
    /// Sorted, deduplicated flush ordinals.
    flushes: Vec<u64>,
    /// Sorted, deduplicated fence ordinals.
    fences: Vec<u64>,
}

/// `ordinals` sorted and deduplicated, for `binary_search`.
fn sorted(ordinals: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = ordinals.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

impl ElidePlan {
    /// A plan skipping the given flush and fence ordinals (1-based;
    /// the first `clwb` after arming is flush ordinal 1, and
    /// `sfence`/`sfence_durable` share one fence counter in issue
    /// order).
    pub fn new(
        flushes: impl IntoIterator<Item = u64>,
        fences: impl IntoIterator<Item = u64>,
    ) -> ElidePlan {
        ElidePlan {
            flushes: sorted(flushes),
            fences: sorted(fences),
        }
    }

    /// True when the plan skips nothing.
    pub fn is_empty(&self) -> bool {
        self.flushes.is_empty() && self.fences.is_empty()
    }

    pub(crate) fn wants_flush(&self, ordinal: u64) -> bool {
        self.flushes.binary_search(&ordinal).is_ok()
    }

    pub(crate) fn wants_fence(&self, ordinal: u64) -> bool {
        self.fences.binary_search(&ordinal).is_ok()
    }
}

/// What an armed [`ElidePlan`] did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElideStats {
    /// Planned flushes actually skipped (line clean everywhere).
    pub flushes_elided: u64,
    /// Planned fences actually skipped (nothing pending to retire).
    pub fences_elided: u64,
    /// Planned flushes executed anyway because the line was dirty in
    /// some cache — untraced setup state the checker could not see.
    pub flush_vetoes: u64,
    /// Planned fences executed anyway because the thread had pending
    /// `clwb` snapshots or live write-combining entries.
    pub fence_vetoes: u64,
}

impl ElideStats {
    /// Total skipped instructions.
    pub fn elided_total(&self) -> u64 {
        self.flushes_elided + self.fences_elided
    }
}

/// The machine-side armed state: the plan plus per-kind ordinals seen.
#[derive(Debug)]
pub(crate) struct ElideState {
    pub(crate) plan: ElidePlan,
    pub(crate) seen_flushes: u64,
    pub(crate) seen_fences: u64,
    pub(crate) stats: ElideStats,
}

impl ElideState {
    pub(crate) fn new(plan: ElidePlan) -> ElideState {
        ElideState {
            plan,
            seen_flushes: 0,
            seen_fences: 0,
            stats: ElideStats::default(),
        }
    }
}
