//! Write-combining buffers, one queue of live entries per thread.
//!
//! Each thread's queue holds its non-temporal-store snapshots in
//! arrival order, at most one per line; the machine's overflow rule
//! keeps it at `wcb_entries` entries. Beside the queues, one
//! [`LineMap<u64>`] thread bitmask answers "which threads hold an entry
//! for this line?" — the idiom `Machine::dirty_index` uses for dirty
//! lines. The invariant: **bit `t` of `holders[line]` is set iff
//! `queues[t]` holds an entry for `line`.** So the *supersede* rule (a
//! cacheable store takes over durability of a line from every pending
//! non-temporal entry) is one table read, plus removing one entry from
//! each holding thread's short queue on a hit.

use crate::machine::PendingLine;
use pmem::{AddrRange, Line, LineMap};
use std::collections::VecDeque;

/// All threads' write-combining buffers plus their line index.
#[derive(Debug)]
pub(crate) struct WriteCombine {
    /// Per-thread live entries in arrival order.
    queues: Vec<VecDeque<PendingLine>>,
    /// line -> bitmask of threads with an entry for it (0 = none).
    holders: LineMap<u64>,
}

impl WriteCombine {
    /// Empty buffers for `threads` threads (at most 64, one mask bit
    /// each) over the lines of `range`.
    pub(crate) fn new(threads: usize, range: AddrRange) -> WriteCombine {
        WriteCombine {
            queues: vec![VecDeque::new(); threads],
            holders: LineMap::new(range),
        }
    }

    /// A copy of the buffers whose line index shares its pages with
    /// this one copy-on-write (see [`LineMap::fork`]).
    pub(crate) fn fork(&mut self) -> WriteCombine {
        WriteCombine {
            queues: self.queues.clone(),
            holders: self.holders.fork(),
        }
    }

    /// Install or write-combine an NT-store snapshot for thread `t`.
    /// Returns true when a fresh entry was inserted — the caller then
    /// applies the overflow rule against [`WriteCombine::live_len`].
    pub(crate) fn upsert(&mut self, t: usize, line: Line, data: [u8; 64], seq: u64) -> bool {
        // Per-thread indexes are only reachable through Machine entry
        // points that ran `validate_tid` — sized, like everything
        // per-thread, from `MachineConfig::threads`.
        debug_assert!(t < self.queues.len(), "unvalidated thread slot {t}");
        if self.holders.get(line) & (1 << t) != 0 {
            let e = self.queues[t]
                .iter_mut()
                .find(|e| e.line == line)
                .expect("a holder bit names a queued entry");
            e.data = data;
            e.seq = seq;
            false
        } else {
            self.queues[t].push_back(PendingLine { line, data, seq });
            *self.holders.slot(line) |= 1 << t;
            true
        }
    }

    /// Live entries buffered for thread `t`.
    pub(crate) fn live_len(&self, t: usize) -> usize {
        self.queues[t].len()
    }

    /// Pop thread `t`'s oldest entry (the overflow drain).
    pub(crate) fn pop_oldest_live(&mut self, t: usize) -> PendingLine {
        let e = self.queues[t]
            .pop_front()
            .expect("overflow drains a nonempty buffer");
        *self.holders.slot(e.line) &= !(1 << t);
        e
    }

    /// Drop every entry for `line`, in any thread: a cacheable store to
    /// the line now owns its durability.
    pub(crate) fn supersede(&mut self, line: Line) {
        let mut mask = self.holders.get(line);
        if mask == 0 {
            return;
        }
        *self.holders.slot(line) = 0;
        while mask != 0 {
            let q = &mut self.queues[mask.trailing_zeros() as usize];
            let i = q
                .iter()
                .position(|e| e.line == line)
                .expect("a holder bit names a queued entry");
            q.remove(i);
            mask &= mask - 1;
        }
    }

    /// Move all of thread `t`'s entries into `out` in queue (arrival)
    /// order, emptying its buffer — the fence path.
    pub(crate) fn drain_thread(&mut self, t: usize, out: &mut Vec<PendingLine>) {
        for e in self.queues[t].drain(..) {
            *self.holders.slot(e.line) &= !(1 << t);
            out.push(e);
        }
    }

    /// Clone every buffer's entries in queue order without disturbing
    /// them — what a crash capture records.
    pub(crate) fn live_entries(&self) -> Vec<Vec<PendingLine>> {
        self.queues.iter().cloned().map(Vec::from).collect()
    }

    /// `(directory slots, pages)` held by the line index.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> (usize, usize) {
        self.holders.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers for `threads` threads over the first 1024 lines.
    fn wcb(threads: usize) -> WriteCombine {
        WriteCombine::new(threads, AddrRange::new(0, 1 << 16))
    }

    fn pl(line: u64, byte: u8, seq: u64) -> (Line, [u8; 64], u64) {
        (Line(line), [byte; 64], seq)
    }

    #[test]
    fn upsert_combines_in_place() {
        let mut w = wcb(2);
        let (l, d, s) = pl(5, 1, 1);
        assert!(w.upsert(0, l, d, s));
        let (_, d2, s2) = pl(5, 2, 2);
        assert!(!w.upsert(0, l, d2, s2), "same line write-combines");
        assert_eq!(w.live_len(0), 1);
        let e = w.pop_oldest_live(0);
        assert_eq!((e.line, e.data[0], e.seq), (l, 2, 2));
        assert_eq!(w.live_len(0), 0);
    }

    #[test]
    fn supersede_hides_entry_from_every_path() {
        let mut w = wcb(1);
        for (i, byte) in [(1u64, 1u8), (2, 2), (3, 3)] {
            let (l, d, s) = pl(i, byte, i);
            w.upsert(0, l, d, s);
        }
        w.supersede(Line(1));
        assert_eq!(w.live_len(0), 2);
        assert_eq!(w.pop_oldest_live(0).line, Line(2), "dead head skipped");
        let mut out = Vec::new();
        w.drain_thread(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, Line(3));
    }

    #[test]
    fn same_line_in_two_threads_both_tracked() {
        let mut w = wcb(2);
        let (l, d, _) = pl(9, 1, 1);
        w.upsert(0, l, d, 1);
        w.upsert(1, l, d, 2);
        assert_eq!((w.live_len(0), w.live_len(1)), (1, 1));
        w.supersede(l);
        assert_eq!((w.live_len(0), w.live_len(1)), (0, 0));
        let parts = w.live_entries();
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn drain_preserves_arrival_order() {
        let mut w = wcb(1);
        for i in 1..=4u64 {
            let (l, d, s) = pl(10 - i, i as u8, i);
            w.upsert(0, l, d, s);
        }
        // Refresh line 9 (arrived first): stays in place, seq updates.
        w.upsert(0, Line(9), [9; 64], 5);
        let mut out = Vec::new();
        w.drain_thread(0, &mut out);
        let lines: Vec<u64> = out.iter().map(|e| e.line.0).collect();
        assert_eq!(lines, vec![9, 8, 7, 6]);
        assert_eq!(out[0].seq, 5);
    }

    /// Random interleavings against a naive all-live model.
    ///
    /// The model is the plainest form of the same rules: one
    /// `Vec<PendingLine>` per thread holding only live entries, where
    /// supersede is a linear `retain` over every thread. After every
    /// operation the live counts must agree, pops and drains must
    /// return the model's entries in the model's order, and the final
    /// `live_entries` must match queue-for-queue — i.e. the holder
    /// bitmask is invisible.
    mod model {
        use super::*;
        use miniprop::prelude::*;

        const THREADS: usize = 3;

        #[derive(Debug, Clone)]
        enum WcbOp {
            Upsert { t: usize, line: u64, byte: u8 },
            Supersede { line: u64 },
            PopOldest { t: usize },
            DrainThread { t: usize },
        }

        fn ops() -> impl Strategy<Value = Vec<WcbOp>> {
            collection::vec(
                prop_oneof![
                    (0usize..THREADS, 0u64..12, any::<u8>())
                        .prop_map(|(t, line, byte)| WcbOp::Upsert { t, line, byte }),
                    (0u64..12).prop_map(|line| WcbOp::Supersede { line }),
                    (0usize..THREADS).prop_map(|t| WcbOp::PopOldest { t }),
                    (0usize..THREADS).prop_map(|t| WcbOp::DrainThread { t }),
                ],
                1..120,
            )
        }

        /// The naive reference: apply `op` to all-live per-thread Vecs.
        fn model_apply(model: &mut [Vec<PendingLine>], op: &WcbOp, seq: u64) {
            match *op {
                WcbOp::Upsert { t, line, byte } => {
                    let line = Line(line);
                    let data = [byte; 64];
                    match model[t].iter_mut().find(|e| e.line == line) {
                        Some(e) => {
                            e.data = data;
                            e.seq = seq;
                        }
                        None => model[t].push(PendingLine { line, data, seq }),
                    }
                }
                WcbOp::Supersede { line } => {
                    for q in model.iter_mut() {
                        q.retain(|e| e.line != Line(line));
                    }
                }
                // Pops and drains are handled by the caller (they
                // return values to compare).
                WcbOp::PopOldest { .. } | WcbOp::DrainThread { .. } => {}
            }
        }

        fn entries_eq(a: &PendingLine, b: &PendingLine) -> bool {
            a.line == b.line && a.seq == b.seq && a.data == b.data
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn matches_naive_all_live_model(script in ops()) {
                let mut real = wcb(THREADS);
                let mut model: Vec<Vec<PendingLine>> =
                    (0..THREADS).map(|_| Vec::new()).collect();
                let mut seq = 0u64;

                for op in &script {
                    seq += 1;
                    match *op {
                        WcbOp::Upsert { t, line, byte } => {
                            let fresh = real.upsert(t, Line(line), [byte; 64], seq);
                            let model_fresh =
                                !model[t].iter().any(|e| e.line == Line(line));
                            prop_assert_eq!(fresh, model_fresh);
                            model_apply(&mut model, op, seq);
                        }
                        WcbOp::Supersede { line } => {
                            real.supersede(Line(line));
                            model_apply(&mut model, op, seq);
                        }
                        WcbOp::PopOldest { t } => {
                            // Only legal with a positive live count.
                            if model[t].is_empty() {
                                prop_assert_eq!(real.live_len(t), 0);
                                continue;
                            }
                            let got = real.pop_oldest_live(t);
                            let want = model[t].remove(0);
                            prop_assert!(entries_eq(&got, &want));
                        }
                        WcbOp::DrainThread { t } => {
                            let mut got = Vec::new();
                            real.drain_thread(t, &mut got);
                            let want = std::mem::take(&mut model[t]);
                            prop_assert_eq!(got.len(), want.len());
                            for (g, w) in got.iter().zip(&want) {
                                prop_assert!(entries_eq(g, w));
                            }
                        }
                    }
                    // The live-entry sets agree after every step.
                    for (t, mq) in model.iter().enumerate() {
                        prop_assert_eq!(real.live_len(t), mq.len());
                    }
                }

                // Crash path: every buffer, live entries in queue order.
                let got = real.live_entries();
                prop_assert_eq!(got.len(), model.len());
                for (gq, wq) in got.iter().zip(&model) {
                    prop_assert_eq!(gq.len(), wq.len());
                    for (g, w) in gq.iter().zip(wq.iter()) {
                        prop_assert!(entries_eq(g, w));
                    }
                }
            }
        }
    }

    #[test]
    fn queues_hold_only_live_entries() {
        let mut w = wcb(1);
        for i in 0..64u64 {
            let (l, d, s) = pl(i, i as u8, i + 1);
            w.upsert(0, l, d, s);
        }
        for i in 0..60u64 {
            w.supersede(Line(i));
        }
        assert_eq!(w.live_len(0), 4);
        assert_eq!(w.queues[0].len(), 4, "superseded entries are gone");
        let mut out = Vec::new();
        w.drain_thread(0, &mut out);
        assert_eq!(out.len(), 4);
    }
}
