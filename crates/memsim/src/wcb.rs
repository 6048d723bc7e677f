//! Write-combining buffers with an O(1) line-occupancy index.
//!
//! The machine used to model each thread's WCB as a bare
//! `VecDeque<PendingLine>`, which made the *supersede* rule — a
//! cacheable store takes over durability of a line from any pending
//! non-temporal entry — an O(threads × entries) `retain` scan on every
//! PM store line. This module keeps the queues, but adds a global
//! `line → holders` index so supersede is one hash removal.
//!
//! The core invariant: **an entry `e` in `queues[t]` is live iff
//! `index[e.line]` records `(t, e.seq)`**, and `live[t]` counts exactly
//! the live entries of `queues[t]`. Superseding therefore never touches
//! a queue — it just drops the index entry, leaving a dead ("tombstone")
//! element to be skipped on drain and reclaimed by compaction. All
//! timing-visible decisions (the overflow check, the drain set and its
//! order) are functions of the live entries only, so the model behaves
//! bit-identically to the old all-live queues.

use crate::machine::PendingLine;
use pmem::{FxHashMap, Line};
use std::collections::VecDeque;

/// The threads holding a live entry for one line, with each entry's
/// snapshot sequence number. One holder is overwhelmingly the common
/// case (distinct threads rarely NT-store the same line unfenced).
#[derive(Debug, Clone)]
enum Holders {
    One(u32, u64),
    Many(Vec<(u32, u64)>),
}

fn holders_contain(index: &FxHashMap<Line, Holders>, line: Line, t: usize, seq: u64) -> bool {
    match index.get(&line) {
        Some(Holders::One(ht, s)) => *ht as usize == t && *s == seq,
        Some(Holders::Many(v)) => v.iter().any(|(ht, s)| *ht as usize == t && *s == seq),
        None => false,
    }
}

/// All threads' write-combining buffers plus the occupancy index.
#[derive(Debug)]
pub(crate) struct WriteCombine {
    /// Per-thread entries in arrival order; may contain dead entries.
    queues: Vec<VecDeque<PendingLine>>,
    /// Live-entry count per thread — the overflow check's input.
    live: Vec<usize>,
    /// line → live holders (see the module invariant).
    index: FxHashMap<Line, Holders>,
}

impl WriteCombine {
    pub(crate) fn new(threads: usize) -> WriteCombine {
        WriteCombine {
            queues: (0..threads).map(|_| VecDeque::new()).collect(),
            live: vec![0; threads],
            index: FxHashMap::default(),
        }
    }

    /// Sequence number of thread `t`'s live entry for `line`, if any.
    fn holder_seq(&self, line: Line, t: usize) -> Option<u64> {
        match self.index.get(&line)? {
            Holders::One(ht, s) if *ht as usize == t => Some(*s),
            Holders::One(..) => None,
            Holders::Many(v) => v.iter().find(|(ht, _)| *ht as usize == t).map(|&(_, s)| s),
        }
    }

    /// Record that thread `t`'s live entry for `line` now has `seq`.
    fn set_holder(&mut self, line: Line, t: usize, seq: u64) {
        match self.index.get_mut(&line) {
            None => {
                self.index.insert(line, Holders::One(t as u32, seq));
            }
            Some(Holders::One(ht, s)) if *ht as usize == t => *s = seq,
            Some(h) => {
                let mut v = match h {
                    Holders::One(ot, os) => vec![(*ot, *os)],
                    Holders::Many(v) => std::mem::take(v),
                };
                match v.iter_mut().find(|(ht, _)| *ht as usize == t) {
                    Some((_, s)) => *s = seq,
                    None => v.push((t as u32, seq)),
                }
                *h = Holders::Many(v);
            }
        }
    }

    fn remove_holder(&mut self, line: Line, t: usize) {
        match self.index.get_mut(&line) {
            Some(Holders::One(ht, _)) if *ht as usize == t => {
                self.index.remove(&line);
            }
            Some(Holders::Many(v)) => {
                v.retain(|(ht, _)| *ht as usize != t);
                match v.len() {
                    0 => {
                        self.index.remove(&line);
                    }
                    1 => {
                        let (ht, s) = v[0];
                        self.index.insert(line, Holders::One(ht, s));
                    }
                    _ => {}
                }
            }
            _ => {}
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
        if let Some(old_seq) = self.holder_seq(line, t) {
            let e = self.queues[t]
                .iter_mut()
                .find(|e| e.seq == old_seq && e.line == line)
                .expect("index names a queued entry");
            e.data = data;
            e.seq = seq;
            self.set_holder(line, t, seq);
            false
        } else {
            self.queues[t].push_back(PendingLine { line, data, seq });
            self.live[t] += 1;
            self.set_holder(line, t, seq);
            true
        }
    }

    /// Live entries buffered for thread `t`.
    pub(crate) fn live_len(&self, t: usize) -> usize {
        self.live[t]
    }

    /// Pop thread `t`'s oldest live entry (the overflow drain). Dead
    /// entries passed over on the way are discarded for free.
    pub(crate) fn pop_oldest_live(&mut self, t: usize) -> PendingLine {
        loop {
            let e = self.queues[t]
                .pop_front()
                .expect("positive live count implies a queued live entry");
            if self.holder_seq(e.line, t) == Some(e.seq) {
                self.remove_holder(e.line, t);
                self.live[t] -= 1;
                return e;
            }
        }
    }

    /// Kill every live entry for `line`, in any thread: a cacheable
    /// store to the line now owns its durability. O(holders), which is
    /// O(1) in every practical run.
    pub(crate) fn supersede(&mut self, line: Line) {
        // Every cacheable store line asks; most runs of stores find no
        // non-temporal entry anywhere, and skip the hash.
        if self.index.is_empty() {
            return;
        }
        let Some(h) = self.index.remove(&line) else {
            return;
        };
        match h {
            Holders::One(t, _) => self.superseded_in(t as usize),
            Holders::Many(v) => {
                for (t, _) in v {
                    self.superseded_in(t as usize);
                }
            }
        }
    }

    fn superseded_in(&mut self, t: usize) {
        self.live[t] -= 1;
        // Dead entries accumulate only through supersede; compact when
        // they dominate so queue scans stay O(live).
        if self.queues[t].len() > 2 * self.live[t] + 8 {
            let index = &self.index;
            self.queues[t].retain(|e| holders_contain(index, e.line, t, e.seq));
        }
    }

    /// Move all of thread `t`'s live entries into `out` in queue
    /// (arrival) order, emptying its buffer — the fence path.
    pub(crate) fn drain_thread(&mut self, t: usize, out: &mut Vec<PendingLine>) {
        let mut q = std::mem::take(&mut self.queues[t]);
        for e in q.drain(..) {
            if holders_contain(&self.index, e.line, t, e.seq) {
                self.remove_holder(e.line, t);
                out.push(e);
            }
        }
        self.live[t] = 0;
        self.queues[t] = q; // hand the allocation back
    }

    /// Clone every buffer's live entries in queue order without
    /// disturbing them — the mid-run crash-capture path (must return
    /// exactly what [`WriteCombine::take_all_live`] would).
    pub(crate) fn live_entries(&self) -> Vec<Vec<PendingLine>> {
        self.queues
            .iter()
            .enumerate()
            .map(|(t, q)| {
                q.iter()
                    .filter(|e| holders_contain(&self.index, e.line, t, e.seq))
                    .cloned()
                    .collect()
            })
            .collect()
    }

    /// Consume every buffer for a crash: per-thread live entries in
    /// queue order (what the old bare queues held).
    pub(crate) fn take_all_live(&mut self) -> Vec<Vec<PendingLine>> {
        let index = std::mem::take(&mut self.index);
        for l in &mut self.live {
            *l = 0;
        }
        self.queues
            .iter_mut()
            .enumerate()
            .map(|(t, q)| {
                q.drain(..)
                    .filter(|e| holders_contain(&index, e.line, t, e.seq))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(line: u64, byte: u8, seq: u64) -> (Line, [u8; 64], u64) {
        (Line(line), [byte; 64], seq)
    }

    #[test]
    fn upsert_combines_in_place() {
        let mut w = WriteCombine::new(2);
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
        let mut w = WriteCombine::new(1);
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
        let mut w = WriteCombine::new(2);
        let (l, d, _) = pl(9, 1, 1);
        w.upsert(0, l, d, 1);
        w.upsert(1, l, d, 2);
        assert_eq!((w.live_len(0), w.live_len(1)), (1, 1));
        w.supersede(l);
        assert_eq!((w.live_len(0), w.live_len(1)), (0, 0));
        let parts = w.take_all_live();
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn drain_preserves_arrival_order() {
        let mut w = WriteCombine::new(1);
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
    /// The model is the representation this module replaced: one
    /// `Vec<PendingLine>` per thread holding only live entries, where
    /// supersede is a linear `retain`. After every operation the live
    /// counts must agree, pops and drains must return the model's
    /// entries in the model's order, and the final `take_all_live`
    /// must match queue-for-queue — i.e. tombstones plus compaction
    /// are invisible.
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
                let mut real = WriteCombine::new(THREADS);
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
                let got = real.take_all_live();
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
    fn compaction_keeps_only_live() {
        let mut w = WriteCombine::new(1);
        for i in 0..64u64 {
            let (l, d, s) = pl(i, i as u8, i + 1);
            w.upsert(0, l, d, s);
        }
        for i in 0..60u64 {
            w.supersede(Line(i));
        }
        assert_eq!(w.live_len(0), 4);
        assert!(
            w.queues[0].len() <= 2 * 4 + 8,
            "compaction bounded the queue"
        );
        let mut out = Vec::new();
        w.drain_thread(0, &mut out);
        assert_eq!(out.len(), 4);
    }
}
