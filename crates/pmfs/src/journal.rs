//! The metadata undo journal: PMFS's protocol over a [`pmtx::LogRing`].

use memsim::{Machine, PmWriter};
use pmem::Addr;
use pmtrace::{Category, Tid};
use pmtx::{ClearPolicy, LogRing, RingFormat, TxError, TxStatus};

/// A journal record holds up to 136 bytes of old metadata.
const JOURNAL: RingFormat = RingFormat {
    magic: 0x504d_4653_4a4e_4c21, // "PMFSJNL!"
    valid: 0x5566_7788,
    record_bytes: 160,
};

/// PMFS's undo journal for metadata: "PMFS ... employs an undo log to
/// ensure metadata consistency", altering "the status in the log
/// descriptor from UNCOMMITTED to COMMITTED after a successful commit"
/// (Sections 3.1, 5.1). UNCOMMITTED is the ring's
/// [`TxStatus::Active`].
///
/// The journal is a ring of fixed-size records. Entries are written in
/// their own epochs (the paper's PMFS singleton population), the commit
/// marker flips the descriptor line written at `begin_op` (a
/// self-dependency), and — because the log is a ring — each entry is
/// *cleared lazily at the start of the next operation*, long after its
/// own line was written. At MySQL's and Exim's operation rates those
/// clears fall outside the 50 µs dependency window, which is why the
/// paper measures far fewer self-dependencies for them than for NFS,
/// whose back-to-back operations keep reusing journal and metadata
/// lines within the window.
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    ring: LogRing,
}

impl Journal {
    pub(crate) fn new(base: Addr, size: u64) -> Journal {
        Journal {
            ring: LogRing::new(JOURNAL, base, size),
        }
    }

    pub(crate) fn format(&self, m: &mut Machine, tid: Tid) {
        self.ring.format(m, tid);
    }

    pub(crate) fn is_formatted(&self, m: &mut Machine, tid: Tid) -> bool {
        self.ring.is_formatted(m, tid)
    }

    /// Begin a metadata transaction: lazily clear the previous
    /// operation's entries (each in its own epoch), then flip the
    /// descriptor to UNCOMMITTED.
    pub(crate) fn begin_op(&mut self, m: &mut Machine, w: &mut PmWriter) {
        self.ring.clear_entries(m, w, ClearPolicy::PerEntry);
        self.ring.set_status(m, w, TxStatus::Active);
        w.ordering_fence(m);
    }

    /// Log the current (old) contents of a metadata range before it is
    /// overwritten. One epoch per entry.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds a record or the operation needs more
    /// records than the ring holds.
    pub(crate) fn log_old(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr, len: usize) {
        let old = m.load_vec(w.tid(), addr, len);
        match self.ring.append(m, w, addr, &old, false, Category::UndoLog) {
            Ok(()) => w.ordering_fence(m),
            Err(TxError::EntryTooLarge { len }) => {
                panic!("metadata range of {len} bytes exceeds a journal slot")
            }
            Err(e) => panic!("operation needs more journal slots than the ring holds: {e}"),
        }
    }

    /// Commit: make the metadata (and any caller-pending data) durable,
    /// then flip the descriptor to COMMITTED — the line `begin_op`
    /// wrote, an intra-op self-dependency. Entries stay valid until the
    /// next `begin_op` clears them.
    pub(crate) fn end_op(&mut self, m: &mut Machine, w: &mut PmWriter) {
        w.durability_fence(m);
        self.ring.set_status(m, w, TxStatus::Committed);
        w.ordering_fence(m);
    }

    /// Mount-time recovery: roll back an UNCOMMITTED journal, then
    /// clear every valid record and go idle under one fence. Returns
    /// whether a rollback happened.
    pub(crate) fn recover(&mut self, m: &mut Machine, tid: Tid) -> bool {
        let uncommitted = self.ring.status(m, tid) == TxStatus::Active;
        let records = self.ring.scan(m, tid);
        let mut w = PmWriter::new(tid);
        if uncommitted {
            for r in records.iter().rev() {
                w.write(m, r.target, &r.data, Category::FsMeta);
            }
            w.durability_fence(m);
        }
        self.ring.truncate(m, &mut w);
        self.ring.set_status(m, &mut w, TxStatus::Idle);
        w.ordering_fence(m);
        if let Some(last) = records.last() {
            self.ring.resume_after(last.seq);
        }
        uncommitted && !records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};

    fn setup() -> (Machine, Journal, Addr) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        let j = Journal::new(base, 64 * 1024);
        j.format(&mut m, Tid(0));
        (m, j, base + (1 << 20))
    }

    #[test]
    fn committed_op_keeps_new_values() {
        let (mut m, mut j, meta) = setup();
        let tid = Tid(0);
        let mut w = PmWriter::new(tid);
        m.store_u64(tid, meta, 1, Category::FsMeta);
        m.clwb(tid, meta);
        m.sfence(tid);
        j.begin_op(&mut m, &mut w);
        j.log_old(&mut m, &mut w, meta, 8);
        w.write_u64(&mut m, meta, 2, Category::FsMeta);
        j.end_op(&mut m, &mut w);
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut j2 = Journal::new(m2.config().map.pm.base, 64 * 1024);
        assert!(!j2.recover(&mut m2, Tid(0)));
        assert_eq!(m2.load_u64(Tid(0), meta), 2);
    }

    #[test]
    fn uncommitted_op_rolls_back() {
        let (mut m, mut j, meta) = setup();
        let tid = Tid(0);
        let mut w = PmWriter::new(tid);
        m.store_u64(tid, meta, 1, Category::FsMeta);
        m.clwb(tid, meta);
        m.sfence(tid);
        j.begin_op(&mut m, &mut w);
        j.log_old(&mut m, &mut w, meta, 8);
        w.write_u64(&mut m, meta, 2, Category::FsMeta);
        // Crash before end_op with everything in flight persisted.
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut j2 = Journal::new(m2.config().map.pm.base, 64 * 1024);
        assert!(j2.recover(&mut m2, Tid(0)));
        assert_eq!(m2.load_u64(Tid(0), meta), 1, "old value restored");
    }

    #[test]
    fn lazy_clear_does_not_resurrect_committed_op() {
        // Op 1 commits; its entries are still valid. A crash before
        // op 2 must NOT roll op 1 back (status is COMMITTED).
        let (mut m, mut j, meta) = setup();
        let tid = Tid(0);
        let mut w = PmWriter::new(tid);
        m.store_u64(tid, meta, 1, Category::FsMeta);
        m.clwb(tid, meta);
        m.sfence(tid);
        j.begin_op(&mut m, &mut w);
        j.log_old(&mut m, &mut w, meta, 8);
        w.write_u64(&mut m, meta, 2, Category::FsMeta);
        j.end_op(&mut m, &mut w);
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut j2 = Journal::new(m2.config().map.pm.base, 64 * 1024);
        assert!(!j2.recover(&mut m2, Tid(0)));
        assert_eq!(m2.load_u64(Tid(0), meta), 2);
    }

    #[test]
    fn ring_wraps_and_stays_correct() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        // Tiny ring: 4 slots.
        let mut j = Journal::new(base, 64 + 4 * JOURNAL.record_bytes);
        j.format(&mut m, Tid(0));
        let meta = base + (1 << 20);
        let tid = Tid(0);
        for i in 0..20u64 {
            let mut w = PmWriter::new(tid);
            j.begin_op(&mut m, &mut w);
            j.log_old(&mut m, &mut w, meta, 8);
            w.write_u64(&mut m, meta, i, Category::FsMeta);
            j.end_op(&mut m, &mut w);
        }
        assert_eq!(m.load_u64(tid, meta), 19);
    }

    #[test]
    #[should_panic(expected = "journal slot")]
    fn oversized_range_panics() {
        let (mut m, mut j, meta) = setup();
        let mut w = PmWriter::new(Tid(0));
        j.begin_op(&mut m, &mut w);
        j.log_old(&mut m, &mut w, meta, JOURNAL.max_data() + 1);
    }

    #[test]
    fn adversarial_crash_is_all_or_nothing() {
        for seed in 0..30 {
            let (mut m, mut j, meta) = setup();
            let tid = Tid(0);
            let mut w = PmWriter::new(tid);
            m.store_u64(tid, meta, 10, Category::FsMeta);
            m.store_u64(tid, meta + 128, 10, Category::FsMeta);
            m.clwb(tid, meta);
            m.clwb(tid, meta + 128);
            m.sfence(tid);
            j.begin_op(&mut m, &mut w);
            j.log_old(&mut m, &mut w, meta, 8);
            w.write_u64(&mut m, meta, 20, Category::FsMeta);
            j.log_old(&mut m, &mut w, meta + 128, 8);
            w.write_u64(&mut m, meta + 128, 20, Category::FsMeta);
            let img = m.crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let mut j2 = Journal::new(m2.config().map.pm.base, 64 * 1024);
            j2.recover(&mut m2, Tid(0));
            assert_eq!(m2.load_u64(Tid(0), meta), 10, "seed {seed}");
            assert_eq!(m2.load_u64(Tid(0), meta + 128), 10, "seed {seed}");
        }
    }

    #[test]
    fn self_deps_only_on_descriptor_line_within_op() {
        // The ring + lazy clear leave the commit marker as the only
        // same-line rewrite inside an op (vs. the naive design where
        // every clear collides with its append).
        let (mut m, mut j, meta) = setup();
        let tid = Tid(0);
        for i in 0..10u64 {
            let mut w = PmWriter::new(tid);
            j.begin_op(&mut m, &mut w);
            j.log_old(&mut m, &mut w, meta + i * 64, 8);
            w.write_u64(&mut m, meta + i * 64, i, Category::FsMeta);
            j.end_op(&mut m, &mut w);
            m.advance_ns(500_000); // a slow, MySQL-like op rate
        }
        let deps = pmtrace::analysis::Analyzer::analyze_events(m.trace().events()).deps;
        assert!(
            deps.self_fraction() < 0.45,
            "paced PMFS ops should have few self-deps, got {}",
            deps.self_fraction()
        );
    }
}
