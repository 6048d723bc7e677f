//! The metadata undo journal.

use memsim::{Machine, PmWriter};
use pmem::Addr;
use pmtrace::{Category, Tid};

const J_MAGIC: u64 = 0x504d_4653_4a4e_4c21; // "PMFSJNL!"
const ENTRY_VALID: u32 = 0x5566_7788;
/// Fixed journal slot: header (valid u32, len u32, addr u64, seq u64)
/// plus up to 136 bytes of old metadata.
const SLOT_BYTES: u64 = 160;
const SLOT_HDR: u64 = 24;
pub(crate) const MAX_OLD: usize = (SLOT_BYTES - SLOT_HDR) as usize;
pub(crate) const STATUS_IDLE: u32 = 0;
pub(crate) const STATUS_UNCOMMITTED: u32 = 1;
pub(crate) const STATUS_COMMITTED: u32 = 2;

/// PMFS's undo journal for metadata: "PMFS ... employs an undo log to
/// ensure metadata consistency", altering "the status in the log
/// descriptor from UNCOMMITTED to COMMITTED after a successful commit"
/// (Sections 3.1, 5.1).
///
/// The journal is a ring of fixed-size slots. Entries are written in
/// their own epochs (the paper's PMFS singleton population), the commit
/// marker flips the descriptor line written at `begin_op` (a
/// self-dependency), and — because the log is a ring — each entry is
/// *cleared lazily at the start of the next operation*, long after its
/// own line was written. At MySQL's and Exim's operation rates those
/// clears fall outside the 50 µs dependency window, which is why the
/// paper measures far fewer self-dependencies for them than for NFS,
/// whose back-to-back operations keep reusing journal and metadata
/// lines within the window.
#[derive(Debug)]
pub(crate) struct Journal {
    base: Addr,
    n_slots: u64,
    /// Next slot index to write (volatile; recovery rescans).
    cursor: u64,
    /// Monotone entry sequence number (orders rollback).
    seq: u64,
    /// Slots written by the in-flight / most recent op, pending lazy
    /// clearing.
    entries: Vec<Addr>,
}

impl Journal {
    pub(crate) fn new(base: Addr, size: u64) -> Journal {
        assert!(size >= 64 + 4 * SLOT_BYTES, "journal too small");
        Journal {
            base,
            n_slots: (size - 64) / SLOT_BYTES,
            cursor: 0,
            seq: 1,
            entries: Vec::new(),
        }
    }

    fn slot_addr(&self, idx: u64) -> Addr {
        self.base + 64 + idx * SLOT_BYTES
    }

    pub(crate) fn format(&self, m: &mut Machine, tid: Tid) {
        let mut w = PmWriter::new(tid);
        w.write_u64(m, self.base, J_MAGIC, Category::LogMeta);
        w.write_u32(m, self.base + 8, STATUS_IDLE, Category::LogMeta);
        w.ordering_fence(m);
    }

    pub(crate) fn is_formatted(&self, m: &mut Machine, tid: Tid) -> bool {
        m.load_u64(tid, self.base) == J_MAGIC
    }

    /// Begin a metadata transaction: lazily clear the previous
    /// operation's entries (each in its own epoch), then flip the
    /// descriptor to UNCOMMITTED.
    pub(crate) fn begin_op(&mut self, m: &mut Machine, w: &mut PmWriter) {
        for at in std::mem::take(&mut self.entries) {
            w.write_u32(m, at, 0, Category::LogMeta);
            w.ordering_fence(m);
        }
        w.write_u32(m, self.base + 8, STATUS_UNCOMMITTED, Category::LogMeta);
        w.ordering_fence(m);
    }

    /// Log the current (old) contents of a metadata range before it is
    /// overwritten. One epoch per entry.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds a slot or the operation needs more
    /// slots than the ring holds.
    pub(crate) fn log_old(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr, len: usize) {
        assert!(
            len <= MAX_OLD,
            "metadata range of {len} bytes exceeds a journal slot"
        );
        assert!(
            (self.entries.len() as u64) < self.n_slots,
            "operation needs more than {} journal slots",
            self.n_slots
        );
        let tid = w.tid();
        let old = m.load_vec(tid, addr, len);
        let at = self.slot_addr(self.cursor);
        let mut hdr = [0u8; SLOT_HDR as usize];
        hdr[0..4].copy_from_slice(&ENTRY_VALID.to_le_bytes());
        hdr[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        hdr[8..16].copy_from_slice(&addr.to_le_bytes());
        hdr[16..24].copy_from_slice(&self.seq.to_le_bytes());
        w.write(m, at, &hdr, Category::UndoLog);
        w.write(m, at + SLOT_HDR, &old, Category::UndoLog);
        w.ordering_fence(m);
        self.entries.push(at);
        self.cursor = (self.cursor + 1) % self.n_slots;
        self.seq += 1;
    }

    /// Commit: make the metadata (and any caller-pending data) durable,
    /// then flip the descriptor to COMMITTED — the line `begin_op`
    /// wrote, an intra-op self-dependency. Entries stay valid until the
    /// next `begin_op` clears them.
    pub(crate) fn end_op(&mut self, m: &mut Machine, w: &mut PmWriter) {
        w.durability_fence(m);
        w.write_u32(m, self.base + 8, STATUS_COMMITTED, Category::LogMeta);
        w.ordering_fence(m);
    }

    /// Mount-time recovery: roll back an UNCOMMITTED journal, then
    /// clear every valid slot. Returns whether a rollback happened.
    pub(crate) fn recover(&mut self, m: &mut Machine, tid: Tid) -> bool {
        let status = m.load_u32(tid, self.base + 8);
        let mut w = PmWriter::new(tid);
        // Collect every valid slot (the in-flight op's entries).
        let mut valid: Vec<(u64, Addr, Vec<u8>)> = Vec::new();
        let mut max_seq = 0;
        for idx in 0..self.n_slots {
            let at = self.slot_addr(idx);
            if m.load_u32(tid, at) != ENTRY_VALID {
                continue;
            }
            let len = (m.load_u32(tid, at + 4) as usize).min(MAX_OLD);
            let target = m.load_u64(tid, at + 8);
            let seq = m.load_u64(tid, at + 16);
            max_seq = max_seq.max(seq);
            let old = m.load_vec(tid, at + SLOT_HDR, len);
            valid.push((seq, target, old));
        }
        let rolled_back = status == STATUS_UNCOMMITTED && !valid.is_empty();
        if status == STATUS_UNCOMMITTED {
            valid.sort_unstable_by_key(|(seq, _, _)| *seq);
            for (_, target, old) in valid.iter().rev() {
                w.write(m, *target, old, Category::FsMeta);
            }
            w.durability_fence(m);
        }
        for idx in 0..self.n_slots {
            let at = self.slot_addr(idx);
            if m.load_u32(tid, at) == ENTRY_VALID {
                w.write_u32(m, at, 0, Category::LogMeta);
            }
        }
        w.write_u32(m, self.base + 8, STATUS_IDLE, Category::LogMeta);
        w.ordering_fence(m);
        self.entries.clear();
        self.cursor = 0;
        self.seq = max_seq + 1;
        rolled_back
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
        let mut j = Journal::new(base, 64 + 4 * SLOT_BYTES);
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
        j.log_old(&mut m, &mut w, meta, MAX_OLD + 1);
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
