//! The one persistent log ring: the undo and redo engines' per-thread
//! logs, [`crate::MinTxEngine`]'s log and PMFS's metadata journal are
//! all a [`LogRing`], differing only in their [`RingFormat`].
//!
//! The ring owns the layout and the encoding — the descriptor line
//! (magic, then the [`TxStatus`] word), the fixed-size records with
//! their 24-byte header, the volatile index of live records — and
//! issues no fence of its own beyond [`ClearPolicy`]'s: each protocol
//! orders its appends, status flips and truncation itself. The undo and
//! redo engines' protocol steps that are the same for both — format,
//! recovery, retiring a transaction's log — are the free functions at
//! the end of this module.

use std::ops::Range;

use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

use crate::{ClearPolicy, TxError};

/// Record header: valid tag u32, payload length u32, target address
/// u64, sequence number u64.
const REC_HDR: u64 = 24;
/// The descriptor's status word.
const STATUS: u64 = 8;
/// [`LogRing::mark_committed`]'s sequence range, after the status word
/// in the same line.
const MARK: u64 = 16;

/// What tells one ring's bytes from another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFormat {
    /// The descriptor line's first word.
    pub magic: u64,
    /// The header word that makes a record live.
    pub valid: u32,
    /// Bytes per record, header included.
    pub record_bytes: u64,
}

impl RingFormat {
    /// Largest payload one record holds.
    pub const fn max_data(self) -> usize {
        (self.record_bytes - REC_HDR) as usize
    }
}

/// The undo and redo engines' logs.
pub(crate) const TX_LOG: RingFormat = RingFormat {
    magic: 0x504d_5458_4c4f_4721, // "PMTXLOG!"
    valid: 0xabcd_1234,
    record_bytes: 512,
};

/// Durable status of a log's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// No transaction in flight; log logically empty.
    Idle,
    /// A transaction is writing; on crash, an undo log rolls back and a
    /// redo log is discarded. PMFS's journal calls it UNCOMMITTED.
    Active,
    /// Commit marker durable; on crash, a redo log replays and an undo
    /// log is simply discarded.
    Committed,
}

impl TxStatus {
    fn to_u32(self) -> u32 {
        match self {
            TxStatus::Idle => 0,
            TxStatus::Active => 1,
            TxStatus::Committed => 2,
        }
    }

    fn from_u32(v: u32) -> TxStatus {
        match v {
            1 => TxStatus::Active,
            2 => TxStatus::Committed,
            _ => TxStatus::Idle,
        }
    }
}

/// One durable record, as a scan reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position in the ring's append order.
    pub seq: u64,
    /// The address the payload belongs to.
    pub target: Addr,
    /// The payload (an old value for undo, a new one for redo).
    pub data: Vec<u8>,
}

/// A persistent log: a descriptor line followed by a *ring* of
/// fixed-size records, as in Mnemosyne's, NVML's and PMFS's log
/// buffers. Because the append cursor keeps advancing, consecutive
/// transactions write fresh lines — a record's line is only revisited
/// by its own clear (the intra-transaction self-dependency the paper
/// attributes to "NVML sets and clears its log entries") and, much
/// later, by a wrapped-around append.
#[derive(Debug, Clone)]
pub struct LogRing {
    fmt: RingFormat,
    base: Addr,
    n_recs: u64,
    /// Volatile append cursor (record index). Recovery rescans.
    cursor: u64,
    /// Sequence number of the next record (orders recovery).
    seq: u64,
    /// Volatile index of live records: (record addr, target addr, len).
    entries: Vec<(Addr, Addr, u32)>,
}

impl LogRing {
    /// A ring of `fmt` records over `size` bytes at `base`, with an
    /// empty volatile view; [`LogRing::format`] writes its descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `size` holds fewer than four records.
    pub fn new(fmt: RingFormat, base: Addr, size: u64) -> LogRing {
        assert!(
            size >= 64 + 4 * fmt.record_bytes,
            "log ring too small: {size} bytes hold fewer than 4 records"
        );
        LogRing {
            fmt,
            base,
            n_recs: (size - 64) / fmt.record_bytes,
            cursor: 0,
            seq: 1,
            entries: Vec::new(),
        }
    }

    fn rec_addr(&self, idx: u64) -> Addr {
        self.base + 64 + idx * self.fmt.record_bytes
    }

    /// Persist the descriptor: magic, status [`TxStatus::Idle`], fence.
    pub fn format(&self, m: &mut Machine, tid: Tid) {
        let mut w = PmWriter::new(tid);
        w.write_u64(m, self.base, self.fmt.magic, Category::LogMeta);
        self.set_status(m, &mut w, TxStatus::Idle);
        w.ordering_fence(m);
    }

    /// Whether the descriptor carries this format's magic.
    pub fn is_formatted(&self, m: &mut Machine, tid: Tid) -> bool {
        m.load_u64(tid, self.base) == self.fmt.magic
    }

    /// The durable status word.
    pub fn status(&self, m: &mut Machine, tid: Tid) -> TxStatus {
        TxStatus::from_u32(m.load_u32(tid, self.base + STATUS))
    }

    /// Store the status word (a `LogMeta` store; the caller fences).
    pub fn set_status(&self, m: &mut Machine, w: &mut PmWriter, status: TxStatus) {
        w.write_u32(m, self.base + STATUS, status.to_u32(), Category::LogMeta);
    }

    /// Store [`TxStatus::Committed`] together with the sequence numbers
    /// it commits, in one store to the descriptor line — for a protocol
    /// whose records outlive their transaction, so the marker, not a
    /// clear, decides what replays. The caller fences.
    pub(crate) fn mark_committed(&self, m: &mut Machine, w: &mut PmWriter, seqs: Range<u64>) {
        let mut mark = [0u8; 24];
        mark[0..4].copy_from_slice(&TxStatus::Committed.to_u32().to_le_bytes());
        mark[8..16].copy_from_slice(&seqs.start.to_le_bytes());
        mark[16..24].copy_from_slice(&seqs.end.to_le_bytes());
        w.write(m, self.base + STATUS, &mark, Category::LogMeta);
    }

    /// The sequence numbers the durable marker commits, if the status
    /// is [`TxStatus::Committed`] (see [`LogRing::mark_committed`]).
    pub(crate) fn marked(&self, m: &mut Machine, tid: Tid) -> Option<Range<u64>> {
        (self.status(m, tid) == TxStatus::Committed)
            .then(|| m.load_u64(tid, self.base + MARK)..m.load_u64(tid, self.base + MARK + 8))
    }

    /// Whether a record of `len` bytes fits beside `pending` others.
    ///
    /// # Errors
    ///
    /// [`TxError::EntryTooLarge`] past [`RingFormat::max_data`];
    /// [`TxError::LogFull`] when the ring holds `pending` records.
    pub(crate) fn fits(&self, len: usize, pending: usize) -> Result<(), TxError> {
        if len > self.fmt.max_data() {
            return Err(TxError::EntryTooLarge { len });
        }
        if pending as u64 >= self.n_recs {
            return Err(TxError::LogFull);
        }
        Ok(())
    }

    /// Append a record: its header, then its payload, as two stores.
    /// `nt` selects non-temporal stores (Mnemosyne redo) vs. cacheable
    /// stores that `w` flushes at its next fence (NVML undo, PMFS). The
    /// caller fences — one epoch per record for the undo and redo
    /// engines and the journal, one for a whole batch in
    /// [`crate::MinTxEngine`].
    ///
    /// # The torn-record window
    ///
    /// This is the only place the workspace writes a record header.
    /// Like real PMFS/NVML/Mnemosyne it puts the validity tag in the
    /// header and writes header and payload in one epoch — but unlike
    /// production NVML it carries no checksum. So a crash *inside* that
    /// epoch can keep the header line while dropping a payload line,
    /// and a scan then returns a torn record that recovery would
    /// replay. Once the caller's fence retires, the record is whole on
    /// media and the window is closed. The crash campaign counts its
    /// points in fences for this reason; the `torn_record_window` test
    /// below shows both sides. Real systems close the window with
    /// per-record checksums; adding one here would change every trace
    /// the golden figures pin.
    ///
    /// # Errors
    ///
    /// [`TxError::EntryTooLarge`] past [`RingFormat::max_data`];
    /// [`TxError::LogFull`] when every record is live.
    pub fn append(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        target: Addr,
        data: &[u8],
        nt: bool,
        cat: Category,
    ) -> Result<(), TxError> {
        self.fits(data.len(), self.entries.len())?;
        let at = self.rec_addr(self.cursor);
        let mut header = [0u8; REC_HDR as usize];
        header[0..4].copy_from_slice(&self.fmt.valid.to_le_bytes());
        header[4..8].copy_from_slice(&(data.len() as u32).to_le_bytes());
        header[8..16].copy_from_slice(&target.to_le_bytes());
        header[16..24].copy_from_slice(&self.seq.to_le_bytes());
        if nt {
            w.write_nt(m, at, &header, cat);
            w.write_nt(m, at + REC_HDR, data, cat);
        } else {
            w.write(m, at, &header, cat);
            w.write(m, at + REC_HDR, data, cat);
        }
        self.entries.push((at, target, data.len() as u32));
        self.cursor = (self.cursor + 1) % self.n_recs;
        self.seq += 1;
        Ok(())
    }

    /// Live records: `(target addr, data)` for every entry appended
    /// since the last clear, in append order, read back from PM.
    pub(crate) fn read_entries(&self, m: &mut Machine, tid: Tid) -> Vec<(Addr, Vec<u8>)> {
        self.entries
            .iter()
            .map(|&(at, target, len)| (target, m.load_vec(tid, at + REC_HDR, len as usize)))
            .collect()
    }

    /// Clear every live record: per [`ClearPolicy::PerEntry`], "each
    /// ... in its own epoch" (Section 5.1's singleton factory); per
    /// [`ClearPolicy::Batched`], all under one fence.
    pub fn clear_entries(&mut self, m: &mut Machine, w: &mut PmWriter, policy: ClearPolicy) {
        let entries = std::mem::take(&mut self.entries);
        let any = !entries.is_empty();
        for (at, _, _) in entries {
            w.write_u32(m, at, 0, Category::LogMeta);
            if policy == ClearPolicy::PerEntry {
                w.ordering_fence(m);
            }
        }
        if policy == ClearPolicy::Batched && any {
            w.ordering_fence(m);
        }
    }

    /// Hand the live records to a marker instead of clearing them: the
    /// volatile index empties and the returned range names their
    /// sequence numbers (for [`LogRing::mark_committed`]).
    pub(crate) fn seal(&mut self) -> Range<u64> {
        let n = std::mem::take(&mut self.entries).len() as u64;
        self.seq - n..self.seq
    }

    /// Recovery-time scan of durable records: every valid record in the
    /// ring, in sequence order.
    pub fn scan(&self, m: &mut Machine, tid: Tid) -> Vec<Record> {
        let mut found = Vec::new();
        for idx in 0..self.n_recs {
            let at = self.rec_addr(idx);
            if m.load_u32(tid, at) != self.fmt.valid {
                continue;
            }
            let len = (m.load_u32(tid, at + 4) as usize).min(self.fmt.max_data());
            let target = m.load_u64(tid, at + 8);
            let seq = m.load_u64(tid, at + 16);
            let data = m.load_vec(tid, at + REC_HDR, len);
            found.push(Record { seq, target, data });
        }
        found.sort_unstable_by_key(|r| r.seq);
        found
    }

    /// Number the next record after `seq` — a recovered ring continuing
    /// the sequence its [`LogRing::scan`] found.
    pub fn resume_after(&mut self, seq: u64) {
        self.seq = seq + 1;
    }

    /// Recovery truncation: clear every valid record in the ring (the
    /// caller fences).
    pub fn truncate(&self, m: &mut Machine, w: &mut PmWriter) {
        let tid = w.tid();
        for idx in 0..self.n_recs {
            let at = self.rec_addr(idx);
            if m.load_u32(tid, at) == self.fmt.valid {
                w.write_u32(m, at, 0, Category::LogMeta);
            }
        }
    }
}

/// Split a region into `threads` equal rings of `fmt`.
pub(crate) fn carve(fmt: RingFormat, region: AddrRange, threads: u32) -> Vec<LogRing> {
    assert!(threads > 0, "need at least one thread");
    let per = region.len / threads as u64 / 64 * 64;
    assert!(
        per >= 64 + 4 * fmt.record_bytes,
        "log region too small: {} bytes / {threads} threads",
        region.len
    );
    (0..threads as u64)
        .map(|i| LogRing::new(fmt, region.base + i * per, per))
        .collect()
}

/// Format a fresh engine's per-thread rings over `region`.
pub(crate) fn format_rings(
    m: &mut Machine,
    fmt: RingFormat,
    region: AddrRange,
    threads: u32,
) -> Vec<LogRing> {
    crate::check_engine_threads(m, threads);
    let rings = carve(fmt, region, threads);
    for (i, r) in rings.iter().enumerate() {
        r.format(m, Tid(i as u32));
    }
    rings
}

/// The undo and redo engines' recovery: every ring whose durable status
/// is `replay` has its records written back — newest first when
/// `newest_first` (undo rollback), oldest first otherwise (redo
/// replay) — then each ring is truncated and goes idle, each step
/// ordered.
pub(crate) fn recover_rings(
    m: &mut Machine,
    tid: Tid,
    region: AddrRange,
    threads: u32,
    replay: TxStatus,
    newest_first: bool,
) -> Vec<LogRing> {
    crate::check_engine_threads(m, threads);
    let rings = carve(TX_LOG, region, threads);
    let mut w = PmWriter::new(tid);
    for ring in &rings {
        if ring.status(m, tid) == replay {
            let mut records = ring.scan(m, tid);
            if newest_first {
                records.reverse();
            }
            for r in records {
                w.write(m, r.target, &r.data, Category::UserData);
            }
            w.durability_fence(m);
        }
        ring.truncate(m, &mut w);
        w.ordering_fence(m);
        ring.set_status(m, &mut w, TxStatus::Idle);
        w.ordering_fence(m);
    }
    rings
}

/// Retire a transaction's log after its outcome is durable: clear the
/// live records per `policy`, then go idle in an epoch of its own.
pub(crate) fn retire(ring: &mut LogRing, m: &mut Machine, w: &mut PmWriter, policy: ClearPolicy) {
    ring.clear_entries(m, w, policy);
    ring.set_status(m, w, TxStatus::Idle);
    w.ordering_fence(m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashCounter, CrashPlan, CrashSpec, MachineConfig};

    fn setup() -> (Machine, LogRing) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        let slot = LogRing::new(TX_LOG, base, 64 * 1024);
        slot.format(&mut m, Tid(0));
        (m, slot)
    }

    /// One record, in its own epoch.
    fn put(
        m: &mut Machine,
        slot: &mut LogRing,
        target: Addr,
        data: &[u8],
        nt: bool,
    ) -> Result<(), TxError> {
        let mut w = PmWriter::new(Tid(0));
        let cat = if nt {
            Category::RedoLog
        } else {
            Category::UndoLog
        };
        slot.append(m, &mut w, target, data, nt, cat)?;
        w.ordering_fence(m);
        Ok(())
    }

    fn targets(records: &[Record]) -> Vec<Addr> {
        records.iter().map(|r| r.target).collect()
    }

    #[test]
    fn format_sets_idle() {
        let (mut m, slot) = setup();
        assert!(slot.is_formatted(&mut m, Tid(0)));
        assert_eq!(slot.status(&mut m, Tid(0)), TxStatus::Idle);
    }

    #[test]
    fn append_and_scan_round_trip() {
        let (mut m, mut slot) = setup();
        put(&mut m, &mut slot, 0x1_2345_6780, b"hello", true).unwrap();
        put(&mut m, &mut slot, 0x1_2345_6800, b"world!!!", false).unwrap();
        let got = slot.scan(&mut m, Tid(0));
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, got[0].target), (1, 0x1_2345_6780));
        assert_eq!(got[0].data, b"hello");
        assert_eq!((got[1].seq, got[1].target), (2, 0x1_2345_6800));
        assert_eq!(got[1].data, b"world!!!");
    }

    #[test]
    fn clear_entries_stops_scan() {
        let (mut m, mut slot) = setup();
        let mut w = PmWriter::new(Tid(0));
        put(&mut m, &mut slot, 0x1_0000_0000, &[1; 16], false).unwrap();
        slot.clear_entries(&mut m, &mut w, ClearPolicy::PerEntry);
        assert!(slot.scan(&mut m, Tid(0)).is_empty());
        assert!(slot.entries.is_empty());
    }

    #[test]
    fn ring_appends_use_fresh_records_until_wrap() {
        let (mut m, mut slot) = setup();
        let mut w = PmWriter::new(Tid(0));
        let n = slot.n_recs;
        let mut addrs = std::collections::HashSet::new();
        for i in 0..n {
            put(&mut m, &mut slot, 0x1_0000_0000 + i * 8, &[7; 8], true).unwrap();
            addrs.insert(slot.entries.last().unwrap().0);
            slot.clear_entries(&mut m, &mut w, ClearPolicy::PerEntry);
        }
        assert_eq!(
            addrs.len() as u64,
            n,
            "every record slot used once before wrap"
        );
        // Next append wraps to the first record.
        put(&mut m, &mut slot, 0x1_0000_0000, &[9; 8], true).unwrap();
        assert_eq!(slot.entries[0].0, slot.rec_addr(0));
    }

    #[test]
    fn reuse_after_clear_does_not_resurrect_old_entries() {
        let (mut m, mut slot) = setup();
        let mut w = PmWriter::new(Tid(0));
        for _ in 0..3 {
            put(&mut m, &mut slot, 0x1_0000_0000, &[7; 32], true).unwrap();
        }
        slot.clear_entries(&mut m, &mut w, ClearPolicy::PerEntry);
        put(&mut m, &mut slot, 0x1_0000_0040, &[9; 8], true).unwrap();
        let got = slot.scan(&mut m, Tid(0));
        assert_eq!(targets(&got), vec![0x1_0000_0040]);
    }

    #[test]
    fn oversized_entry_rejected() {
        let (mut m, mut slot) = setup();
        let big = vec![0u8; TX_LOG.max_data() + 1];
        assert_eq!(
            put(&mut m, &mut slot, 0x1_0000_0000, &big, false),
            Err(TxError::EntryTooLarge {
                len: TX_LOG.max_data() + 1
            })
        );
    }

    #[test]
    fn log_full_detected() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        let mut slot = LogRing::new(TX_LOG, base, 64 + 4 * TX_LOG.record_bytes);
        slot.format(&mut m, Tid(0));
        for _ in 0..4 {
            put(&mut m, &mut slot, 0x1_0000_0000, &[0; 64], false).unwrap();
        }
        assert_eq!(
            put(&mut m, &mut slot, 0x1_0000_0000, &[0; 64], false),
            Err(TxError::LogFull)
        );
    }

    #[test]
    fn status_transitions_are_durable() {
        let (mut m, slot) = setup();
        let mut w = PmWriter::new(Tid(0));
        slot.set_status(&mut m, &mut w, TxStatus::Active);
        w.ordering_fence(&mut m);
        slot.set_status(&mut m, &mut w, TxStatus::Committed);
        w.durability_fence(&mut m);
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let slot2 = LogRing::new(TX_LOG, slot.base, 64 * 1024);
        assert_eq!(slot2.status(&mut m2, Tid(0)), TxStatus::Committed);
    }

    #[test]
    fn scan_orders_by_sequence_across_wrap() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        let mut slot = LogRing::new(TX_LOG, base, 64 + 4 * TX_LOG.record_bytes);
        slot.format(&mut m, Tid(0));
        let mut w = PmWriter::new(Tid(0));
        // Fill, clear, then append 3 (wrapping cursor position).
        for _ in 0..3 {
            put(&mut m, &mut slot, 1 << 33, &[0; 8], true).unwrap();
        }
        slot.clear_entries(&mut m, &mut w, ClearPolicy::PerEntry);
        for i in 0..3u64 {
            put(&mut m, &mut slot, (1 << 33) + i, &[i as u8; 8], true).unwrap();
        }
        let got = slot.scan(&mut m, Tid(0));
        assert_eq!(targets(&got), vec![1 << 33, (1 << 33) + 1, (1 << 33) + 2]);
    }

    #[test]
    fn carve_slots_disjoint() {
        let region = AddrRange::new(4 << 30, 1 << 20);
        let slots = carve(TX_LOG, region, 4);
        assert_eq!(slots.len(), 4);
        for pair in slots.windows(2) {
            let end = pair[0].rec_addr(pair[0].n_recs);
            assert!(end <= pair[1].base);
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_region_panics() {
        carve(TX_LOG, AddrRange::new(0, 1024), 4);
    }

    #[test]
    fn marker_names_the_sealed_records() {
        let (mut m, mut slot) = setup();
        let mut w = PmWriter::new(Tid(0));
        put(&mut m, &mut slot, 1 << 33, &[1; 8], true).unwrap();
        assert_eq!(slot.seal(), 1..2);
        for _ in 0..2 {
            put(&mut m, &mut slot, 1 << 33, &[2; 8], true).unwrap();
        }
        let seqs = slot.seal();
        assert_eq!(seqs, 2..4);
        assert!(slot.entries.is_empty(), "sealed records leave the index");
        assert_eq!(slot.marked(&mut m, Tid(0)), None);
        slot.mark_committed(&mut m, &mut w, seqs);
        w.ordering_fence(&mut m);
        assert_eq!(slot.status(&mut m, Tid(0)), TxStatus::Committed);
        assert_eq!(slot.marked(&mut m, Tid(0)), Some(2..4));
    }

    /// The window [`LogRing::append`] documents. A record whose payload
    /// spans three more lines than its header is appended under a
    /// store-granular crash plan: right after its payload store some
    /// adversarial spec lands the header line — the valid tag — without
    /// a payload line, and a scan returns the torn record. At the
    /// record's fence no spec can.
    #[test]
    fn torn_record_window() {
        let data: Vec<u8> = (1..=200).collect();
        let target = 1 << 33;
        // Over 64 adversarial specs, how many images scan back the
        // record torn, and how many whole.
        let outcomes = |counter, point| {
            let (mut m, mut slot) = setup();
            m.set_crash_plan(CrashPlan::at_points(counter, vec![point]));
            put(&mut m, &mut slot, target, &data, false).unwrap();
            let state = m.take_crash_states().pop().expect("the point was reached");
            let (mut torn, mut whole) = (0, 0);
            for seed in 0..64 {
                let img = state.materialize(CrashSpec::Adversarial { seed });
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                if let [r] = &LogRing::new(TX_LOG, slot.base, 64 * 1024).scan(&mut m2, Tid(0))[..] {
                    assert_eq!(r.target, target);
                    if r.data == data {
                        whole += 1;
                    } else {
                        torn += 1;
                    }
                }
            }
            (torn, whole)
        };
        // Store 1 is the header, store 2 the payload.
        let (torn, _) = outcomes(CrashCounter::Stores, 2);
        assert!(
            torn > 0,
            "some spec must land the header without a payload line"
        );
        assert_eq!(outcomes(CrashCounter::Fences, 1), (0, 64));
    }
}
