//! Mnemosyne-style redo-log transactions.

use crate::log::{format_rings, recover_rings, retire, LogRing, TxStatus, TX_LOG};
use crate::{ClearPolicy, TxError};
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const SCRATCH_BYTES: u64 = 64 * 1024;

#[derive(Debug, Clone)]
struct ActiveRedo {
    id: pmtrace::TxId,
    /// Volatile write set, in program order: (target, data, category).
    writes: Vec<(Addr, Vec<u8>, Category)>,
    scratch_cursor: u64,
}

/// Durable transactions via a redo log, in the style of Mnemosyne
/// (Section 3.1).
///
/// During a transaction, updates go to a volatile (DRAM) buffer and a
/// persistent redo-log entry is written with non-temporal stores,
/// ordered by an `sfence` — one epoch per record. Nothing touches the
/// target data structures until commit, when the commit marker is made
/// durable, the buffered writes are applied with cacheable stores, the
/// modified lines are flushed, and the log entries are cleared (each in
/// its own epoch). On a crash, a slot whose marker is durable replays
/// its entries; otherwise the log is discarded and the data — never
/// written in place — is untouched.
#[derive(Debug, Clone)]
pub struct RedoTxEngine {
    slots: Vec<LogRing>,
    active: Vec<Option<ActiveRedo>>,
    /// Per-thread DRAM scratch base for the volatile write buffer (so
    /// buffering shows up as DRAM traffic, as in the real system).
    scratch: Vec<Addr>,
    clear_policy: ClearPolicy,
}

impl RedoTxEngine {
    /// Format a fresh engine whose per-thread logs carve up `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is too small for `threads` ≥4 KB slots.
    pub fn format(m: &mut Machine, region: AddrRange, threads: u32) -> RedoTxEngine {
        let slots = format_rings(m, TX_LOG, region, threads);
        let scratch = (0..threads)
            .map(|_| m.alloc_dram(SCRATCH_BYTES, 64))
            .collect();
        RedoTxEngine {
            slots,
            active: (0..threads).map(|_| None).collect(),
            scratch,
            clear_policy: ClearPolicy::default(),
        }
    }

    /// Recover after a crash: replay slots whose commit marker is
    /// durable, discard the rest. Returns the engine, ready for new
    /// transactions. `tid` is the recovery thread.
    pub fn recover(m: &mut Machine, tid: Tid, region: AddrRange, threads: u32) -> RedoTxEngine {
        let scratch = (0..threads)
            .map(|_| m.alloc_dram(SCRATCH_BYTES, 64))
            .collect();
        let slots = recover_rings(m, tid, region, threads, TxStatus::Committed, false);
        RedoTxEngine {
            slots,
            active: (0..threads).map(|_| None).collect(),
            scratch,
            clear_policy: ClearPolicy::default(),
        }
    }

    /// Choose how commit clears log entries (the paper's batching
    /// optimization, Section 5.1).
    pub fn set_clear_policy(&mut self, policy: ClearPolicy) {
        self.clear_policy = policy;
    }

    /// Whether `tid` has an open transaction (false for an
    /// out-of-range `tid`, which can never have one).
    pub fn in_tx(&self, tid: Tid) -> bool {
        self.active.get(tid.0 as usize).is_some_and(Option::is_some)
    }

    /// The validated slot index for `tid`.
    fn slot_of(&self, tid: Tid) -> Result<usize, TxError> {
        crate::slot_of(tid, self.active.len())
    }

    /// Start a durable transaction on `tid`.
    ///
    /// # Errors
    ///
    /// [`TxError::NestedTx`] if one is already open;
    /// [`TxError::BadTid`] for a thread the engine has no slot for.
    pub fn begin(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        if self.active[t].is_some() {
            return Err(TxError::NestedTx);
        }
        let id = m.fresh_tx_id(tid);
        m.tx_begin(tid, id);
        // No persistent status write at begin: a redo log without a
        // durable commit marker is simply discarded at recovery, so
        // Mnemosyne-style transactions start for free.
        self.active[t] = Some(ActiveRedo {
            id,
            writes: Vec::new(),
            scratch_cursor: 0,
        });
        Ok(())
    }

    /// Transactional write: buffered in DRAM, logged persistently with
    /// non-temporal stores (one epoch per record).
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction;
    /// [`TxError::BadTid`] for a thread the engine has no slot for;
    /// log-capacity errors from the slot.
    pub fn write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let scratch_base = self.scratch[t];
        let active = self.active[t].as_mut().ok_or(TxError::NoTx)?;
        // Buffer in DRAM scratch (counts as volatile traffic).
        let off = active.scratch_cursor % (SCRATCH_BYTES - bytes.len().min(4096) as u64).max(1);
        m.store(
            tid,
            scratch_base + off,
            &bytes[..bytes.len().min(4096)],
            cat,
        );
        active.scratch_cursor = off + bytes.len() as u64;
        active.writes.push((addr, bytes.to_vec(), cat));
        let mut w = PmWriter::new(tid);
        self.slots[t].append(m, &mut w, addr, bytes, true, Category::RedoLog)?;
        w.ordering_fence(m);
        Ok(())
    }

    /// Transactional `u64` write.
    ///
    /// # Errors
    ///
    /// As for [`RedoTxEngine::write`].
    pub fn write_u64(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        val: u64,
        cat: Category,
    ) -> Result<(), TxError> {
        self.write(m, tid, addr, &val.to_le_bytes(), cat)
    }

    /// Commit: durable marker, in-place writeback, flush, log clear.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn commit(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].take().ok_or(TxError::NoTx)?;
        let mut w = PmWriter::new(tid);
        // 1. Commit marker durable: the transaction's durability point.
        self.slots[t].set_status(m, &mut w, TxStatus::Committed);
        w.durability_fence(m);
        // 2. In-place updates with cacheable stores, then flush+fence.
        for (addr, data, cat) in &active.writes {
            w.write(m, *addr, data, *cat);
        }
        w.durability_fence(m);
        // 3. Clear each log entry in its own epoch, then go idle.
        retire(&mut self.slots[t], m, &mut w, self.clear_policy);
        m.tx_end(tid, active.id);
        Ok(())
    }

    /// Abort: discard the buffer and log; data was never written.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn abort(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].take().ok_or(TxError::NoTx)?;
        let mut w = PmWriter::new(tid);
        retire(&mut self.slots[t], m, &mut w, self.clear_policy);
        m.tx_end(tid, active.id);
        Ok(())
    }
}

impl crate::TxMem for RedoTxEngine {
    /// Reads have read-your-writes semantics: buffered updates overlay
    /// memory.
    fn tx_read_into(&mut self, m: &mut Machine, tid: Tid, addr: Addr, buf: &mut [u8]) {
        // An out-of-range tid has no buffered writes to overlay.
        let active = self.active.get(tid.0 as usize).and_then(Option::as_ref);
        crate::txmem::read_through(m, tid, addr, buf, active.map_or(&[], |a| &a.writes));
    }

    fn tx_write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError> {
        self.write(m, tid, addr, bytes, cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxMem;
    use memsim::{CrashSpec, MachineConfig};

    fn setup() -> (Machine, RedoTxEngine, Addr) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 1 << 20);
        let eng = RedoTxEngine::format(&mut m, log, 4);
        (m, eng, pm.base + (1 << 20))
    }

    #[test]
    fn out_of_range_tid_is_a_typed_error_on_every_entry_point() {
        let (mut m, mut eng, data) = setup();
        let bad = Tid(4);
        let err = TxError::BadTid {
            tid: bad,
            threads: 4,
        };
        assert!(!eng.in_tx(bad));
        assert_eq!(eng.begin(&mut m, bad), Err(err));
        assert_eq!(
            eng.write(&mut m, bad, data, &[1u8; 8], Category::UserData),
            Err(err)
        );
        assert_eq!(eng.commit(&mut m, bad), Err(err));
        assert_eq!(eng.abort(&mut m, bad), Err(err));
        // Reads degrade to plain memory reads (no overlay to apply).
        assert_eq!(eng.tx_read(&mut m, bad, data, 8), vec![0u8; 8]);
        eng.begin(&mut m, Tid(3)).unwrap();
        eng.commit(&mut m, Tid(3)).unwrap();
    }

    #[test]
    fn commit_makes_data_durable() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 99, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        assert!(m.is_durable(data, 8));
        assert_eq!(m.load_u64(tid, data), 99);
    }

    #[test]
    fn data_untouched_until_commit() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 42, Category::UserData)
            .unwrap();
        // In-place data not yet written (redo buffers):
        assert_eq!(m.load_u64(tid, data), 0);
        // But the transaction reads its own write:
        assert_eq!(eng.tx_read_u64(&mut m, tid, data), 42);
        eng.commit(&mut m, tid).unwrap();
        assert_eq!(m.load_u64(tid, data), 42);
    }

    #[test]
    fn abort_leaves_no_trace() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 13, Category::UserData)
            .unwrap();
        eng.abort(&mut m, tid).unwrap();
        assert_eq!(m.load_u64(tid, data), 0);
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let log = AddrRange::new(m2.config().map.pm.base, 1 << 20);
        let _ = RedoTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(m2.load_u64(Tid(0), data), 0);
    }

    #[test]
    fn read_your_writes_partial_overlap() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        m.store(tid, data, &[0xAA; 16], Category::UserData);
        eng.begin(&mut m, tid).unwrap();
        eng.write(&mut m, tid, data + 4, &[0xBB; 4], Category::UserData)
            .unwrap();
        let v = eng.tx_read(&mut m, tid, data, 12);
        assert_eq!(
            v,
            [0xAA, 0xAA, 0xAA, 0xAA, 0xBB, 0xBB, 0xBB, 0xBB, 0xAA, 0xAA, 0xAA, 0xAA]
        );
        eng.abort(&mut m, tid).unwrap();
    }

    #[test]
    fn nested_begin_and_stray_ops_rejected() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        assert_eq!(eng.commit(&mut m, tid), Err(TxError::NoTx));
        assert_eq!(
            eng.write_u64(&mut m, tid, data, 1, Category::UserData),
            Err(TxError::NoTx)
        );
        eng.begin(&mut m, tid).unwrap();
        assert_eq!(eng.begin(&mut m, tid), Err(TxError::NestedTx));
        eng.abort(&mut m, tid).unwrap();
    }

    #[test]
    fn crash_before_commit_marker_discards_tx() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 7, Category::UserData)
            .unwrap();
        // Crash with everything in flight persisted — log entries are
        // durable but no commit marker.
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let log = AddrRange::new(m2.config().map.pm.base, 1 << 20);
        let _ = RedoTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(m2.load_u64(Tid(0), data), 0, "uncommitted tx discarded");
    }

    #[test]
    fn crash_after_marker_replays_log() {
        // Commit writes the marker durably first; simulate a crash where
        // the in-place data writes were lost by crashing DropVolatile
        // immediately after the marker epoch. We reproduce that state by
        // driving the slot manually through the engine's own sequence:
        // begin + write (log durable), then marker.
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 1234, Category::UserData)
            .unwrap();
        // Reach into the commit sequence: set the marker durably, then
        // "crash" before the data writeback by dropping volatile state.
        let mut w = PmWriter::new(tid);
        eng.slots[0].set_status(&mut m, &mut w, TxStatus::Committed);
        w.durability_fence(&mut m);
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let log = AddrRange::new(m2.config().map.pm.base, 1 << 20);
        let _ = RedoTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(m2.load_u64(Tid(0), data), 1234, "committed tx replayed");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 5, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let log = AddrRange::new(m2.config().map.pm.base, 1 << 20);
        let _ = RedoTxEngine::recover(&mut m2, Tid(0), log, 4);
        let img2 = m2.crash(CrashSpec::DropVolatile);
        let mut m3 = Machine::from_image(MachineConfig::asplos17(), &img2);
        let _ = RedoTxEngine::recover(&mut m3, Tid(0), log, 4);
        assert_eq!(m3.load_u64(Tid(0), data), 5);
    }

    #[test]
    fn engine_reusable_across_transactions() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        for i in 0..20u64 {
            eng.begin(&mut m, tid).unwrap();
            eng.write_u64(&mut m, tid, data + i * 8, i, Category::UserData)
                .unwrap();
            eng.commit(&mut m, tid).unwrap();
        }
        for i in 0..20u64 {
            assert_eq!(m.load_u64(tid, data + i * 8), i);
        }
    }

    #[test]
    fn batched_clearing_collapses_clear_epochs() {
        let count_epochs = |policy: ClearPolicy| {
            let mut m = Machine::new(MachineConfig::asplos17());
            let pm = m.config().map.pm;
            let mut eng = RedoTxEngine::format(&mut m, AddrRange::new(pm.base, 1 << 20), 4);
            eng.set_clear_policy(policy);
            let data = pm.base + (1 << 20);
            let tid = Tid(0);
            m.trace_mut().clear();
            eng.begin(&mut m, tid).unwrap();
            for i in 0..6u64 {
                eng.write_u64(&mut m, tid, data + i * 64, i, Category::UserData)
                    .unwrap();
            }
            eng.commit(&mut m, tid).unwrap();
            pmtrace::analysis::split_epochs(m.trace().events()).len()
        };
        let per_entry = count_epochs(ClearPolicy::PerEntry);
        let batched = count_epochs(ClearPolicy::Batched);
        assert_eq!(per_entry - batched, 5, "6 clears collapse into 1 epoch");
    }

    #[test]
    fn tx_trace_has_epoch_per_log_record() {
        // N log records + 1 marker + 1 writeback + N clears +
        // 1 idle-status = 2N + 3 epochs, all inside the transaction.
        // N = 8 is Section 5.1's logging ablation: redo 19 epochs
        // against undo's 20.
        for (writes, epochs) in [(5u64, 13), (8, 19)] {
            let (mut m, mut eng, data) = setup();
            let tid = Tid(0);
            m.trace_mut().clear();
            eng.begin(&mut m, tid).unwrap();
            for i in 0..writes {
                eng.write_u64(&mut m, tid, data + i * 64, i, Category::UserData)
                    .unwrap();
            }
            eng.commit(&mut m, tid).unwrap();
            let report = pmtrace::analysis::Analyzer::analyze_events(m.trace().events());
            assert_eq!(report.epoch_count, epochs as usize, "{writes} writes");
            assert_eq!(report.tx_stats.epochs_per_tx, vec![epochs]);
        }
    }
}
