//! NVML-style undo-log transactions.

use crate::log::{carve_slots, LogSlot, TxStatus};
use crate::{ClearPolicy, TxError};
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

#[derive(Debug, Clone)]
struct ActiveUndo {
    id: pmtrace::TxId,
    /// Data lines written in place, to be flushed at commit.
    writer: PmWriter,
}

/// Durable transactions via an undo log, in the style of NVML
/// (Section 3.1).
///
/// Every [`UndoTxEngine::set`] first persists the *old* value as an
/// undo-log entry (cacheable store + flush + fence), then writes the new
/// value in place with cacheable stores whose flushes are deferred to
/// commit. Because each undo record must be ordered before its data
/// write, a transaction fragments "into a series of alternating epochs"
/// — and any data lines still unflushed from a previous `set` get
/// dragged into the undo record's epoch, which is exactly the behavior
/// the paper observed in N-store and NVML (Section 5.1).
///
/// On a crash, a slot that never reached `Committed` rolls back by
/// re-applying the logged old values; rollback is idempotent.
#[derive(Debug, Clone)]
pub struct UndoTxEngine {
    region: AddrRange,
    slots: Vec<LogSlot>,
    active: Vec<Option<ActiveUndo>>,
    clear_policy: ClearPolicy,
}

impl UndoTxEngine {
    /// Format a fresh engine whose per-thread logs carve up `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is too small for `threads` ≥4 KB slots.
    pub fn format(m: &mut Machine, region: AddrRange, threads: u32) -> UndoTxEngine {
        crate::check_engine_threads(m, threads);
        let slots = carve_slots(region, threads);
        for (i, s) in slots.iter().enumerate() {
            s.format(m, Tid(i as u32));
        }
        UndoTxEngine {
            region,
            slots,
            active: (0..threads).map(|_| None).collect(),
            clear_policy: ClearPolicy::default(),
        }
    }

    /// Recover after a crash: roll back slots that were mid-transaction,
    /// discard logs of committed ones.
    pub fn recover(m: &mut Machine, tid: Tid, region: AddrRange, threads: u32) -> UndoTxEngine {
        crate::check_engine_threads(m, threads);
        let mut slots = carve_slots(region, threads);
        let mut w = PmWriter::new(tid);
        for slot in &mut slots {
            let status = slot.status(m, tid);
            if status == TxStatus::Active {
                // Roll back: apply old values in reverse order.
                let entries = slot.scan_durable(m, tid);
                for (target, old) in entries.into_iter().rev() {
                    w.write(m, target, &old, Category::UserData);
                }
                w.durability_fence(m);
            }
            slot.clear_durable(m, &mut w);
            slot.set_status(m, &mut w, TxStatus::Idle);
            slot.reset_volatile();
        }
        UndoTxEngine {
            region,
            slots,
            active: (0..threads).map(|_| None).collect(),
            clear_policy: ClearPolicy::default(),
        }
    }

    /// Choose how commit clears log entries (the paper's batching
    /// optimization, Section 5.1).
    pub fn set_clear_policy(&mut self, policy: ClearPolicy) {
        self.clear_policy = policy;
    }

    /// The log region.
    pub fn region(&self) -> AddrRange {
        self.region
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
        let mut w = PmWriter::new(tid);
        self.slots[t].set_status(m, &mut w, TxStatus::Active);
        self.active[t] = Some(ActiveUndo {
            id,
            writer: PmWriter::new(tid),
        });
        Ok(())
    }

    /// Transactional in-place update: log the old value (own epoch),
    /// then write the new value with deferred flushing.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction;
    /// [`TxError::BadTid`] for a thread the engine has no slot for;
    /// log-capacity errors from the slot.
    pub fn set(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        if self.active[t].is_none() {
            return Err(TxError::NoTx);
        }
        let old = m.load_vec(tid, addr, bytes.len());
        {
            let active = self.active[t].as_mut().expect("checked above");
            // The undo record is written through the transaction's own
            // writer: its fence drags along any still-unflushed data
            // lines from earlier `set`s (the paper's alternating-epoch
            // fragmentation).
            self.slots[t].append(m, &mut active.writer, addr, &old, false, Category::UndoLog)?;
            active.writer.write(m, addr, bytes, cat);
        }
        Ok(())
    }

    /// Transactional `u64` update.
    ///
    /// # Errors
    ///
    /// As for [`UndoTxEngine::set`].
    pub fn set_u64(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        val: u64,
        cat: Category,
    ) -> Result<(), TxError> {
        self.set(m, tid, addr, &val.to_le_bytes(), cat)
    }

    /// Commit: flush in-place data, durable marker, clear log.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn commit(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let mut active = self.active[t].take().ok_or(TxError::NoTx)?;
        // 1. Data durable.
        active.writer.durability_fence(m);
        // 2. Marker durable: rollback disarmed.
        let mut w = PmWriter::new(tid);
        self.slots[t].set_status(m, &mut w, TxStatus::Committed);
        // 3. Clear each entry in its own epoch ("NVML sets and clears
        //    its log entries"), then idle.
        let policy = self.clear_policy;
        self.slots[t].clear_entries(m, &mut w, policy);
        self.slots[t].set_status(m, &mut w, TxStatus::Idle);
        m.tx_end(tid, active.id);
        Ok(())
    }

    /// Abort: re-apply old values from the undo log, then clear it.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction.
    pub fn abort(&mut self, m: &mut Machine, tid: Tid) -> Result<(), TxError> {
        let t = self.slot_of(tid)?;
        let active = self.active[t].take().ok_or(TxError::NoTx)?;
        let mut w = PmWriter::new(tid);
        for (target, old) in self.slots[t].read_entries(m, tid).into_iter().rev() {
            w.write(m, target, &old, Category::UserData);
        }
        w.durability_fence(m);
        let policy = self.clear_policy;
        self.slots[t].clear_entries(m, &mut w, policy);
        self.slots[t].set_status(m, &mut w, TxStatus::Idle);
        m.tx_end(tid, active.id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};

    #[test]
    fn out_of_range_tid_is_a_typed_error_on_every_entry_point() {
        let (mut m, mut eng, data) = setup();
        // One past the last formatted slot — the classic off-by-one.
        let bad = Tid(4);
        let err = TxError::BadTid {
            tid: bad,
            threads: 4,
        };
        assert!(!eng.in_tx(bad));
        assert_eq!(eng.begin(&mut m, bad), Err(err));
        assert_eq!(
            eng.set(&mut m, bad, data, &[1u8; 8], Category::UserData),
            Err(err)
        );
        assert_eq!(eng.commit(&mut m, bad), Err(err));
        assert_eq!(eng.abort(&mut m, bad), Err(err));
        // A good thread still works after the rejections.
        eng.begin(&mut m, Tid(3)).unwrap();
        eng.commit(&mut m, Tid(3)).unwrap();
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn format_rejects_more_slots_than_machine_threads() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let threads = m.config().threads;
        let _ = UndoTxEngine::format(&mut m, AddrRange::new(pm.base, 1 << 20), threads + 1);
    }

    fn setup() -> (Machine, UndoTxEngine, Addr) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 1 << 20);
        let eng = UndoTxEngine::format(&mut m, log, 4);
        (m, eng, pm.base + (1 << 20))
    }

    fn log_region(m: &Machine) -> AddrRange {
        AddrRange::new(m.config().map.pm.base, 1 << 20)
    }

    #[test]
    fn commit_makes_data_durable() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 77, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        assert!(m.is_durable(data, 8));
        assert_eq!(m.load_u64(tid, data), 77);
    }

    #[test]
    fn writes_visible_in_place_immediately() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 5, Category::UserData)
            .unwrap();
        // Undo logging writes in place: a plain load sees it.
        assert_eq!(m.load_u64(tid, data), 5);
        eng.commit(&mut m, tid).unwrap();
    }

    #[test]
    fn abort_restores_old_values() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        // Seed committed state.
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 100, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        // Mutate and abort.
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 200, Category::UserData)
            .unwrap();
        assert_eq!(m.load_u64(tid, data), 200);
        eng.abort(&mut m, tid).unwrap();
        assert_eq!(m.load_u64(tid, data), 100);
        assert!(m.is_durable(data, 8));
    }

    #[test]
    fn crash_mid_tx_rolls_back() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 50, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        // Second tx crashes mid-flight with all in-flight data persisted
        // (worst case for undo: new data durable, no commit marker).
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 999, Category::UserData)
            .unwrap();
        let log = log_region(&m);
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = UndoTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(
            m2.load_u64(Tid(0), data),
            50,
            "rolled back to committed value"
        );
    }

    #[test]
    fn crash_mid_tx_drop_volatile_also_consistent() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 50, Category::UserData)
            .unwrap();
        eng.commit(&mut m, tid).unwrap();
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 999, Category::UserData)
            .unwrap();
        let log = log_region(&m);
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = UndoTxEngine::recover(&mut m2, Tid(0), log, 4);
        assert_eq!(m2.load_u64(Tid(0), data), 50);
    }

    #[test]
    fn adversarial_crash_sweep_all_or_nothing() {
        // A tx writes two lines; after recovery we must see either both
        // new values (committed) or both old (rolled back/discarded).
        for seed in 0..40 {
            let (mut m, mut eng, data) = setup();
            let tid = Tid(0);
            eng.begin(&mut m, tid).unwrap();
            eng.set_u64(&mut m, tid, data, 1, Category::UserData)
                .unwrap();
            eng.set_u64(&mut m, tid, data + 64, 1, Category::UserData)
                .unwrap();
            eng.commit(&mut m, tid).unwrap();
            // Second tx crashes mid-commit-path at an arbitrary point:
            eng.begin(&mut m, tid).unwrap();
            eng.set_u64(&mut m, tid, data, 2, Category::UserData)
                .unwrap();
            eng.set_u64(&mut m, tid, data + 64, 2, Category::UserData)
                .unwrap();
            let log = log_region(&m);
            let img = m.crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let _ = UndoTxEngine::recover(&mut m2, Tid(0), log, 4);
            let a = m2.load_u64(Tid(0), data);
            let b = m2.load_u64(Tid(0), data + 64);
            assert_eq!(a, 1, "seed {seed}: uncommitted tx must roll back");
            assert_eq!(b, 1, "seed {seed}: uncommitted tx must roll back");
        }
    }

    #[test]
    fn rollback_is_idempotent_across_double_crash() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        eng.begin(&mut m, tid).unwrap();
        eng.set_u64(&mut m, tid, data, 31, Category::UserData)
            .unwrap();
        let log = log_region(&m);
        let img = m.crash(CrashSpec::PersistAll);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        // First recovery crashes right away (drop its volatile work
        // mid-rollback is not directly expressible; instead re-crash
        // after recovery and recover again).
        let _ = UndoTxEngine::recover(&mut m2, Tid(0), log, 4);
        let img2 = m2.crash(CrashSpec::Adversarial { seed: 9 });
        let mut m3 = Machine::from_image(MachineConfig::asplos17(), &img2);
        let _ = UndoTxEngine::recover(&mut m3, Tid(0), log, 4);
        assert_eq!(m3.load_u64(Tid(0), data), 0);
    }

    #[test]
    fn alternating_epoch_fragmentation() {
        // N sets produce N undo-record epochs before commit — the
        // fragmentation the paper attributes to undo logging:
        // begin-status + N undo records + data-flush + marker + N clears
        // + idle-status = 2N + 4 epochs, all inside the transaction.
        // Clearing the log in a batch (Section 5.1's suggestion) folds
        // the N clears into one. N = 8 is the logging ablation: undo 20,
        // batched 13 (redo 19, `MinTxEngine` 3).
        for (writes, policy, epochs) in [
            (4u64, ClearPolicy::PerEntry, 12),
            (8, ClearPolicy::PerEntry, 20),
            (8, ClearPolicy::Batched, 13),
        ] {
            let (mut m, mut eng, data) = setup();
            eng.set_clear_policy(policy);
            let tid = Tid(0);
            m.trace_mut().clear();
            eng.begin(&mut m, tid).unwrap();
            for i in 0..writes {
                eng.set_u64(&mut m, tid, data + i * 64, i, Category::UserData)
                    .unwrap();
            }
            eng.commit(&mut m, tid).unwrap();
            let report = pmtrace::analysis::Analyzer::analyze_events(m.trace().events());
            assert_eq!(
                report.epoch_count, epochs as usize,
                "{writes} writes, {policy:?}"
            );
            assert_eq!(report.tx_stats.epochs_per_tx, vec![epochs]);
            // Undo-heavy traces are singleton-heavy (Figure 4's NVML
            // bars) — unless the clears, each a singleton, are batched.
            let singletons = report.size_hist.singleton_fraction();
            assert_eq!(
                singletons > 0.5,
                policy == ClearPolicy::PerEntry,
                "{singletons}"
            );
        }
    }

    #[test]
    fn error_paths() {
        let (mut m, mut eng, data) = setup();
        let tid = Tid(0);
        assert_eq!(eng.commit(&mut m, tid), Err(TxError::NoTx));
        assert_eq!(eng.abort(&mut m, tid), Err(TxError::NoTx));
        assert_eq!(
            eng.set_u64(&mut m, tid, data, 1, Category::UserData),
            Err(TxError::NoTx)
        );
        eng.begin(&mut m, tid).unwrap();
        assert_eq!(eng.begin(&mut m, tid), Err(TxError::NestedTx));
        assert!(eng.in_tx(tid));
        eng.commit(&mut m, tid).unwrap();
        assert!(!eng.in_tx(tid));
    }

    #[test]
    fn threads_are_independent() {
        let (mut m, mut eng, data) = setup();
        eng.begin(&mut m, Tid(0)).unwrap();
        eng.begin(&mut m, Tid(1)).unwrap();
        eng.set_u64(&mut m, Tid(0), data, 10, Category::UserData)
            .unwrap();
        eng.set_u64(&mut m, Tid(1), data + 64, 20, Category::UserData)
            .unwrap();
        eng.commit(&mut m, Tid(0)).unwrap();
        eng.abort(&mut m, Tid(1)).unwrap();
        assert_eq!(m.load_u64(Tid(0), data), 10);
        assert_eq!(m.load_u64(Tid(0), data + 64), 0);
    }
}
