//! Property-based crash-consistency tests spanning the whole stack:
//! machine → engines → allocator → data structures.
//!
//! The central property of WHISPER applications is crash recoverability:
//! after a power failure at *any* point, with *any* subset of in-flight
//! cache lines reaching PM, recovery must restore a state equivalent to
//! some prefix of committed transactions. proptest drives random
//! operation sequences, crash points, and adversarial persistence
//! subsets.

use memsim::{CrashSpec, Machine, MachineConfig, PmWriter};
use miniprop::prelude::*;
use pmalloc::SlabBitmapAlloc;
use pmds::PHashMap;
use pmem::AddrRange;
use pmtrace::{Category, Tid};
use pmtx::{RedoTxEngine, TxMem, UndoTxEngine};

const TID: Tid = Tid(0);

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: u8, val: u8 },
    Remove { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(key, val)| Op::Insert { key: key % 32, val }),
        any::<u8>().prop_map(|key| Op::Remove { key: key % 32 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Undo engine + allocator + hash map: whatever the crash point and
    /// persistence subset, recovery reflects exactly the committed
    /// prefix of operations.
    #[test]
    fn hashmap_over_undo_recovers_committed_prefix(
        ops in collection::vec(op_strategy(), 1..24),
        crash_after in 0usize..24,
        seed in any::<u64>(),
    ) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 2 << 20);
        let heap = AddrRange::new(pm.base + (2 << 20), 32 << 20);
        let table = AddrRange::new(pm.base + (40 << 20), PHashMap::region_bytes(64));
        let mut eng = UndoTxEngine::format(&mut m, log, 4);
        let mut w = PmWriter::new(TID);
        let mut alloc = SlabBitmapAlloc::format(&mut m, &mut w, heap);
        eng.begin(&mut m, TID).unwrap();
        let map = PHashMap::create(&mut m, &mut eng, TID, table, 64).unwrap();
        eng.commit(&mut m, TID).unwrap();

        // Model of committed state.
        let mut model = std::collections::BTreeMap::new();
        let crash_at = crash_after.min(ops.len());
        for op in ops.iter().take(crash_at) {
            eng.begin(&mut m, TID).unwrap();
            match op {
                Op::Insert { key, val } => {
                    map.insert(&mut m, &mut eng, TID, &mut alloc, &[*key], &[*val; 8]).unwrap();
                    model.insert(*key, *val);
                }
                Op::Remove { key } => {
                    map.remove(&mut m, &mut eng, TID, &mut alloc, &[*key]).unwrap();
                    model.remove(key);
                }
            }
            eng.commit(&mut m, TID).unwrap();
        }
        // One uncommitted op in flight at the crash (if any remain).
        if let Some(op) = ops.get(crash_at) {
            eng.begin(&mut m, TID).unwrap();
            match op {
                Op::Insert { key, val } => {
                    map.insert(&mut m, &mut eng, TID, &mut alloc, &[*key], &[*val; 8]).unwrap();
                }
                Op::Remove { key } => {
                    map.remove(&mut m, &mut eng, TID, &mut alloc, &[*key]).unwrap();
                }
            }
        }

        let img = m.crash(CrashSpec::Adversarial { seed });
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut eng2 = UndoTxEngine::recover(&mut m2, TID, log, 4);
        let map2 = PHashMap::open(&mut m2, TID, table.base).unwrap();

        // Exactly the committed prefix is visible.
        for key in 0u8..32 {
            let got = map2.get(&mut m2, &mut eng2, TID, &[key]);
            match model.get(&key) {
                Some(val) => prop_assert_eq!(got, Some(vec![*val; 8]), "key {} wrong", key),
                None => prop_assert_eq!(got, None, "key {} must be absent", key),
            }
        }
        prop_assert_eq!(map2.len(&mut m2, TID), model.len() as u64);
    }

    /// Redo engine: a crash mid-transaction leaves the data region
    /// byte-identical to the committed prefix (redo never writes data
    /// in place before commit).
    #[test]
    fn redo_engine_all_or_nothing(
        n_committed in 0usize..6,
        n_uncommitted in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 2 << 20);
        let data = pm.base + (2 << 20);
        let mut eng = RedoTxEngine::format(&mut m, log, 4);
        for i in 0..n_committed as u64 {
            eng.begin(&mut m, TID).unwrap();
            eng.tx_write_u64(&mut m, TID, data + i * 64, i + 1, Category::UserData).unwrap();
            eng.commit(&mut m, TID).unwrap();
        }
        eng.begin(&mut m, TID).unwrap();
        for j in 0..n_uncommitted as u64 {
            eng.tx_write_u64(&mut m, TID, data + (16 + j) * 64, 0xdead, Category::UserData).unwrap();
        }
        let img = m.crash(CrashSpec::Adversarial { seed });
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = RedoTxEngine::recover(&mut m2, TID, log, 4);
        for i in 0..n_committed as u64 {
            prop_assert_eq!(m2.load_u64(TID, data + i * 64), i + 1);
        }
        for j in 0..n_uncommitted as u64 {
            prop_assert_eq!(m2.load_u64(TID, data + (16 + j) * 64), 0, "uncommitted write leaked");
        }
    }

    /// Double crashes: recovery is idempotent no matter where the
    /// second failure lands.
    #[test]
    fn recovery_is_idempotent(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 2 << 20);
        let data = pm.base + (2 << 20);
        let mut eng = UndoTxEngine::format(&mut m, log, 4);
        eng.begin(&mut m, TID).unwrap();
        eng.tx_write_u64(&mut m, TID, data, 7, Category::UserData).unwrap();
        eng.commit(&mut m, TID).unwrap();
        eng.begin(&mut m, TID).unwrap();
        eng.tx_write_u64(&mut m, TID, data, 9, Category::UserData).unwrap();

        let img = m.crash(CrashSpec::Adversarial { seed: seed1 });
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let _ = UndoTxEngine::recover(&mut m2, TID, log, 4);
        // Crash again immediately (recovery writes may be in flight).
        let img2 = m2.crash(CrashSpec::Adversarial { seed: seed2 });
        let mut m3 = Machine::from_image(MachineConfig::asplos17(), &img2);
        let _ = UndoTxEngine::recover(&mut m3, TID, log, 4);
        prop_assert_eq!(m3.load_u64(TID, data), 7);
    }
}
