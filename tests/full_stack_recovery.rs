//! End-to-end recovery scenarios combining several subsystems on one
//! machine image, the way a real deployment would lay them out.

use memsim::{CrashSpec, Machine, MachineConfig, PmWriter};
use pmalloc::{BuddyAlloc, SlabBitmapAlloc};
use pmds::{CritBitTree, PHashMap, PLog, PRbTree, HEADER_BYTES};
use pmem::AddrRange;
use pmfs::{Pmfs, PmfsConfig};
use pmtrace::Tid;
use pmtx::{RedoTxEngine, UndoTxEngine};

const TID: Tid = Tid(0);

/// A filesystem and a transactional KV store sharing the PM range:
/// a crash must be recoverable for both, independently.
#[test]
fn filesystem_and_kv_store_coexist_across_crashes() {
    let mut m = Machine::new(MachineConfig::asplos17());
    let pm = m.config().map.pm;
    let fs_region = AddrRange::new(pm.base, 64 << 20);
    let log = AddrRange::new(pm.base + (64 << 20), 2 << 20);
    let heap = AddrRange::new(pm.base + (66 << 20), 32 << 20);
    let table = AddrRange::new(pm.base + (100 << 20), PHashMap::region_bytes(64));

    let mut fs = Pmfs::mkfs(&mut m, TID, fs_region, PmfsConfig::default()).unwrap();
    let mut eng = UndoTxEngine::format(&mut m, log, 4);
    let mut w = PmWriter::new(TID);
    let mut alloc = SlabBitmapAlloc::format(&mut m, &mut w, heap);
    eng.begin(&mut m, TID).unwrap();
    let map = PHashMap::create(&mut m, &mut eng, TID, table, 64).unwrap();
    eng.commit(&mut m, TID).unwrap();

    // Interleave filesystem and transactional work.
    fs.mkdir(&mut m, TID, "/db").unwrap();
    fs.create(&mut m, TID, "/db/wal").unwrap();
    for i in 0..8u8 {
        eng.begin(&mut m, TID).unwrap();
        map.insert(&mut m, &mut eng, TID, &mut alloc, &[i], &[i; 16])
            .unwrap();
        eng.commit(&mut m, TID).unwrap();
        fs.append(&mut m, TID, "/db/wal", &[i; 512]).unwrap();
    }
    // Crash with one fs op and one tx in flight.
    eng.begin(&mut m, TID).unwrap();
    map.insert(&mut m, &mut eng, TID, &mut alloc, &[99], &[1; 16])
        .unwrap();

    for seed in [1u64, 17, 33] {
        let img = Machine::from_image(MachineConfig::asplos17(), &m.durable_image())
            .crash(CrashSpec::Adversarial { seed });
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let (mut fs2, _) = Pmfs::mount(&mut m2, TID, fs_region).unwrap();
        let mut eng2 = UndoTxEngine::recover(&mut m2, TID, log, 4);
        let map2 = PHashMap::open(&mut m2, TID, table.base).unwrap();
        assert_eq!(fs2.stat(&mut m2, TID, "/db/wal").unwrap().size, 8 * 512);
        for i in 0..8u8 {
            assert_eq!(
                map2.get(&mut m2, &mut eng2, TID, &[i]),
                Some(vec![i; 16]),
                "seed {seed}"
            );
        }
        assert_eq!(
            map2.get(&mut m2, &mut eng2, TID, &[99]),
            None,
            "seed {seed}"
        );
    }
}

/// All four pmds structures over one redo engine and a buddy heap,
/// surviving a clean crash together.
#[test]
fn every_structure_recovers_from_one_image() {
    let mut m = Machine::new(MachineConfig::asplos17());
    let pm = m.config().map.pm;
    let log = AddrRange::new(pm.base, 4 << 20);
    let heap = AddrRange::new(pm.base + (4 << 20), 64 << 20);
    let table = AddrRange::new(pm.base + (70 << 20), PHashMap::region_bytes(32));
    let tree_r = AddrRange::new(pm.base + (71 << 20), HEADER_BYTES);
    let rb_r = AddrRange::new(pm.base + (72 << 20), HEADER_BYTES);
    let log_r = AddrRange::new(pm.base + (73 << 20), 4096);

    let mut eng = RedoTxEngine::format(&mut m, log, 4);
    let mut w = PmWriter::new(TID);
    let mut alloc = BuddyAlloc::format(&mut m, &mut w, heap);

    eng.begin(&mut m, TID).unwrap();
    let map = PHashMap::create(&mut m, &mut eng, TID, table, 32).unwrap();
    let cb = CritBitTree::create(&mut m, &mut eng, TID, tree_r).unwrap();
    let rb = PRbTree::create(&mut m, &mut eng, TID, &mut alloc, rb_r).unwrap();
    let plog = PLog::create(&mut m, &mut eng, TID, log_r).unwrap();
    eng.commit(&mut m, TID).unwrap();

    for i in 0..12u64 {
        eng.begin(&mut m, TID).unwrap();
        map.insert(&mut m, &mut eng, TID, &mut alloc, &i.to_le_bytes(), b"map")
            .unwrap();
        cb.insert(&mut m, &mut eng, TID, &mut alloc, &i.to_be_bytes(), i)
            .unwrap();
        rb.insert(&mut m, &mut eng, TID, &mut alloc, i, i * 2)
            .unwrap();
        plog.append(&mut m, &mut eng, TID, &i.to_le_bytes())
            .unwrap();
        eng.commit(&mut m, TID).unwrap();
    }

    let img = m.crash(CrashSpec::DropVolatile);
    let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
    let mut eng2 = RedoTxEngine::recover(&mut m2, TID, log, 4);
    let _alloc2 = BuddyAlloc::recover(&mut m2, TID, heap);
    let map2 = PHashMap::open(&mut m2, TID, table.base).unwrap();
    let cb2 = CritBitTree::open(&mut m2, TID, tree_r.base).unwrap();
    let rb2 = PRbTree::open(&mut m2, TID, rb_r.base).unwrap();
    let plog2 = PLog::open(&mut m2, TID, log_r).unwrap();

    assert_eq!(map2.len(&mut m2, TID), 12);
    assert_eq!(cb2.len(&mut m2, TID), 12);
    assert_eq!(rb2.len(&mut m2, TID), 12);
    assert_eq!(plog2.records(&mut m2, TID).len(), 12);
    rb2.check_invariants(&mut m2, TID).unwrap();
    for i in 0..12u64 {
        assert_eq!(
            map2.get(&mut m2, &mut eng2, TID, &i.to_le_bytes())
                .as_deref(),
            Some(&b"map"[..])
        );
        assert_eq!(cb2.get(&mut m2, &mut eng2, TID, &i.to_be_bytes()), Some(i));
        assert_eq!(rb2.get(&mut m2, &mut eng2, TID, i), Some(i * 2));
    }
}

/// The simulated endurance counters see media writes, not program
/// stores: repeated unflushed writes to one line cost one media write
/// at the fence.
#[test]
fn media_write_accounting() {
    let mut m = Machine::new(MachineConfig::asplos17());
    let pm = m.config().map.pm;
    let mut w = PmWriter::new(TID);
    for i in 0..100u64 {
        w.write_u64(&mut m, pm.base, i, pmtrace::Category::UserData);
    }
    assert_eq!(m.media_line_writes(), 0, "no media traffic before a fence");
    w.durability_fence(&mut m);
    assert_eq!(
        m.media_line_writes(),
        1,
        "100 stores, one line written back"
    );
}
