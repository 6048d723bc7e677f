//! Crash-consistency torture: sweep adversarial power failures over
//! both transaction engines and check atomicity every time.
//!
//! Each trial runs a transaction that moves "money" between two
//! accounts in PM, crashes mid-flight with a different random subset of
//! in-flight cache lines reaching the device, recovers, and asserts the
//! invariant (the total balance) held.
//!
//! Run with: `cargo run --example crash_recovery`

use memsim::{CrashSpec, Machine, MachineConfig};
use pmem::AddrRange;
use pmtrace::{Category, Tid};
use pmtx::{RedoTxEngine, TxMem, UndoTxEngine};

const TOTAL: u64 = 1000;

fn trial_undo(seed: u64) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::asplos17());
    let pm = m.config().map.pm;
    let log = AddrRange::new(pm.base, 1 << 20);
    let a = pm.base + (1 << 20);
    let b = a + 64;
    let tid = Tid(0);
    let mut eng = UndoTxEngine::format(&mut m, log, 4);
    // Committed initial state: 600/400.
    eng.begin(&mut m, tid).unwrap();
    eng.tx_write_u64(&mut m, tid, a, 600, Category::UserData)
        .unwrap();
    eng.tx_write_u64(&mut m, tid, b, 400, Category::UserData)
        .unwrap();
    eng.commit(&mut m, tid).unwrap();
    // Transfer 250, crash before commit.
    eng.begin(&mut m, tid).unwrap();
    eng.tx_write_u64(&mut m, tid, a, 350, Category::UserData)
        .unwrap();
    eng.tx_write_u64(&mut m, tid, b, 650, Category::UserData)
        .unwrap();
    let img = m.crash(CrashSpec::Adversarial { seed });
    let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
    let _ = UndoTxEngine::recover(&mut m2, tid, log, 4);
    (m2.load_u64(tid, a), m2.load_u64(tid, b))
}

fn trial_redo(seed: u64) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::asplos17());
    let pm = m.config().map.pm;
    let log = AddrRange::new(pm.base, 1 << 20);
    let a = pm.base + (1 << 20);
    let b = a + 64;
    let tid = Tid(0);
    let mut eng = RedoTxEngine::format(&mut m, log, 4);
    eng.begin(&mut m, tid).unwrap();
    eng.tx_write_u64(&mut m, tid, a, 600, Category::UserData)
        .unwrap();
    eng.tx_write_u64(&mut m, tid, b, 400, Category::UserData)
        .unwrap();
    eng.commit(&mut m, tid).unwrap();
    eng.begin(&mut m, tid).unwrap();
    eng.tx_write_u64(&mut m, tid, a, 350, Category::UserData)
        .unwrap();
    eng.tx_write_u64(&mut m, tid, b, 650, Category::UserData)
        .unwrap();
    let img = m.crash(CrashSpec::Adversarial { seed });
    let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
    let _ = RedoTxEngine::recover(&mut m2, tid, log, 4);
    (m2.load_u64(tid, a), m2.load_u64(tid, b))
}

fn main() {
    let trials = 200;
    let mut rolled_back = 0;
    for seed in 0..trials {
        for (engine, (a, b)) in [("undo", trial_undo(seed)), ("redo", trial_redo(seed))] {
            assert_eq!(
                a + b,
                TOTAL,
                "seed {seed} ({engine}): balance invariant broken: {a}+{b}"
            );
            assert!(
                (a, b) == (600, 400) || (a, b) == (350, 650),
                "seed {seed} ({engine}): torn state {a}/{b}"
            );
            if (a, b) == (600, 400) {
                rolled_back += 1;
            }
        }
    }
    println!(
        "{} adversarial crashes survived: every recovery was atomic \
         ({rolled_back} rolled back, {} completed)",
        trials * 2,
        trials * 2 - rolled_back
    );
}
