//! Property tests for the persistence-instruction semantics.

use memsim::{CrashSpec, Machine, MachineConfig, PmWriter};
use miniprop::prelude::*;
use pmtrace::{Category, Tid};

const TID: Tid = Tid(0);

#[derive(Debug, Clone)]
enum MemOp {
    Store { slot: u64, val: u8 },
    StoreNt { slot: u64, val: u8 },
    FlushFence,
}

fn scripts() -> impl Strategy<Value = Vec<MemOp>> {
    collection::vec(
        prop_oneof![
            (0u64..64, any::<u8>()).prop_map(|(slot, val)| MemOp::Store { slot, val }),
            (0u64..64, any::<u8>()).prop_map(|(slot, val)| MemOp::StoreNt { slot, val }),
            Just(MemOp::FlushFence),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fenced writes always survive DropVolatile; PersistAll equals the
    /// functional state; Adversarial lands linewise between the two.
    #[test]
    fn crash_lattice(script in scripts(), seed in any::<u64>()) {
        // Run the same script on three machines, crash each mode.
        // admissible[slot] tracks the values that were "current" at or
        // after the slot's last fence — exactly the set the hardware
        // may leave durable (the fence pins a floor; later drains and
        // evictions only move forward).
        let run = || {
            let mut m = Machine::new(MachineConfig::tiny_for_tests());
            let base = m.config().map.pm.base;
            let mut w = PmWriter::new(TID);
            let mut admissible: Vec<std::collections::HashSet<u8>> =
                (0..64).map(|_| [0u8].into_iter().collect()).collect();
            let mut latest = [None::<u8>; 64];
            for op in &script {
                match op {
                    MemOp::Store { slot, val } | MemOp::StoreNt { slot, val } => {
                        match op {
                            MemOp::Store { .. } => {
                                w.write(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                            }
                            _ => w.write_nt(&mut m, base + slot * 64, &[*val; 8], Category::UserData),
                        }
                        latest[*slot as usize] = Some(*val);
                        admissible[*slot as usize].insert(*val);
                    }
                    MemOp::FlushFence => {
                        w.durability_fence(&mut m);
                        // The fence pins each written slot at its newest
                        // value: older values can no longer surface.
                        for slot in 0..64usize {
                            if let Some(l) = latest[slot] {
                                admissible[slot] = [l].into_iter().collect();
                            }
                        }
                    }
                }
            }
            (m, base, admissible, latest)
        };

        // DropVolatile: every durable value was current at or after the
        // slot's last fence.
        let (m, base, admissible, _) = run();
        let img = m.crash(CrashSpec::DropVolatile);
        for slot in 0..64u64 {
            let got = img.read_vec(base + slot * 64, 1)[0];
            prop_assert!(
                admissible[slot as usize].contains(&got),
                "slot {}: durable {} predates the last fence ({:?})",
                slot, got, admissible[slot as usize]
            );
        }

        // PersistAll: always the newest values.
        let (m, base, _, latest) = run();
        let img = m.crash(CrashSpec::PersistAll);
        for slot in 0..64u64 {
            let got = img.read_vec(base + slot * 64, 1)[0];
            prop_assert_eq!(got, latest[slot as usize].unwrap_or(0));
        }

        // Adversarial: every durable value is admissible too (adversity
        // chooses among in-flight lines, never invents values or
        // resurrects pre-fence ones).
        let (m, base, admissible, _) = run();
        let img = m.crash(CrashSpec::Adversarial { seed });
        for slot in 0..64u64 {
            let got = img.read_vec(base + slot * 64, 1)[0];
            prop_assert!(
                admissible[slot as usize].contains(&got),
                "slot {}: impossible value {}",
                slot, got
            );
        }
    }

    /// Functional reads always see the latest store, regardless of
    /// flush/fence activity.
    #[test]
    fn functional_state_is_always_current(script in scripts()) {
        let mut m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        let mut w = PmWriter::new(TID);
        let mut latest = [0u8; 64];
        for op in &script {
            match op {
                MemOp::Store { slot, val } => {
                    w.write(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                    latest[*slot as usize] = *val;
                }
                MemOp::StoreNt { slot, val } => {
                    w.write_nt(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                    latest[*slot as usize] = *val;
                }
                MemOp::FlushFence => w.durability_fence(&mut m),
            }
            for slot in 0..64u64 {
                prop_assert_eq!(
                    m.load_vec(TID, base + slot * 64, 1)[0],
                    latest[slot as usize]
                );
            }
        }
    }

    /// Once every stored line is flushed and every thread fenced, no
    /// line is in flight: the media reads back what loads return.
    #[test]
    fn flushing_everything_leaves_nothing_in_flight(script in scripts()) {
        let mut m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        let mut w = PmWriter::new(TID);
        for op in &script {
            match op {
                MemOp::Store { slot, val } => {
                    w.write(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                }
                MemOp::StoreNt { slot, val } => {
                    w.write_nt(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                }
                MemOp::FlushFence => w.durability_fence(&mut m),
            }
        }
        for slot in 0..64u64 {
            m.clwb(TID, base + slot * 64);
        }
        for t in 0..m.config().threads {
            m.sfence(Tid(t));
        }
        prop_assert_eq!(m.undurable_lines(), 0);
        let img = m.durable_image();
        prop_assert_eq!(img.read_vec(base, 64 * 64), m.load_vec(TID, base, 64 * 64));
    }

    /// The trace records exactly the PM stores and fences issued.
    #[test]
    fn trace_completeness(script in scripts()) {
        let mut m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        let mut w = PmWriter::new(TID);
        let mut stores = 0usize;
        let mut fences = 0usize;
        for op in &script {
            match op {
                MemOp::Store { slot, val } => {
                    w.write(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                    stores += 1;
                }
                MemOp::StoreNt { slot, val } => {
                    w.write_nt(&mut m, base + slot * 64, &[*val; 8], Category::UserData);
                    stores += 1;
                }
                MemOp::FlushFence => {
                    w.durability_fence(&mut m);
                    fences += 1;
                }
            }
        }
        let got_stores = m
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, pmtrace::EventKind::PmStore { .. }))
            .count();
        let got_fences = m
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, pmtrace::EventKind::Fence | pmtrace::EventKind::DFence))
            .count();
        prop_assert_eq!(got_stores, stores);
        prop_assert_eq!(got_fences, fences);
        // Timestamps are monotone.
        let ts: Vec<u64> = m.trace().events().iter().map(|e| e.at_ns).collect();
        prop_assert!(ts.windows(2).all(|p| p[0] <= p[1]));
    }
}
