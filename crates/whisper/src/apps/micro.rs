//! The NVML example micro-benchmarks: `ctree` and `hashmap`
//! (Section 3.2.2).
//!
//! "C-tree and Hashmap are multi-threaded micro-benchmarks written for
//! NVML that perform inserts and deletes operations into a persistent
//! crit-bit tree or a hashmap. These benchmarks are part of the
//! examples shipped with NVML." The paper notes micro-benchmarks like
//! these are "simulator-suitable" stand-ins whose "memory access
//! patterns are representative of larger workloads".
//!
//! Table 1 drives both with 4 clients and 100 K INSERT transactions;
//! we mix in the deletes the benchmark also implements.

use super::{App, AppRun, Layer, Setup, VolatileArena, WORKERS};
use crate::crashtest::{Arm, CrashRun};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use memsim::{Machine, MachineConfig, PmWriter};
use pmalloc::ShardedSlab;
use pmds::{CritBitTree, DsError, PHashMap};
use pmem::{Addr, AddrRange, PmImage};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use pmtx::UndoTxEngine;
use std::collections::HashMap;

/// The `ctree` micro-benchmark's Table 1 row.
pub(crate) const CTREE: App = App {
    name: "ctree",
    workload: "4 clients, INSERT transactions",
    layer: Layer::Nvml,
    base_ops: 16_000,
    paper: PaperRow {
        epochs_per_sec: 1.0e6,
        fig3_median: 11,
        fig5_self_pct: 79.0,
        fig5_cross_pct: 0.0,
        fig6_pm_pct: Some(3.32),
    },
    setup: setup::<CritBitTree>,
    unpaced: true,
    crash_ops: 96,
    crash_run: crash_run::<CritBitTree>,
};

/// The `hashmap` micro-benchmark's Table 1 row.
pub(crate) const HASHMAP: App = App {
    name: "hashmap",
    workload: "4 clients, INSERT transactions",
    layer: Layer::Nvml,
    base_ops: 16_000,
    paper: PaperRow {
        epochs_per_sec: 1.3e6,
        fig3_median: 11,
        fig5_self_pct: 81.0,
        fig5_cross_pct: 0.0,
        fig6_pm_pct: Some(2.6),
    },
    setup: setup::<PHashMap>,
    unpaced: true,
    crash_ops: 96,
    crash_run: crash_run::<PHashMap>,
};

const THREADS: u32 = 4;

/// The benchmark's handles on its machine.
#[derive(Clone)]
struct MicroEnv {
    eng: UndoTxEngine,
    /// Per-thread allocator arenas, as in NVML's per-thread allocation
    /// classes — shared allocator metadata would otherwise manufacture
    /// cross-thread dependencies the real benchmarks do not have.
    alloc: ShardedSlab,
    arena: VolatileArena,
    /// Engine log region — the recovery oracle's re-open handle.
    log_region: AddrRange,
}

/// What the two micro-benchmarks ask of the persistent structure they
/// drive. Everything else about them — driver loop, crash workload,
/// recovery oracle — is written once below.
trait Keyed: Copy + Send + Sync + 'static {
    /// The benchmark's Table 1 row.
    const ROW: App;
    /// The driver's volatile work per operation in DRAM accesses, paced
    /// and unpaced, and the paced driver's per-op loop overhead in ns.
    const DRIVER: (u64, u64, u64);
    /// Seed of the crash workload's op plan.
    const CRASH_SEED: u64;
    /// A stored value, as [`Keyed::lookup`] returns it.
    type Value: PartialEq + std::fmt::Debug;

    /// Create the structure in a fresh region (inside the caller's
    /// transaction); also returns the address [`Keyed::reopen`] takes.
    fn create_in(m: &mut Machine, env: &mut MicroEnv, plan: &mut RegionPlanner) -> (Self, Addr);
    fn reopen(m: &mut Machine, at: Addr) -> Result<Self, DsError>;
    /// The value operation number `seq` inserts.
    fn value(seq: u64) -> Self::Value;
    fn put(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64, seq: u64);
    fn delete(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64);
    fn lookup(self, m: &mut Machine, eng: &mut UndoTxEngine, key: u64) -> Option<Self::Value>;
}

impl Keyed for CritBitTree {
    const ROW: App = CTREE;
    const DRIVER: (u64, u64, u64) = (900, 300, 11_000);
    const CRASH_SEED: u64 = 0xc47ee;
    type Value = u64;

    fn create_in(m: &mut Machine, env: &mut MicroEnv, plan: &mut RegionPlanner) -> (Self, Addr) {
        let region = plan.take(pmds::HEADER_BYTES);
        let tree = CritBitTree::create(m, &mut env.eng, Tid(0), region).expect("tree");
        (tree, region.base)
    }

    fn reopen(m: &mut Machine, at: Addr) -> Result<Self, DsError> {
        CritBitTree::open(m, Tid(0), at)
    }

    fn value(seq: u64) -> u64 {
        seq
    }

    fn put(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64, seq: u64) {
        let MicroEnv { eng, alloc, .. } = env;
        self.insert(m, eng, tid, alloc, &key.to_be_bytes(), seq)
            .expect("insert");
    }

    fn delete(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64) {
        let MicroEnv { eng, alloc, .. } = env;
        self.remove(m, eng, tid, alloc, &key.to_be_bytes())
            .expect("remove");
    }

    fn lookup(self, m: &mut Machine, eng: &mut UndoTxEngine, key: u64) -> Option<u64> {
        self.get(m, eng, Tid(0), &key.to_be_bytes())
    }
}

impl Keyed for PHashMap {
    const ROW: App = HASHMAP;
    const DRIVER: (u64, u64, u64) = (850, 280, 6_500);
    const CRASH_SEED: u64 = 0x4a54;
    type Value = Vec<u8>;

    fn create_in(m: &mut Machine, env: &mut MicroEnv, plan: &mut RegionPlanner) -> (Self, Addr) {
        let region = plan.take(PHashMap::region_bytes(512));
        let map = PHashMap::create(m, &mut env.eng, Tid(0), region, 512).expect("map");
        (map, region.base)
    }

    fn reopen(m: &mut Machine, at: Addr) -> Result<Self, DsError> {
        PHashMap::open(m, Tid(0), at)
    }

    fn value(seq: u64) -> Vec<u8> {
        vec![seq as u8; 32]
    }

    fn put(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64, seq: u64) {
        let MicroEnv { eng, alloc, .. } = env;
        self.insert(m, eng, tid, alloc, &key.to_le_bytes(), &[seq as u8; 32])
            .expect("insert");
    }

    fn delete(self, m: &mut Machine, env: &mut MicroEnv, tid: Tid, key: u64) {
        let MicroEnv { eng, alloc, .. } = env;
        self.remove(m, eng, tid, alloc, &key.to_le_bytes())
            .expect("remove");
    }

    fn lookup(self, m: &mut Machine, eng: &mut UndoTxEngine, key: u64) -> Option<Vec<u8>> {
        self.get(m, eng, Tid(0), &key.to_le_bytes())
    }
}

/// A fresh machine and environment with an empty `S` created in its
/// setup transaction, and the address to re-open the structure at.
fn build<S: Keyed>() -> (Machine, MicroEnv, S, Addr) {
    let mut m = Machine::new(MachineConfig::asplos17());
    // Setup is untraced: the measured interval is the insert workload.
    m.trace_mut().set_enabled(false);
    let mut plan = RegionPlanner::new(m.config().map.pm);
    let log_region = plan.take(8 << 20);
    let eng = UndoTxEngine::format(&mut m, log_region, THREADS);
    let mut w = PmWriter::new(Tid(0));
    let heap = plan.take(ShardedSlab::region_bytes(96 << 20, THREADS as usize));
    let alloc = ShardedSlab::format(&mut m, &mut w, heap.base, 96 << 20, THREADS as usize);
    let arena = VolatileArena::new(&mut m, 1 << 20);
    let mut env = MicroEnv {
        eng,
        alloc,
        arena,
        log_region,
    };
    env.eng.begin(&mut m, Tid(0)).expect("setup tx");
    let (structure, at) = S::create_in(&mut m, &mut env, &mut plan);
    env.eng.commit(&mut m, Tid(0)).expect("setup");
    (m, env, structure, at)
}

/// Crash workload + oracle for a micro-benchmark (see
/// [`crate::crashtest`]): per-op insert/remove transactions, 85 %
/// inserts over a small keyspace; the oracle recovers the engine,
/// re-opens the structure, and compares every key against the
/// committed prefix, allowing the in-flight op's key to hold either
/// its old or its new state.
fn crash_run<S: Keyed>(ops: usize, arm: &Arm<'_>) -> CrashRun {
    const CRASH_KEYSPACE: u64 = 32;
    let (mut m, mut env, structure, at) = build::<S>();
    let mut rng = SmallRng::seed_from_u64(S::CRASH_SEED);
    let plan_ops: Vec<(bool, u64)> = (0..ops)
        .map(|_| (rng.gen_range(0..100) < 85, rng.gen_range(0..CRASH_KEYSPACE)))
        .collect();

    arm.apply(&mut m);
    for (i, (insert, key)) in plan_ops.iter().enumerate() {
        let tid = Tid((i % THREADS as usize) as u32);
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut m, tid).expect("tx");
        if *insert {
            structure.put(&mut m, &mut env, tid, *key, i as u64 + 1);
        } else {
            structure.delete(&mut m, &mut env, tid, *key);
        }
        env.eng.commit(&mut m, tid).expect("commit");
        m.note_progress(i as u64 + 1);
    }

    let log = env.log_region;
    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let mut eng2 = UndoTxEngine::recover(&mut m2, Tid(0), log, THREADS);
        let reopened =
            S::reopen(&mut m2, at).map_err(|e| format!("{} open failed: {e:?}", S::ROW.name))?;
        // Key -> the op number whose value the committed prefix left.
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (i, (insert, key)) in plan_ops[..progress as usize].iter().enumerate() {
            if *insert {
                model.insert(*key, i as u64 + 1);
            } else {
                model.remove(key);
            }
        }
        let in_flight = plan_ops.get(progress as usize);
        for key in 0..CRASH_KEYSPACE {
            let got = reopened.lookup(&mut m2, &mut eng2, key);
            let want = model.get(&key).map(|seq| S::value(*seq));
            if got == want {
                continue;
            }
            let after = match in_flight {
                Some((insert, k)) if *k == key => insert.then(|| S::value(progress + 1)),
                _ => {
                    return Err(format!(
                        "key {key}: recovered {got:?} != committed {want:?}"
                    ));
                }
            };
            if got != after {
                return Err(format!(
                    "key {key}: recovered {got:?}, neither old {want:?} nor in-flight {after:?}"
                ));
            }
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total, oracle)
}

fn setup<S: Keyed>(ops: usize, _workers: u32) -> Setup {
    let (m, env, structure, _) = build::<S>();
    Setup::new(m, (ops, env, structure), drive::<S>)
}

/// The driver: transactional inserts (85 %) and deletes of random keys,
/// one per operation, round-robin over the four clients.
fn drive<S: Keyed>(
    mut m: Machine,
    (ops, mut env, structure): (usize, MicroEnv, S),
    seed: u64,
    paced: bool,
) -> AppRun {
    let mut rng = SmallRng::seed_from_u64(seed);
    let keyspace = (ops * 2).max(64) as u64;
    let (paced_work, unpaced_work, loop_ns) = S::DRIVER;

    m.trace_mut().set_enabled(true);
    for i in 0..ops {
        let tid = Tid((i % THREADS as usize) as u32);
        let work = if paced { paced_work } else { unpaced_work };
        env.arena.work(&mut m, tid, work);
        // The benchmark driver's per-op loop overhead.
        if paced {
            m.advance_ns(loop_ns);
        }
        let key = rng.gen_range(0..keyspace);
        env.alloc.select(tid.0 as usize);
        env.eng.begin(&mut m, tid).expect("tx");
        if rng.gen_range(0..100) < 85 {
            structure.put(&mut m, &mut env, tid, key, i as u64);
        } else {
            structure.delete(&mut m, &mut env, tid, key);
        }
        env.eng.commit(&mut m, tid).expect("commit");
    }

    S::ROW.collect(m)
}

/// `ctree` without driver overhead (gem5-style, for Figures 6/10).
pub fn ctree_unpaced(ops: usize, seed: u64) -> AppRun {
    CTREE.run_unpaced(ops, seed)
}

/// The `ctree` micro-benchmark: transactional inserts (and some
/// deletes) into a persistent crit-bit tree.
pub fn ctree(ops: usize, seed: u64) -> AppRun {
    CTREE.run(ops, seed, WORKERS)
}

/// `hashmap` without driver overhead (gem5-style, for Figures 6/10).
pub fn hashmap_unpaced(ops: usize, seed: u64) -> AppRun {
    HASHMAP.run_unpaced(ops, seed)
}

/// The `hashmap` micro-benchmark: transactional inserts (and some
/// deletes) into a persistent chained hash map.
pub fn hashmap(ops: usize, seed: u64) -> AppRun {
    HASHMAP.run(ops, seed, WORKERS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::analysis::Analyzer;

    #[test]
    fn ctree_transactions_in_figure3_band() {
        let report = Analyzer::analyze_events(&ctree(300, 4).events);
        let median = report.tx_stats.median().unwrap();
        assert!((5..=30).contains(&median), "ctree median {median}");
    }

    #[test]
    fn hashmap_transactions_in_figure3_band() {
        let report = Analyzer::analyze_events(&hashmap(300, 4).events);
        let median = report.tx_stats.median().unwrap();
        assert!((5..=30).contains(&median), "hashmap median {median}");
    }

    #[test]
    fn nvml_micros_are_singleton_heavy() {
        // Figure 4: library-based applications average ~75% singletons.
        for run in [ctree(300, 7), hashmap(300, 7)] {
            let hist = Analyzer::analyze_events(&run.events).size_hist;
            assert!(
                hist.singleton_fraction() > 0.55,
                "{}: singleton fraction {}",
                run.name,
                hist.singleton_fraction()
            );
        }
    }

    #[test]
    fn nvml_micros_self_deps_high() {
        // Figure 5: ctree 79%, hashmap 81%.
        for run in [ctree(300, 9), hashmap(300, 9)] {
            let deps = Analyzer::analyze_events(&run.events).deps;
            assert!(
                deps.self_fraction() > 0.5,
                "{}: self-dep {}",
                run.name,
                deps.self_fraction()
            );
        }
    }
}
