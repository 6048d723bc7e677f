//! Memcached over Mnemosyne-style transactions (Section 3.2.2).
//!
//! "Memcached is an in-memory key-value store used by web applications
//! as an object cache ... It stores objects in a hash table and an LRU
//! replacement policy. We modified Memcached to allocate the hash table
//! in PM segments, ensured that all accesses to PM execute atomically
//! in durable transactions, and replaced all locks used for
//! synchronizing concurrent access to the table with transactions."
//!
//! The worker threads (memcached is natively threaded; Table 1 runs 4)
//! are interleaved per-request by a seeded [`memsim::Scheduler`] and
//! share one machine. The object table is a [`pmds::CHash`] — the
//! former table lock region replaced by the concurrent hash's announce
//! discipline, its per-worker slots standing in for the paper's
//! lock-to-transaction conversion. The LRU list keeps its Mnemosyne
//! redo transactions (`begin`/`commit` around each former lock region),
//! which also keeps the redo log's NT write stream prominent
//! (Consequence 10). A GET is volatile except for memcached's lazy LRU
//! bump, which keeps PM write traffic low at memslap's 5 % SET mix.

use super::{machine_for, App, AppRun, Layer, Setup, VolatileArena, WORKERS};
use crate::crashtest::{Arm, CrashRun};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use crate::workloads::{self, MemslapOp};
use memsim::{Machine, MachineConfig, PmWriter, Scheduler};
use pmalloc::ShardedSlab;
use pmds::{CHash, PLruList};
use pmem::{Addr, AddrRange, PmImage};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use pmtx::RedoTxEngine;
use std::collections::HashMap;

/// Memcached's Table 1 row.
pub(crate) const APP: App = App {
    name: "memcached",
    workload: "memslap / 4 clients, 5% SET",
    layer: Layer::Mnemosyne,
    base_ops: 20_000,
    paper: PaperRow {
        epochs_per_sec: 1.5e6,
        fig3_median: 4,
        fig5_self_pct: 63.5,
        fig5_cross_pct: 0.2,
        fig6_pm_pct: None,
    },
    setup,
    unpaced: false,
    crash_ops: 80,
    crash_run,
};

#[derive(Clone)]
pub(crate) struct Memcached {
    pub(crate) eng: RedoTxEngine,
    pub(crate) alloc: ShardedSlab,
    pub(crate) table: CHash,
    pub(crate) lru: PLruList,
    /// Volatile map key → LRU node (memcached keeps such pointers in
    /// its item headers; ours lives in DRAM like the rest of the item
    /// bookkeeping).
    pub(crate) lru_nodes: HashMap<u64, Addr>,
    pub(crate) log_region: AddrRange,
    pub(crate) table_region: AddrRange,
    /// One line per worker for the crash-run fence prologue.
    pub(crate) scratch: Addr,
    /// Monotone sequence tags for the table's announce slots.
    seq: u64,
}

impl Memcached {
    pub(crate) fn build(m: &mut Machine, workers: u32, ops: usize) -> Memcached {
        let mut plan = RegionPlanner::new(m.config().map.pm);
        let log_region = plan.take(8 << 20);
        let arena_lines = (ops as u64 * 8).max(1 << 12);
        let table_region = plan.take(CHash::region_bytes(workers, arena_lines));
        let lru_region = plan.take(64);
        let scratch = plan.take(u64::from(workers) * 64).base;
        let mut eng = RedoTxEngine::format(m, log_region, workers);
        let mut w = PmWriter::new(Tid(0));
        // Mnemosyne's allocator keeps per-thread arenas.
        let heap = plan.take(ShardedSlab::region_bytes(64 << 20, workers as usize));
        let alloc = ShardedSlab::format(m, &mut w, heap.base, 64 << 20, workers as usize);
        let table = CHash::create(m, Tid(0), table_region, workers, 64).expect("table");
        eng.begin(m, Tid(0)).expect("setup tx");
        let lru = PLruList::create(m, &mut eng, Tid(0), lru_region).expect("lru");
        eng.commit(m, Tid(0)).expect("setup");
        Memcached {
            eng,
            alloc,
            table,
            lru,
            lru_nodes: HashMap::new(),
            log_region,
            table_region,
            scratch,
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn set(&mut self, m: &mut Machine, tid: Tid, key: u64, val: &[u8], capacity: usize) {
        let kb = key.to_le_bytes();
        // Former lock region 1, the hash table — now the concurrent
        // hash's announce discipline, no lock and no transaction.
        let seq = self.next_seq();
        let fresh = self
            .table
            .upsert(m, tid, tid.0, seq, &kb, val)
            .expect("insert");
        // Former lock region 2, the LRU list — one redo transaction,
        // only for fresh items; overwrites just refresh the item's
        // volatile access stamp (memcached's lazy LRU maintenance).
        if fresh {
            self.alloc.select(tid.0 as usize);
            self.eng.begin(m, tid).expect("tx");
            let node = self
                .lru
                .push_front(m, &mut self.eng, tid, &mut self.alloc, key)
                .expect("lru push");
            self.lru_nodes.insert(key, node);
            let victim = if self.lru_nodes.len() > capacity {
                self.lru
                    .pop_back(m, &mut self.eng, tid, &mut self.alloc)
                    .expect("evict")
            } else {
                None
            };
            self.eng.commit(m, tid).expect("commit");
            // The item itself is unlinked outside the LRU transaction
            // (memcached frees the item after the lock is dropped).
            if let Some(victim) = victim {
                self.lru_nodes.remove(&victim);
                let seq = self.next_seq();
                self.table
                    .remove(m, tid, tid.0, seq, &victim.to_le_bytes())
                    .expect("evict item");
            }
        }
    }

    fn get(&mut self, m: &mut Machine, tid: Tid, key: u64, lazy_touch: bool) -> Option<Vec<u8>> {
        let v = self.table.get(m, tid, &key.to_le_bytes());
        if v.is_some() && lazy_touch {
            if let Some(&node) = self.lru_nodes.get(&key) {
                self.eng.begin(m, tid).expect("tx");
                self.lru.touch(m, &mut self.eng, tid, node).expect("touch");
                self.eng.commit(m, tid).expect("commit");
            }
        }
        v
    }
}

/// Crash workload + recovery oracle (see [`crate::crashtest`]): a
/// SET-only stream over a small keyspace with capacity above the
/// operation count, so no eviction runs. A SET is the concurrent
/// table's detectable upsert followed, for fresh keys, by the LRU redo
/// transaction; the oracle recovers both and requires every committed
/// key to carry its last committed value. The in-flight SET may have
/// landed neither, only the table phase, or both — the LRU length must
/// sit between the committed distinct-key count and one more.
pub(crate) fn crash_run(ops: usize, arm: &Arm<'_>) -> CrashRun {
    const CRASH_KEYSPACE: u64 = 24;
    let workers = WORKERS;
    let mut m = machine_for(workers);
    m.trace_mut().set_enabled(false);
    let mut mc = Memcached::build(&mut m, workers, ops);
    let mut sched = Scheduler::new(workers, 0x3e7c);
    let schedule: Vec<Tid> = (0..ops).map(|_| sched.next()).collect();
    let mut rng = SmallRng::seed_from_u64(0x3e7c);
    let plan_ops: Vec<(u64, [u8; 16])> = (0..ops)
        .map(|i| {
            let key = rng.gen_range(0..CRASH_KEYSPACE);
            let mut val = [0u8; 16];
            val[0..8].copy_from_slice(&key.to_le_bytes());
            val[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            (key, val)
        })
        .collect();

    arm.apply_to_workers(&mut m, workers, mc.scratch);
    for (i, (key, val)) in plan_ops.iter().enumerate() {
        let tid = schedule[i];
        mc.set(&mut m, tid, *key, val, ops + 10);
        m.note_progress(i as u64 + 1);
    }

    let log = mc.log_region;
    let table_region = mc.table_region;
    let lru = mc.lru;
    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut cfg = MachineConfig::asplos17();
        cfg.threads = cfg.threads.max(workers);
        let mut m2 = Machine::from_image(cfg, img);
        let _eng2 = RedoTxEngine::recover(&mut m2, Tid(0), log, workers);
        let mut table2 = CHash::open(&mut m2, Tid(0), table_region)
            .map_err(|e| format!("table open failed: {e:?}"))?;
        let _ = table2.recover(&mut m2, Tid(0));
        let mut model: HashMap<u64, [u8; 16]> = HashMap::new();
        for (k, v) in &plan_ops[..progress as usize] {
            model.insert(*k, *v);
        }
        let in_flight = plan_ops.get(progress as usize);
        for key in 0..CRASH_KEYSPACE {
            let got = table2.get(&mut m2, Tid(0), &key.to_le_bytes());
            let committed_ok = match (got.as_deref(), model.get(&key)) {
                (Some(g), Some(w)) => g == w.as_slice(),
                (None, None) => true,
                _ => false,
            };
            let in_flight_ok = matches!(
                in_flight,
                Some((k, v)) if *k == key && got.as_deref() == Some(v.as_slice())
            );
            if !(committed_ok || in_flight_ok) {
                return Err(format!(
                    "key {key}: recovered {:?} != committed {:?}",
                    got.as_deref().map(<[u8]>::to_vec),
                    model.get(&key).map(|v| v.to_vec())
                ));
            }
        }
        let committed_distinct = model.len() as u64;
        let lru_len = lru.len(&mut m2, Tid(0));
        if lru_len != committed_distinct && lru_len != committed_distinct + 1 {
            return Err(format!(
                "LRU length {lru_len} outside [{committed_distinct}, {}]",
                committed_distinct + 1
            ));
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total, oracle)
}

/// Run memslap (Table 1: 4 clients, 5 % SET).
pub fn run(ops: usize, seed: u64) -> AppRun {
    run_threads(ops, seed, WORKERS)
}

/// [`run`] with an explicit worker-thread count (`--threads`).
pub fn run_threads(ops: usize, seed: u64, workers: u32) -> AppRun {
    APP.run(ops, seed, workers)
}

/// Setup is untraced: the measured interval is the memslap run.
fn setup(ops: usize, workers: u32) -> Setup {
    let mut m = machine_for(workers);
    m.trace_mut().set_enabled(false);
    let mc = Memcached::build(&mut m, workers, ops);
    let arena = VolatileArena::new(&mut m, 2 << 20);
    Setup::new(m, (ops, workers, mc, arena), drive)
}

fn drive(
    mut m: Machine,
    (ops, workers, mut mc, mut arena): (usize, u32, Memcached, VolatileArena),
    seed: u64,
    _paced: bool,
) -> AppRun {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let keyspace = (ops / 2).clamp(64, 4000);
    let capacity = keyspace;

    // Seeded per-request worker interleaving — deterministic in `seed`.
    let mut sched = Scheduler::new(workers, seed);
    m.trace_mut().set_enabled(true);
    for op in workloads::memslap(keyspace, ops, 5, seed) {
        let tid = sched.next();
        // Protocol parsing, connection state, item header checks.
        arena.work(&mut m, tid, 250);
        // Connection turnaround between requests.
        m.advance_ns(4_500);
        match op {
            MemslapOp::Get { key } => {
                // Lazy LRU: memcached only re-links items idle for a
                // while, so touches are rare.
                let lazy = rng.gen_range(0..128) == 0;
                if mc.get(&mut m, tid, key, lazy).is_none() {
                    // Cache miss: the web app would fetch and SET.
                    mc.set(&mut m, tid, key, &[key as u8; 24], capacity);
                }
            }
            MemslapOp::Set { key, vsize } => {
                mc.set(&mut m, tid, key, &vec![key as u8; vsize.min(24)], capacity);
            }
        }
    }

    APP.collect(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::CrashSpec;
    use pmtrace::analysis::{self, Analyzer};

    #[test]
    fn transactions_small_and_epochs_singleton_heavy() {
        let report = Analyzer::analyze_events(&run(400, 11).events);
        let median = report.tx_stats.median().unwrap();
        assert!((3..=25).contains(&median), "memcached median {median}");
        let hist = report.size_hist;
        assert!(
            hist.singleton_fraction() > 0.5,
            "singletons {}",
            hist.singleton_fraction()
        );
    }

    #[test]
    fn mnemosyne_nt_fraction_substantial() {
        // Consequence 10: ~67% of Mnemosyne's writes are NT (redo log).
        let run = run(400, 11);
        let epochs = analysis::split_epochs(&run.events);
        let nt = analysis::nt_fraction(&epochs).unwrap();
        assert!(nt > 0.35 && nt < 0.95, "NT fraction {nt}");
    }

    #[test]
    fn four_workers_share_the_table() {
        let deps = Analyzer::analyze_events(&run(400, 11).events).deps;
        assert!(
            deps.cross_dep_epochs > 0,
            "scheduler-interleaved workers over one table: cross-deps expected"
        );
    }

    #[test]
    fn cache_behaves_like_lru() {
        let mut m = machine_for(WORKERS);
        let mut mc = Memcached::build(&mut m, WORKERS, 64);
        for key in 0..5u64 {
            mc.set(&mut m, Tid(0), key, b"value-xx", 3);
        }
        // Capacity 3: keys 0 and 1 evicted.
        assert!(mc.get(&mut m, Tid(0), 0, false).is_none());
        assert!(mc.get(&mut m, Tid(0), 4, false).is_some());
        assert_eq!(mc.lru.len(&mut m, Tid(0)), 3);
    }

    #[test]
    fn committed_sets_survive_crash() {
        let mut m = machine_for(WORKERS);
        let mut mc = Memcached::build(&mut m, WORKERS, 64);
        mc.set(&mut m, Tid(2), 99, b"cached!!", 100);
        let table_region = mc.table_region;
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut table2 = CHash::open(&mut m2, Tid(0), table_region).unwrap();
        let _ = table2.recover(&mut m2, Tid(0));
        assert_eq!(
            table2.get(&mut m2, Tid(0), &99u64.to_le_bytes()).as_deref(),
            Some(&b"cached!!"[..])
        );
    }
}
