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

use super::{arena_bytes, config_for, App, AppRun, Layer, Setup, VolatileArena};
use crate::crashtest::{self, Workload};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use crate::workloads::{self, MemslapOp};
use memsim::{Machine, MachineConfig, PmWriter, Scheduler};
use pmalloc::ShardedSlab;
use pmds::{CHash, PLruList};
use pmem::{Addr, AddrRange};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use pmtx::RedoTxEngine;
use std::collections::{BTreeMap, HashMap};

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
    crash_run: crashtest::run::<Memcached>,
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
    /// One line per worker for the crash workload's fence prologue
    /// ([`Workload::scratch`]).
    pub(crate) scratch: Addr,
    /// Monotone sequence tags for the table's announce slots.
    seq: u64,
    /// Worker threads the engine and table were formatted for.
    workers: u32,
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
        let arena = arena_bytes(workers);
        let heap = plan.take(ShardedSlab::region_bytes(arena, workers as usize));
        let alloc = ShardedSlab::format(m, &mut w, heap.base, arena, workers as usize);
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
            workers,
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

/// What memcached's recovery reads back.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MemcachedModel {
    /// Key → value.
    table: BTreeMap<u64, Vec<u8>>,
    /// Items on the LRU list.
    lru_len: u64,
}

const CRASH_KEYSPACE: u64 = 24;

/// Crash workload (see [`crate::crashtest`]): a SET-only stream over a
/// small keyspace, so no eviction runs. A SET is the concurrent table's
/// detectable upsert followed, for fresh keys, by the LRU redo
/// transaction; recovery reads back every key and the LRU length.
impl Workload for Memcached {
    /// A SET: key and value.
    type Op = (u64, [u8; 16]);
    type Model = MemcachedModel;

    fn config(workers: u32) -> MachineConfig {
        config_for(workers)
    }

    fn build(m: &mut Machine, ops: usize, workers: u32) -> Memcached {
        Memcached::build(m, workers, ops)
    }

    fn plan(ops: usize, workers: u32) -> Vec<(Tid, Self::Op)> {
        let mut sched = Scheduler::new(workers, 0x3e7c);
        let mut rng = SmallRng::seed_from_u64(0x3e7c);
        (0..ops)
            .map(|i| {
                let key = rng.gen_range(0..CRASH_KEYSPACE);
                let mut val = [0u8; 16];
                val[0..8].copy_from_slice(&key.to_le_bytes());
                val[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
                (sched.next(), (key, val))
            })
            .collect()
    }

    fn scratch(&self) -> Option<Addr> {
        Some(self.scratch)
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, (key, val): &Self::Op) {
        // Unbounded capacity: the campaign never evicts.
        self.set(m, tid, *key, val, usize::MAX);
    }

    fn model(model: &mut MemcachedModel, _seq: u64, (key, val): &Self::Op) {
        model.table.insert(*key, val.to_vec());
        model.lru_len = model.table.len() as u64;
    }

    fn recover(&self, m: &mut Machine) -> Result<MemcachedModel, String> {
        let _eng = RedoTxEngine::recover(m, Tid(0), self.log_region, self.workers);
        let mut table = CHash::open(m, Tid(0), self.table_region)
            .map_err(|e| format!("table open failed: {e:?}"))?;
        let _ = table.recover(m, Tid(0));
        Ok(MemcachedModel {
            table: (0..CRASH_KEYSPACE)
                .filter_map(|key| Some((key, table.get(m, Tid(0), &key.to_le_bytes())?)))
                .collect(),
            lru_len: self.lru.len(m, Tid(0)),
        })
    }

    /// The table phase lands before the LRU phase: each key at the
    /// prefix or the in-flight value, and the LRU length at the
    /// committed distinct-key count or one more.
    fn accept(
        view: &MemcachedModel,
        before: &MemcachedModel,
        after: &MemcachedModel,
        _op: Option<&Self::Op>,
    ) -> bool {
        (view.table == before.table || view.table == after.table)
            && (before.lru_len..=before.lru_len + 1).contains(&view.lru_len)
    }
}

/// Setup is untraced: the measured interval is the memslap run.
fn setup(ops: usize, workers: u32) -> Setup {
    let mut m = Machine::new(config_for(workers));
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
    use crate::apps::WORKERS;
    use memsim::CrashSpec;
    use memsim::MachineConfig;
    use pmtrace::analysis::{self, Analyzer};

    #[test]
    fn transactions_small_and_epochs_singleton_heavy() {
        let report = Analyzer::analyze_events(&APP.run(400, 11, WORKERS).events);
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
        let run = APP.run(400, 11, WORKERS);
        let epochs = analysis::split_epochs(&run.events);
        let nt = analysis::nt_fraction(&epochs).unwrap();
        assert!(nt > 0.35 && nt < 0.95, "NT fraction {nt}");
    }

    #[test]
    fn four_workers_share_the_table() {
        let deps = Analyzer::analyze_events(&APP.run(400, 11, WORKERS).events).deps;
        assert!(
            deps.cross_dep_epochs > 0,
            "scheduler-interleaved workers over one table: cross-deps expected"
        );
    }

    #[test]
    fn cache_behaves_like_lru() {
        let mut m = Machine::new(config_for(WORKERS));
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
        let mut m = Machine::new(config_for(WORKERS));
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
