//! Redis with an NVML-backed persistent hash table (Section 3.2.2).
//!
//! "Redis ... stores frequently accessed key-value pairs in a hash
//! table and resolves collisions through chaining. ... We borrowed a
//! partially recoverable version of Redis ... modified to store string
//! keys and values in a hash table allocated in PM using NVML."
//!
//! Upstream Redis is single-threaded, but its modern `io-threads`
//! deployment dispatches commands from the event loop to N worker
//! threads — the configuration this port models so the Figure 5
//! dependency analysis sees real cross-thread epoch edges. A seeded
//! [`memsim::Scheduler`] interleaves the workers per-command
//! (deterministically: the interleaving is a pure function of the run
//! seed, bit-identical at any host `--parallel`). The workers share two
//! concurrent durable structures with detectable recovery:
//!
//! * a [`pmds::CHash`] — the keyspace dictionary (per-worker announce
//!   slots, incremental resize), and
//! * a [`pmds::DurableQueue`] — the eviction backlog the `lru-test`
//!   driver pops victims from (per-worker producer slots).
//!
//! Every command still performs heavy volatile work (parsing, reply
//! buffers, the volatile dict machinery), so PM stays a tiny share of
//! traffic (Figure 6 measures redis at 0.74% PM).

use super::{config_for, App, AppRun, Layer, Setup, VolatileArena};
use crate::crashtest::{self, Workload};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use crate::workloads;
use memsim::{Machine, MachineConfig, Scheduler};
use pmds::{CHash, DurableQueue};
use pmem::{Addr, AddrRange};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use std::collections::{BTreeMap, VecDeque};

/// Redis's Table 1 row.
pub(crate) const APP: App = App {
    name: "redis",
    workload: "redis-cli / lru-test",
    layer: Layer::Nvml,
    base_ops: 20_000,
    paper: PaperRow {
        epochs_per_sec: 1.3e6,
        fig3_median: 6,
        fig5_self_pct: 82.5,
        fig5_cross_pct: 0.0,
        fig6_pm_pct: Some(0.74),
    },
    setup,
    unpaced: true,
    crash_ops: 96,
    crash_run: crashtest::run::<Redis>,
};

#[derive(Clone)]
pub(crate) struct Redis {
    pub(crate) dict: CHash,
    pub(crate) backlog: DurableQueue,
    pub(crate) dict_region: AddrRange,
    pub(crate) queue_head: Addr,
    /// One line per worker for the crash workload's fence prologue
    /// ([`Workload::scratch`]).
    pub(crate) scratch: Addr,
    /// Monotone sequence tags for announce-slot operations (never 0).
    seq: u64,
}

impl Redis {
    /// Build the shared structures, sized for `ops` commands from
    /// `workers` workers.
    pub(crate) fn build(m: &mut Machine, workers: u32, ops: usize) -> Redis {
        let mut plan = RegionPlanner::new(m.config().map.pm);
        // Arena sizing: one node per insert/overwrite plus resize
        // copies and directory lines; generous, the image is sparse.
        let arena_lines = (ops as u64 * 8).max(1 << 12);
        let dict_region = plan.take(CHash::region_bytes(workers, arena_lines));
        let queue_region = plan.take(DurableQueue::region_bytes(workers, ops as u64 + 64));
        let scratch = plan.take(u64::from(workers) * 64).base;
        let dict = CHash::create(m, Tid(0), dict_region, workers, 64).expect("dict");
        let backlog =
            DurableQueue::create(m, Tid(0), queue_region, workers, ops as u64 + 64).expect("queue");
        Redis {
            dict,
            backlog,
            dict_region,
            queue_head: queue_region.base,
            scratch,
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// One crash-campaign command: each touches exactly one structure, so
/// the in-flight operation at any fence crash point is wholly applied
/// or wholly absent after detectable recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum COp {
    /// Dictionary upsert.
    Set { key: u64, val: [u8; 16] },
    /// Dictionary tombstone.
    Del { key: u64 },
    /// Backlog enqueue.
    Enq { key: u64 },
    /// Backlog dequeue (no-op on an empty backlog).
    Deq,
}

/// What redis's detectable recovery reads back.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RedisModel {
    /// Key → value.
    dict: BTreeMap<u64, Vec<u8>>,
    /// The backlog's (seq, key) items, FIFO.
    backlog: VecDeque<(u64, Vec<u8>)>,
}

const CRASH_KEYSPACE: u64 = 32;

/// Crash workload (see [`crate::crashtest`]): a seeded-scheduler
/// interleaving of SET/DEL/enqueue/dequeue commands over the shared
/// [`CHash`] and [`DurableQueue`]. Recovery runs both structures'
/// detectable recovery and reads back every key and the backlog.
impl Workload for Redis {
    type Op = COp;
    type Model = RedisModel;

    fn config(workers: u32) -> MachineConfig {
        config_for(workers)
    }

    fn build(m: &mut Machine, ops: usize, workers: u32) -> Redis {
        Redis::build(m, workers, ops)
    }

    fn plan(ops: usize, workers: u32) -> Vec<(Tid, COp)> {
        let mut sched = Scheduler::new(workers, 0x4ed1);
        let mut rng = SmallRng::seed_from_u64(0x4ed1);
        let mut planned_backlog = 0usize;
        (0..ops)
            .map(|i| {
                let key = rng.gen_range(0..CRASH_KEYSPACE);
                let mut val = [0u8; 16];
                val[0..8].copy_from_slice(&key.to_le_bytes());
                val[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
                let op = if i % 4 == 3 {
                    if planned_backlog > 0 && i % 8 == 7 {
                        planned_backlog -= 1;
                        COp::Deq
                    } else {
                        planned_backlog += 1;
                        COp::Enq { key }
                    }
                } else if i % 5 == 4 {
                    COp::Del { key }
                } else {
                    COp::Set { key, val }
                };
                (sched.next(), op)
            })
            .collect()
    }

    fn scratch(&self) -> Option<Addr> {
        Some(self.scratch)
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, seq: u64, op: &COp) {
        match *op {
            COp::Set { key, val } => {
                self.dict
                    .upsert(m, tid, tid.0, seq, &key.to_le_bytes(), &val)
                    .expect("set");
            }
            COp::Del { key } => {
                self.dict
                    .remove(m, tid, tid.0, seq, &key.to_le_bytes())
                    .expect("del");
            }
            COp::Enq { key } => {
                self.backlog
                    .enqueue(m, tid, tid.0, seq, &key.to_le_bytes())
                    .expect("enqueue");
            }
            COp::Deq => {
                self.backlog.dequeue(m, tid, seq).expect("dequeue");
            }
        }
    }

    fn model(model: &mut RedisModel, seq: u64, op: &COp) {
        match *op {
            COp::Set { key, val } => {
                model.dict.insert(key, val.to_vec());
            }
            COp::Del { key } => {
                model.dict.remove(&key);
            }
            COp::Enq { key } => model.backlog.push_back((seq, key.to_le_bytes().to_vec())),
            COp::Deq => {
                model.backlog.pop_front();
            }
        }
    }

    fn recover(&self, m: &mut Machine) -> Result<RedisModel, String> {
        let mut dict = CHash::open(m, Tid(0), self.dict_region)
            .map_err(|e| format!("dict open failed: {e:?}"))?;
        let _ = dict.recover(m, Tid(0));
        let mut backlog = DurableQueue::open(m, Tid(0), self.queue_head)
            .map_err(|e| format!("queue open failed: {e:?}"))?;
        let _ = backlog.recover(m, Tid(0));
        Ok(RedisModel {
            dict: (0..CRASH_KEYSPACE)
                .filter_map(|key| Some((key, dict.get(m, Tid(0), &key.to_le_bytes())?)))
                .collect(),
            backlog: backlog.iter_snapshot(m, Tid(0)).into(),
        })
    }
}

/// lru-test without event-loop pacing (gem5-style, for Figures 6/10).
pub fn run_unpaced(ops: usize, seed: u64) -> AppRun {
    APP.run_unpaced(ops, seed)
}

/// Setup (structure formatting) is untraced: the measured interval is
/// the steady-state workload, as in the paper.
fn setup(ops: usize, workers: u32) -> Setup {
    let mut m = Machine::new(config_for(workers));
    m.trace_mut().set_enabled(false);
    let r = Redis::build(&mut m, workers, ops);
    let arena = VolatileArena::new(&mut m, 2 << 20);
    Setup::new(m, (ops, workers, r, arena), drive)
}

fn drive(
    mut m: Machine,
    (ops, workers, mut r, mut arena): (usize, u32, Redis, VolatileArena),
    seed: u64,
    paced: bool,
) -> AppRun {
    let keyspace = (ops / 2).clamp(64, 8000);
    let capacity = keyspace / 2;
    // The backlog length mirror (Redis tracks its eviction pool size
    // volatilely; the queue itself is the durable source of truth).
    let mut backlog_len = 0usize;

    // The event loop dispatches each command to a seeded worker pick —
    // deterministic in `seed` alone, whatever the host parallelism.
    let mut sched = Scheduler::new(workers, seed);
    m.trace_mut().set_enabled(true);
    for op in workloads::lru_test(keyspace, ops, seed) {
        let tid = sched.next();
        // The worker: read the command, walk the volatile dict
        // machinery, build a reply — thousands of DRAM accesses per
        // command, dwarfing the few PM lines a SET persists (Figure 6
        // measures redis at 0.74% PM).
        arena.work(&mut m, tid, if paced { 1900 } else { 2800 });
        // Event-loop turnaround between commands.
        if paced {
            m.advance_ns(2_600);
        }
        let key = op.key.to_le_bytes();
        match r.dict.get(&mut m, tid, &key) {
            Some(_) => {
                // Cache hit: occasionally refresh the value in place
                // (same size → a single new version in the chain).
                if op.key % 8 == 0 {
                    let seq = r.next_seq();
                    r.dict
                        .upsert(&mut m, tid, tid.0, seq, &key, &[op.key as u8; 24])
                        .expect("overwrite");
                }
            }
            None => {
                // Miss: SET and record the key in the eviction
                // backlog, popping a victim when over capacity.
                let seq = r.next_seq();
                r.dict
                    .upsert(&mut m, tid, tid.0, seq, &key, &[op.key as u8; 24])
                    .expect("insert");
                let seq = r.next_seq();
                r.backlog
                    .enqueue(&mut m, tid, tid.0, seq, &key)
                    .expect("backlog");
                backlog_len += 1;
                if backlog_len > capacity {
                    let seq = r.next_seq();
                    if let Some((_, victim)) = r.backlog.dequeue(&mut m, tid, seq).expect("victim")
                    {
                        let seq = r.next_seq();
                        r.dict
                            .remove(&mut m, tid, tid.0, seq, &victim)
                            .expect("evict");
                        backlog_len -= 1;
                    }
                }
            }
        }
    }

    APP.collect(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WORKERS;
    use memsim::MachineConfig;
    use pmtrace::analysis::Analyzer;

    #[test]
    fn pm_fraction_is_small() {
        // Figure 6: redis has the second-lowest PM share (0.74%).
        let run = APP.run(400, 2, WORKERS);
        let f = run.stats.pm_fraction();
        assert!(f < 0.05, "redis PM fraction {f} should be tiny");
    }

    #[test]
    fn self_dependencies_dominate_but_cross_deps_appear() {
        // Figure 5: NVML-based Redis shows mostly self-dependent epochs
        // (announce-slot and dictionary-line reuse) — but with N worker
        // threads sharing the dictionary and backlog, cross-thread
        // epoch dependencies must now exist (shared bucket heads, the
        // allocation cursor, the queue tail).
        let deps = Analyzer::analyze_events(&APP.run(400, 3, WORKERS).events).deps;
        assert!(
            deps.self_fraction() > 0.3,
            "self-dep fraction {} too low for an NVML app",
            deps.self_fraction()
        );
        assert!(
            deps.cross_dep_epochs > 0,
            "4 workers over shared structures: cross-deps expected"
        );
    }

    #[test]
    fn single_worker_has_no_cross_deps() {
        // `--threads 1` degenerates to the classic single-threaded
        // Redis: every dependency is a self-dependency.
        let deps = Analyzer::analyze_events(&APP.run(400, 3, 1).events).deps;
        assert_eq!(deps.cross_dep_epochs, 0, "single worker cannot cross");
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        // The scheduler interleaving is a pure function of the seed.
        let a = APP.run(200, 9, 4);
        let b = APP.run(200, 9, 4);
        assert_eq!(a.events, b.events, "same seed must be bit-identical");
        let c = APP.run(200, 10, 4);
        assert_ne!(a.events, c.events, "different seeds must diverge");
    }

    #[test]
    fn committed_sets_survive_crash() {
        let mut m = Machine::new(config_for(WORKERS));
        let mut r = Redis::build(&mut m, WORKERS, 64);
        let seq = r.next_seq();
        r.dict
            .upsert(&mut m, Tid(1), 1, seq, b"cached", b"value")
            .unwrap();
        let region = r.dict_region;
        let img = m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut dict2 = CHash::open(&mut m2, Tid(0), region).unwrap();
        let _ = dict2.recover(&mut m2, Tid(0));
        assert_eq!(
            dict2.get(&mut m2, Tid(0), b"cached").as_deref(),
            Some(&b"value"[..])
        );
    }
}
