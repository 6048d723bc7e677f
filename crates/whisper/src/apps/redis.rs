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
use crate::crashtest::{Arm, CrashRun};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use crate::workloads;
use memsim::{Machine, Scheduler};
use pmds::{CHash, DurableQueue};
use pmem::{Addr, AddrRange, PmImage};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use std::collections::{HashMap, VecDeque};

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
    crash_run,
};

#[derive(Clone)]
pub(crate) struct Redis {
    pub(crate) dict: CHash,
    pub(crate) backlog: DurableQueue,
    pub(crate) dict_region: AddrRange,
    pub(crate) queue_head: Addr,
    /// One line per worker: the post-arm fence prologue in `crash_run`
    /// touches these so every thread drains its untraced-setup entries.
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
enum COp {
    /// Dictionary upsert.
    Set { key: u64, val: [u8; 16] },
    /// Dictionary tombstone.
    Del { key: u64 },
    /// Backlog enqueue.
    Enq { key: u64 },
    /// Backlog dequeue (no-op on an empty backlog).
    Deq,
}

/// Crash workload + recovery oracle (see [`crate::crashtest`]): a
/// seeded-scheduler interleaving of SET/DEL/enqueue/dequeue commands
/// over the shared [`CHash`] and [`DurableQueue`]. The oracle runs both
/// structures' detectable recovery and requires every committed command
/// to be fully visible — the one in-flight command may be rolled
/// forward or discarded, never torn.
pub(crate) fn crash_run(ops: usize, workers: u32, arm: &Arm<'_>) -> CrashRun {
    const CRASH_KEYSPACE: u64 = 32;
    let mut m = Machine::new(config_for(workers));
    m.trace_mut().set_enabled(false);
    let mut r = Redis::build(&mut m, workers, ops);

    // The global command order is a pure function of the seed: the
    // oracle replays the same schedule below without re-running it.
    let mut sched = Scheduler::new(workers, 0x4ed1);
    let schedule: Vec<Tid> = (0..ops).map(|_| sched.next()).collect();
    let mut rng = SmallRng::seed_from_u64(0x4ed1);
    let mut planned_backlog = 0usize;
    let plan_ops: Vec<COp> = (0..ops)
        .map(|i| {
            let key = rng.gen_range(0..CRASH_KEYSPACE);
            let mut val = [0u8; 16];
            val[0..8].copy_from_slice(&key.to_le_bytes());
            val[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            if i % 4 == 3 {
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
            }
        })
        .collect();

    arm.apply_to_workers(&mut m, workers, r.scratch);
    for (i, op) in plan_ops.iter().enumerate() {
        let tid = schedule[i];
        let seq = i as u64 + 1;
        match *op {
            COp::Set { key, val } => {
                r.dict
                    .upsert(&mut m, tid, tid.0, seq, &key.to_le_bytes(), &val)
                    .expect("set");
            }
            COp::Del { key } => {
                r.dict
                    .remove(&mut m, tid, tid.0, seq, &key.to_le_bytes())
                    .expect("del");
            }
            COp::Enq { key } => {
                r.backlog
                    .enqueue(&mut m, tid, tid.0, seq, &key.to_le_bytes())
                    .expect("enqueue");
            }
            COp::Deq => {
                r.backlog.dequeue(&mut m, tid, seq).expect("dequeue");
            }
        }
        m.note_progress(i as u64 + 1);
    }

    let dict_region = r.dict_region;
    let qhead = r.queue_head;
    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(config_for(workers), img);
        let mut dict2 = CHash::open(&mut m2, Tid(0), dict_region)
            .map_err(|e| format!("dict open failed: {e:?}"))?;
        let _ = dict2.recover(&mut m2, Tid(0));
        let mut q2 = DurableQueue::open(&mut m2, Tid(0), qhead)
            .map_err(|e| format!("queue open failed: {e:?}"))?;
        let _ = q2.recover(&mut m2, Tid(0));

        // Replay the committed prefix into volatile models.
        let mut model: HashMap<u64, [u8; 16]> = HashMap::new();
        let mut backlog: VecDeque<(u64, u64)> = VecDeque::new(); // (seq, key)
        let apply = |model: &mut HashMap<u64, [u8; 16]>,
                     backlog: &mut VecDeque<(u64, u64)>,
                     i: usize,
                     op: &COp| match *op {
            COp::Set { key, val } => {
                model.insert(key, val);
            }
            COp::Del { key } => {
                model.remove(&key);
            }
            COp::Enq { key } => backlog.push_back((i as u64 + 1, key)),
            COp::Deq => {
                backlog.pop_front();
            }
        };
        for (i, op) in plan_ops[..progress as usize].iter().enumerate() {
            apply(&mut model, &mut backlog, i, op);
        }
        let in_flight = plan_ops.get(progress as usize);

        // Dictionary: every key holds its last committed value; the
        // in-flight SET/DEL may additionally be applied in full.
        for key in 0..CRASH_KEYSPACE {
            let got = dict2.get(&mut m2, Tid(0), &key.to_le_bytes());
            let committed_ok = match (got.as_deref(), model.get(&key)) {
                (Some(g), Some(w)) => g == w.as_slice(),
                (None, None) => true,
                _ => false,
            };
            let in_flight_ok = match in_flight {
                Some(COp::Set { key: k, val }) => *k == key && got.as_deref() == Some(&val[..]),
                Some(COp::Del { key: k }) => *k == key && got.is_none(),
                _ => false,
            };
            if !(committed_ok || in_flight_ok) {
                return Err(format!(
                    "key {key}: recovered {:?} != committed {:?}",
                    got.as_deref().map(<[u8]>::to_vec),
                    model.get(&key).map(|v| v.to_vec())
                ));
            }
        }

        // Backlog: FIFO order of the committed enqueues, with the
        // in-flight enqueue possibly at the tail (rolled forward) or
        // the in-flight dequeue possibly already taken from the head.
        let want: Vec<(u64, Vec<u8>)> = backlog
            .iter()
            .map(|(s, k)| (*s, k.to_le_bytes().to_vec()))
            .collect();
        let snapshot = q2.iter_snapshot(&mut m2, Tid(0));
        let queue_ok = snapshot == want
            || match in_flight {
                Some(COp::Enq { key }) => {
                    let mut w = want.clone();
                    w.push((progress + 1, key.to_le_bytes().to_vec()));
                    snapshot == w
                }
                Some(COp::Deq) if !want.is_empty() => snapshot == want[1..],
                _ => false,
            };
        if !queue_ok {
            return Err(format!(
                "backlog: recovered {} item(s) {:?} != committed {} item(s)",
                snapshot.len(),
                snapshot.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                want.len()
            ));
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total, oracle)
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
