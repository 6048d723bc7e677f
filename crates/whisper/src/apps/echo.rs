//! Echo: a scalable persistent key-value store (paper Section 3.2.1).
//!
//! "Echo employs a master thread to manage the persistent KVS while
//! client threads batch and send updates to KV pairs to the master.
//! Each client thread contains a volatile KVS similar in structure to
//! the master, which it uses to service local reads, and finalize and
//! batch updates. ... The master KVS is a persistent hash table. Each
//! hash table entry is a key and a chronologically ordered list of
//! versions of a value. Clients submit updates to key-value pairs,
//! which are stored in a persistent log. After a successful submission,
//! the master processes the log and moves the updates to its persistent
//! KVS in PM."
//!
//! Per the paper's modifications, Echo uses the single-heap persistent
//! allocator (from N-store) and wraps all PM updates in durable
//! transactions. Batch descriptors flip INPROGRESS → CREATED across
//! consecutive epochs on the same line — one of the paper's named
//! self-dependency sources — and the master/client handoff on the
//! descriptor line is a (rare) cross-thread dependency.

use super::{App, AppRun, Layer, Setup, VolatileArena};
use crate::crashtest::{self, Workload};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use memsim::{Machine, MachineConfig, PmWriter};
use pmalloc::{BlockState, PmAllocator, SingleHeapAlloc};
use pmds::{PHashMap, PLog};
use pmem::{Addr, AddrRange};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::{Category, Tid};
use pmtx::{TxMem, UndoTxEngine};
use std::collections::BTreeMap;

/// Echo's Table 1 row.
pub(crate) const APP: App = App {
    name: "echo",
    workload: "echo-test / 4 clients",
    layer: Layer::Native,
    base_ops: 20_000,
    paper: PaperRow {
        epochs_per_sec: 1.6e6,
        fig3_median: 307,
        fig5_self_pct: 54.5,
        fig5_cross_pct: 0.01,
        fig6_pm_pct: Some(5.49),
    },
    setup,
    unpaced: true,
    crash_ops: 40,
    crash_run: crashtest::run::<EchoCrash>,
};

const STATUS_INPROGRESS: u32 = 1;
const STATUS_CREATED: u32 = 2;
/// Version node: prev u64, seq u64, value 16 B.
const VNODE_BYTES: u64 = 32;

/// Everything Echo keeps in PM, plus handles for driving it.
#[derive(Clone)]
pub(crate) struct EchoState {
    pub(crate) eng: UndoTxEngine,
    pub(crate) alloc: SingleHeapAlloc,
    pub(crate) master: PHashMap,
    /// Per-client persistent submission logs.
    pub(crate) client_logs: Vec<PLog>,
    /// Per-client batch descriptors (status, seq).
    pub(crate) descriptors: Vec<Addr>,
    pub(crate) log_region: AddrRange,
    pub(crate) master_head: Addr,
}

pub(crate) const ECHO_CLIENTS: u32 = 4;
const KEYSPACE: usize = 512;

impl EchoState {
    pub(crate) fn build(m: &mut Machine) -> EchoState {
        let mut plan = RegionPlanner::new(m.config().map.pm);
        let log_region = plan.take(4 << 20);
        let heap_region = plan.take(256 << 20);
        let table_region = plan.take(PHashMap::region_bytes(256));
        let desc_region = plan.take(64 * ECHO_CLIENTS as u64);
        let clog_regions: Vec<AddrRange> =
            (0..ECHO_CLIENTS).map(|_| plan.take(256 << 10)).collect();

        let mut eng = UndoTxEngine::format(m, log_region, ECHO_CLIENTS);
        let mut w = PmWriter::new(Tid(0));
        let alloc = SingleHeapAlloc::format(m, &mut w, heap_region);
        eng.begin(m, Tid(0)).expect("fresh engine");
        let master = PHashMap::create(m, &mut eng, Tid(0), table_region, 256).expect("create");
        let client_logs = clog_regions
            .iter()
            .map(|r| PLog::create(m, &mut eng, Tid(0), *r).expect("create log"))
            .collect();
        eng.commit(m, Tid(0)).expect("commit setup");
        let descriptors = (0..ECHO_CLIENTS as u64)
            .map(|i| desc_region.base + i * 64)
            .collect();
        EchoState {
            eng,
            alloc,
            master,
            client_logs,
            descriptors,
            log_region,
            master_head: table_region.base,
        }
    }

    /// Client side of one batch: accumulate updates in the volatile
    /// store, then durably submit them to the client's persistent log
    /// and mark the batch descriptor INPROGRESS.
    fn client_submit(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        arena: &mut VolatileArena,
        batch: &[(u64, [u8; 16])],
    ) {
        // Finalize updates against the volatile local KVS.
        arena.work(m, tid, 330 * batch.len() as u64);
        let c = tid.0 as usize;
        self.eng.begin(m, tid).expect("client tx");
        for (key, val) in batch {
            let mut rec = [0u8; 24];
            rec[0..8].copy_from_slice(&key.to_le_bytes());
            rec[8..24].copy_from_slice(val);
            self.client_logs[c]
                .append(m, &mut self.eng, tid, &rec)
                .expect("log append");
        }
        self.eng
            .tx_write_u32(
                m,
                tid,
                self.descriptors[c],
                STATUS_INPROGRESS,
                Category::AppMeta,
            )
            .expect("descriptor");
        self.eng.commit(m, tid).expect("client commit");
    }

    /// Master side: move the client's batch into the versioned KVS,
    /// flip the descriptor to CREATED, and truncate the log. Runs on
    /// the master thread (tid 0), so the descriptor write is a
    /// cross-thread dependency with the client's INPROGRESS write.
    fn master_apply(&mut self, m: &mut Machine, client: usize, arena: &mut VolatileArena) {
        let master_tid = Tid(0);
        let records = self.client_logs[client].records(m, master_tid);
        arena.work(m, master_tid, 180 * records.len() as u64);
        self.eng.begin(m, master_tid).expect("master tx");
        for rec in records {
            let key = &rec[0..8];
            let val = &rec[8..24];
            self.apply_update(m, master_tid, key, val);
        }
        self.eng
            .tx_write_u32(
                m,
                master_tid,
                self.descriptors[client],
                STATUS_CREATED,
                Category::AppMeta,
            )
            .expect("descriptor");
        self.client_logs[client]
            .truncate(m, &mut self.eng, master_tid)
            .expect("truncate");
        self.eng.commit(m, master_tid).expect("master commit");
    }

    /// Prepend a version node to the key's chain.
    fn apply_update(&mut self, m: &mut Machine, tid: Tid, key: &[u8], val: &[u8]) {
        let mut w = PmWriter::new(tid);
        let node = self.alloc.alloc(m, &mut w, VNODE_BYTES).expect("heap");
        // Echo's descriptor-style state protocol on the heap block:
        // VOLATILE at allocation, PERSISTENT once linked.
        let head = self.master.get(m, &mut self.eng, tid, key);
        let (prev, seq) = match &head {
            Some(h) => {
                let prev = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
                let pseq = if prev == 0 {
                    0
                } else {
                    self.eng.tx_read_u64(m, tid, prev + 8)
                };
                (prev, pseq + 1)
            }
            None => (0, 1),
        };
        self.eng
            .tx_write_u64(m, tid, node, prev, Category::UserData)
            .expect("node");
        self.eng
            .tx_write_u64(m, tid, node + 8, seq, Category::UserData)
            .expect("node");
        self.eng
            .tx_write(m, tid, node + 16, val, Category::UserData)
            .expect("node");
        self.alloc
            .set_state(m, &mut w, node, BlockState::Persistent)
            .expect("state");
        self.master
            .insert(
                m,
                &mut self.eng,
                tid,
                &mut self.alloc,
                key,
                &node.to_le_bytes(),
            )
            .expect("insert");
    }

    /// Walk a key's version chain (newest first). Used by recovery
    /// validation.
    #[allow(dead_code)] // exercised by crash tests
    pub(crate) fn versions(&mut self, m: &mut Machine, tid: Tid, key: &[u8]) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(h) = self.master.get(m, &mut self.eng, tid, key) {
            let mut node = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
            while node != 0 {
                out.push(m.load_u64(tid, node + 8));
                node = m.load_u64(tid, node);
            }
        }
        out
    }
}

/// Run echo-test without client pacing and with trimmed volatile
/// phases — the configuration the paper's gem5 full-system simulations
/// use for Figures 6 and 10.
pub fn run_unpaced(transactions: usize, seed: u64) -> AppRun {
    APP.run_unpaced(transactions, seed)
}

/// Echo's crash workload (see [`crate::crashtest`]): single-update
/// batches over a small keyspace, each operation one client submit
/// transaction plus one master apply transaction. Recovery re-opens the
/// master KVS and reads back every key's version chain.
pub(crate) struct EchoCrash {
    st: EchoState,
    arena: VolatileArena,
    /// Planned operations: no chain can be longer.
    ops: usize,
}

const CRASH_KEYSPACE: u64 = 24;

impl Workload for EchoCrash {
    /// An update: key and value.
    type Op = (u64, [u8; 16]);
    /// Each updated key's version chain, oldest first: (seq, value).
    type Model = BTreeMap<u64, Vec<(u64, [u8; 16])>>;

    fn build(m: &mut Machine, ops: usize, _workers: u32) -> EchoCrash {
        let st = EchoState::build(m);
        let arena = VolatileArena::new(m, 1 << 20);
        EchoCrash { st, arena, ops }
    }

    fn plan(ops: usize, _workers: u32) -> Vec<(Tid, Self::Op)> {
        let mut rng = SmallRng::seed_from_u64(0xec40);
        (0..ops)
            .map(|i| {
                let key = rng.gen_range(0..CRASH_KEYSPACE);
                let mut val = [0u8; 16];
                val[0..8].copy_from_slice(&key.to_le_bytes());
                val[8..16].copy_from_slice(&(i as u64 + 1).to_le_bytes());
                (Tid((i % ECHO_CLIENTS as usize) as u32), (key, val))
            })
            .collect()
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, &(key, val): &Self::Op) {
        self.st
            .client_submit(m, tid, &mut self.arena, &[(key, val)]);
        self.st.master_apply(m, tid.0 as usize, &mut self.arena);
    }

    fn model(model: &mut Self::Model, _seq: u64, &(key, val): &Self::Op) {
        let chain = model.entry(key).or_default();
        chain.push((chain.len() as u64 + 1, val));
    }

    fn recover(&self, m: &mut Machine) -> Result<Self::Model, String> {
        let mut eng = UndoTxEngine::recover(m, Tid(0), self.st.log_region, ECHO_CLIENTS);
        let master = PHashMap::open(m, Tid(0), self.st.master_head)
            .map_err(|e| format!("master KVS open failed: {e:?}"))?;
        let mut view = Self::Model::new();
        for key in 0..CRASH_KEYSPACE {
            let Some(head) = master.get(m, &mut eng, Tid(0), &key.to_le_bytes()) else {
                continue;
            };
            let mut node = u64::from_le_bytes(head[0..8].try_into().expect("8-byte head"));
            let mut chain = Vec::new();
            while node != 0 {
                if chain.len() > self.ops {
                    return Err(format!("key {key}: chain exceeds history (cycle?)"));
                }
                let mut val = [0u8; 16];
                m.load(Tid(0), node + 16, &mut val);
                chain.push((m.load_u64(Tid(0), node + 8), val));
                node = m.load_u64(Tid(0), node);
            }
            if !chain.is_empty() {
                chain.reverse();
                view.insert(key, chain);
            }
        }
        Ok(view)
    }
}

/// Echo's setup: format the engine, allocator, master KVS and client
/// logs. Unlike every other row, the format runs *traced* — recording
/// is switched off only after it — so echo's trace, and its Table 1
/// and Figure 3–5 rows, include these setup events. The goldens pin
/// those bytes; ROADMAP parks the fix with the other golden-moving
/// model changes.
fn setup(transactions: usize, _workers: u32) -> Setup {
    let mut m = Machine::new(MachineConfig::asplos17());
    let st = EchoState::build(&mut m);
    m.trace_mut().set_enabled(false);
    let arena = VolatileArena::new(&mut m, 1 << 20);
    Setup::new(m, (transactions, st, arena), drive)
}

fn drive(
    mut m: Machine,
    (transactions, mut st, mut arena): (usize, EchoState, VolatileArena),
    seed: u64,
    paced: bool,
) -> AppRun {
    let mut rng = SmallRng::seed_from_u64(seed);
    const BATCH: usize = 48;
    let batches = (transactions.div_ceil(BATCH) / 2).max(4); // 2 txs per batch

    m.trace_mut().set_enabled(true);
    for round in 0..batches {
        let tid = Tid((round % ECHO_CLIENTS as usize) as u32);
        // Client-side batching delay before the next submission.
        m.advance_ns(if paced { 520_000 } else { 330_000 });
        let batch: Vec<(u64, [u8; 16])> = (0..BATCH)
            .map(|_| {
                let key = rng.gen_range(0..KEYSPACE) as u64;
                let mut val = [0u8; 16];
                val[0..8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                (key, val)
            })
            .collect();
        st.client_submit(&mut m, tid, &mut arena, &batch);
        st.master_apply(&mut m, tid.0 as usize, &mut arena);
    }

    APP.collect(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WORKERS;
    use memsim::CrashSpec;

    #[test]
    fn setup_leaves_the_format_in_the_trace() {
        // The known deviation the setup docs state: the build is
        // recorded, and those events open every echo trace.
        let setup = setup(200, WORKERS);
        let built = setup.machine.trace().events().to_vec();
        assert!(!built.is_empty(), "the format is traced");
        assert!(!setup.machine.trace().is_enabled(), "then recording stops");
        let run = setup.drive(1, true);
        assert!(run.events.len() > built.len());
        assert_eq!(
            run.events[..built.len()],
            built[..],
            "the run starts with them"
        );
    }

    #[test]
    fn run_produces_trace_and_versions() {
        let run = APP.run(200, 1, WORKERS);
        assert!(!run.events.is_empty());
        assert!(run.stats.pm_total() > 0);
        assert!(run.stats.dram_accesses > run.stats.pm_total());
    }

    #[test]
    fn version_chains_grow() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut st = EchoState::build(&mut m);
        let mut arena = VolatileArena::new(&mut m, 1 << 20);
        let key = 7u64;
        for _ in 0..3 {
            st.client_submit(&mut m, Tid(1), &mut arena, &[(key, [9u8; 16])]);
            st.master_apply(&mut m, 1, &mut arena);
        }
        let versions = st.versions(&mut m, Tid(0), &key.to_le_bytes());
        assert_eq!(versions, vec![3, 2, 1], "newest first, chronological");
    }

    #[test]
    fn crash_recovery_preserves_chain_integrity() {
        for seed in [3u64, 14, 27] {
            let mut m = Machine::new(MachineConfig::asplos17());
            let mut st = EchoState::build(&mut m);
            let mut arena = VolatileArena::new(&mut m, 1 << 20);
            for i in 0..6u64 {
                let tid = Tid((i % ECHO_CLIENTS as u64) as u32);
                st.client_submit(&mut m, tid, &mut arena, &[(i % 3, [i as u8; 16])]);
                st.master_apply(&mut m, tid.0 as usize, &mut arena);
            }
            // Crash mid-batch: client submitted, master mid-apply.
            st.client_submit(&mut m, Tid(0), &mut arena, &[(0, [0xEE; 16])]);
            st.eng.begin(&mut m, Tid(0)).unwrap();
            st.apply_update(&mut m, Tid(0), &0u64.to_le_bytes(), &[0xEE; 16]);
            let log_region = st.log_region;
            let master_head = st.master_head;
            let img = m.crash(CrashSpec::Adversarial { seed });

            // Recover.
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let mut eng2 = UndoTxEngine::recover(&mut m2, Tid(0), log_region, ECHO_CLIENTS);
            let master2 = PHashMap::open(&mut m2, Tid(0), master_head).unwrap();
            // Every chain must be walkable with strictly decreasing
            // sequence numbers (prefix-consistent history).
            let mut checked = 0;
            for key in 0..3u64 {
                if let Some(h) = master2.get(&mut m2, &mut eng2, Tid(0), &key.to_le_bytes()) {
                    let mut node = u64::from_le_bytes(h[0..8].try_into().unwrap());
                    let mut last_seq = u64::MAX;
                    while node != 0 {
                        let seq = m2.load_u64(Tid(0), node + 8);
                        assert!(seq < last_seq, "seed {seed}: chain seq not decreasing");
                        assert!(seq > 0, "seed {seed}: zero seq implies torn node");
                        last_seq = seq;
                        node = m2.load_u64(Tid(0), node);
                        checked += 1;
                    }
                }
            }
            assert!(checked > 0, "seed {seed}: committed versions survive");
        }
    }
}
