//! Vacation: the STAMP travel-reservation OLTP system, made persistent
//! with Mnemosyne-style transactions (Section 3.2.2).
//!
//! "Vacation is an OLTP system that emulates a travel reservation
//! system. It implements a key-value store using red black trees and
//! linked lists to track customers and their reservations. Several
//! client threads perform a number of transactions to make reservations
//! and cancellations. ... We modified Vacation to allocate red black
//! trees and linked lists in PM segments using Mnemosyne."
//!
//! The "several client threads" are interleaved per-transaction by a
//! seeded [`memsim::Scheduler`] over one shared machine. Vacation's
//! "global counters of the number of cars/flights/rooms ... updated in
//! transactions" are the paper's canonical cross-thread dependency
//! source; clients here update them periodically (STAMP batches such
//! statistics), keeping cross-deps present but rare, as in Figure 5.
//! Completed reservations are additionally appended to a shared
//! [`pmds::DurableQueue`] journal (STAMP's batched statistics stream,
//! made durable), whose per-client producer slots give the recovery
//! oracle a total order over committed reservations. The workload is
//! query-heavy, so PM is a tiny share of traffic (Figure 6: 0.36 %).

use super::{machine_for, App, AppRun, Layer, Setup, VolatileArena, WORKERS};
use crate::crashtest::{Arm, CrashRun};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use memsim::{Machine, MachineConfig, PmWriter, Scheduler};
use pmalloc::{PmAllocator, ShardedSlab};
use pmds::{DurableQueue, PRbTree};
use pmem::{Addr, PmImage};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::{Category, Tid};
use pmtx::{RedoTxEngine, TxMem};
use std::collections::HashMap;

/// Vacation's Table 1 row.
pub(crate) const APP: App = App {
    name: "vacation",
    workload: "4 clients, reservation mix",
    layer: Layer::Mnemosyne,
    base_ops: 10_000,
    paper: PaperRow {
        epochs_per_sec: 7.0e5,
        fig3_median: 4,
        fig5_self_pct: 40.0,
        fig5_cross_pct: 0.01,
        fig6_pm_pct: Some(0.36),
    },
    setup,
    unpaced: true,
    crash_ops: 64,
    crash_run,
};

/// Reservation list node: next u64, resource u64, count u64.
const RNODE_BYTES: u64 = 24;

#[derive(Clone)]
pub(crate) struct Vacation {
    pub(crate) eng: RedoTxEngine,
    pub(crate) alloc: ShardedSlab,
    /// Resource tables: cars, flights, rooms (item → seats available).
    pub(crate) tables: [PRbTree; 3],
    /// Customer reservation-list heads (customer id → list head ptr).
    pub(crate) customers: PRbTree,
    /// Global counters of cars/flights/rooms, one line each.
    pub(crate) counters: [Addr; 3],
    /// The shared committed-reservation journal.
    pub(crate) journal: DurableQueue,
    pub(crate) journal_head: Addr,
    pub(crate) log_region: pmem::AddrRange,
    /// One line per worker for the crash-run fence prologue.
    pub(crate) scratch: Addr,
    /// Monotone sequence tags for journal appends.
    seq: u64,
}

impl Vacation {
    pub(crate) fn build(m: &mut Machine, n_items: u64, workers: u32, ops: usize) -> Vacation {
        let mut plan = RegionPlanner::new(m.config().map.pm);
        let log_region = plan.take(8 << 20);
        let mut eng = RedoTxEngine::format(m, log_region, workers);
        let mut w = PmWriter::new(Tid(0));
        // Mnemosyne's allocator keeps per-thread arenas.
        let heap = plan.take(ShardedSlab::region_bytes(64 << 20, workers as usize));
        let mut alloc = ShardedSlab::format(m, &mut w, heap.base, 64 << 20, workers as usize);
        eng.begin(m, Tid(0)).expect("setup tx");
        let tables = [(); 3].map(|_| {
            PRbTree::create(
                m,
                &mut eng,
                Tid(0),
                &mut alloc,
                plan.take(pmds::HEADER_BYTES),
            )
            .expect("table")
        });
        let customers = PRbTree::create(
            m,
            &mut eng,
            Tid(0),
            &mut alloc,
            plan.take(pmds::HEADER_BYTES),
        )
        .expect("customers");
        eng.commit(m, Tid(0)).expect("setup");
        let counter_region = plan.take(3 * 64);
        let counters = [0u64, 1, 2].map(|i| counter_region.base + i * 64);
        let journal_region = plan.take(DurableQueue::region_bytes(workers, ops as u64 + 64));
        let journal = DurableQueue::create(m, Tid(0), journal_region, workers, ops as u64 + 64)
            .expect("journal");
        let scratch = plan.take(u64::from(workers) * 64).base;
        // Populate resources (untraced load phase).
        m.trace_mut().set_enabled(false);
        for table in &tables {
            for item in 0..n_items {
                eng.begin(m, Tid(0)).expect("load tx");
                table
                    .insert(m, &mut eng, Tid(0), &mut alloc, item, 100)
                    .expect("load");
                eng.commit(m, Tid(0)).expect("load");
            }
        }
        m.trace_mut().set_enabled(true);
        Vacation {
            eng,
            alloc,
            tables,
            customers,
            counters,
            journal,
            journal_head: journal_region.base,
            log_region,
            scratch,
            seq: 0,
        }
    }

    /// Reserve one unit of `item` in table `t` for `customer`. Returns
    /// whether a seat was available (and the reservation made).
    fn reserve(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        t: usize,
        item: u64,
        customer: u64,
        update_counter: bool,
    ) -> bool {
        self.alloc.select(tid.0 as usize);
        self.eng.begin(m, tid).expect("tx");
        let mut reserved = false;
        if let Some(avail) = self.tables[t].get(m, &mut self.eng, tid, item) {
            if avail > 0 {
                reserved = true;
                self.tables[t]
                    .insert(m, &mut self.eng, tid, &mut self.alloc, item, avail - 1)
                    .expect("update avail");
                // Prepend to the customer's reservation linked list.
                let head = self
                    .customers
                    .get(m, &mut self.eng, tid, customer)
                    .unwrap_or(0);
                let mut w = PmWriter::new(tid);
                let node = self.alloc.alloc(m, &mut w, RNODE_BYTES).expect("heap");
                self.eng
                    .tx_write_u64(m, tid, node, head, Category::UserData)
                    .expect("node");
                self.eng
                    .tx_write_u64(
                        m,
                        tid,
                        node + 8,
                        (t as u64) << 32 | item,
                        Category::UserData,
                    )
                    .expect("node");
                self.eng
                    .tx_write_u64(m, tid, node + 16, 1, Category::UserData)
                    .expect("node");
                self.customers
                    .insert(m, &mut self.eng, tid, &mut self.alloc, customer, node)
                    .expect("customer");
                if update_counter {
                    let c = self.eng.read_u64(m, tid, self.counters[t]);
                    self.eng
                        .write_u64(m, tid, self.counters[t], c + 1, Category::AppMeta)
                        .expect("counter");
                }
            }
        }
        self.eng.commit(m, tid).expect("commit");
        // Journal the completed reservation outside the transaction
        // (STAMP batches its statistics after the critical section).
        if reserved {
            self.seq += 1;
            let mut payload = [0u8; 16];
            payload[0..8].copy_from_slice(&((t as u64) << 32 | item).to_le_bytes());
            payload[8..16].copy_from_slice(&customer.to_le_bytes());
            self.journal
                .enqueue(m, tid, tid.0, self.seq, &payload)
                .expect("journal");
        }
        reserved
    }

    /// Update the price/availability of an item (the common small tx).
    fn update_price(&mut self, m: &mut Machine, tid: Tid, t: usize, item: u64, price: u64) {
        self.alloc.select(tid.0 as usize);
        self.eng.begin(m, tid).expect("tx");
        if self.tables[t].get(m, &mut self.eng, tid, item).is_some() {
            self.tables[t]
                .insert(m, &mut self.eng, tid, &mut self.alloc, item, price)
                .expect("price");
        }
        self.eng.commit(m, tid).expect("commit");
    }

    /// Read-only customer query: walk the reservation list.
    fn query_customer(&mut self, m: &mut Machine, tid: Tid, customer: u64) -> u64 {
        let mut n = 0;
        if let Some(mut node) = self.customers.get(m, &mut self.eng, tid, customer) {
            while node != 0 && n < 64 {
                n += 1;
                node = m.load_u64(tid, node);
            }
        }
        n
    }
}

/// One crash-campaign operation.
#[derive(Debug, Clone, Copy)]
enum VOp {
    Price {
        t: usize,
        item: u64,
        price: u64,
    },
    Reserve {
        t: usize,
        item: u64,
        customer: u64,
        update_counter: bool,
    },
}

/// The volatile mirror of Vacation's persistent state the oracle
/// replays committed operations into.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VModel {
    /// Per table, per item: seats available (items dense 0..CRASH_ITEMS).
    avail: [Vec<u64>; 3],
    /// Per customer: reservation resource words, newest first.
    cust: HashMap<u64, Vec<u64>>,
    /// The three global counters.
    counters: [u64; 3],
    /// The journal: (seq, resource word, customer), append order.
    journal: Vec<(u64, u64, u64)>,
}

const CRASH_ITEMS: u64 = 12;
const CRASH_CUSTOMERS: u64 = 8;

fn apply_vmodel(model: &mut VModel, op: &VOp) {
    match *op {
        VOp::Price { t, item, price } => model.avail[t][item as usize] = price,
        VOp::Reserve {
            t,
            item,
            customer,
            update_counter,
        } => {
            if model.avail[t][item as usize] > 0 {
                model.avail[t][item as usize] -= 1;
                model
                    .cust
                    .entry(customer)
                    .or_default()
                    .insert(0, (t as u64) << 32 | item);
                if update_counter {
                    model.counters[t] += 1;
                }
                let seq = model.journal.len() as u64 + 1;
                model.journal.push((seq, (t as u64) << 32 | item, customer));
            }
        }
    }
}

/// Crash workload + oracle (see [`crate::crashtest`]): alternating
/// price updates and reservations over a small inventory, the clients
/// interleaved by the seeded scheduler. The oracle recovers the redo
/// engine and the journal queue, checks red-black invariants on all
/// four trees, and requires tables, reservation lists, global counters,
/// and the journal to match the committed-operation model — with the
/// in-flight operation applied in full, not at all, or stopped at its
/// transaction/journal boundary.
pub(crate) fn crash_run(ops: usize, arm: &Arm<'_>) -> CrashRun {
    let workers = WORKERS;
    let mut m = machine_for(workers);
    m.trace_mut().set_enabled(false);
    let mut v = Vacation::build(&mut m, CRASH_ITEMS, workers, ops);
    m.trace_mut().set_enabled(false);
    let mut sched = Scheduler::new(workers, 0x7ac4);
    let schedule: Vec<Tid> = (0..ops).map(|_| sched.next()).collect();
    let mut rng = SmallRng::seed_from_u64(0x7ac4);
    let ops_plan: Vec<VOp> = (0..ops)
        .map(|i| {
            let t = rng.gen_range(0..3);
            let item = rng.gen_range(0..CRASH_ITEMS);
            if i % 2 == 0 {
                VOp::Price {
                    t,
                    item,
                    price: 200 + i as u64,
                }
            } else {
                VOp::Reserve {
                    t,
                    item,
                    customer: rng.gen_range(0..CRASH_CUSTOMERS),
                    update_counter: i % 8 == 1,
                }
            }
        })
        .collect();

    arm.apply_to_workers(&mut m, workers, v.scratch);
    for (i, op) in ops_plan.iter().enumerate() {
        let tid = schedule[i];
        match *op {
            VOp::Price { t, item, price } => v.update_price(&mut m, tid, t, item, price),
            VOp::Reserve {
                t,
                item,
                customer,
                update_counter,
            } => {
                v.reserve(&mut m, tid, t, item, customer, update_counter);
            }
        }
        m.note_progress(i as u64 + 1);
    }

    let log = v.log_region;
    let tables = v.tables;
    let customers = v.customers;
    let counters = v.counters;
    let journal_head = v.journal_head;
    let total = ops_plan.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut cfg = MachineConfig::asplos17();
        cfg.threads = cfg.threads.max(workers);
        let mut m2 = Machine::from_image(cfg, img);
        let mut eng2 = RedoTxEngine::recover(&mut m2, Tid(0), log, workers);
        for (t, table) in tables.iter().enumerate() {
            table
                .check_invariants(&mut m2, Tid(0))
                .map_err(|e| format!("table {t} invariants: {e}"))?;
        }
        customers
            .check_invariants(&mut m2, Tid(0))
            .map_err(|e| format!("customer tree invariants: {e}"))?;
        let mut journal2 = DurableQueue::open(&mut m2, Tid(0), journal_head)
            .map_err(|e| format!("journal open failed: {e:?}"))?;
        let _ = journal2.recover(&mut m2, Tid(0));

        let mut before = VModel {
            avail: [(); 3].map(|_| vec![100u64; CRASH_ITEMS as usize]),
            cust: HashMap::new(),
            counters: [0; 3],
            journal: Vec::new(),
        };
        for op in &ops_plan[..progress as usize] {
            apply_vmodel(&mut before, op);
        }
        let mut after = before.clone();
        if let Some(op) = ops_plan.get(progress as usize) {
            apply_vmodel(&mut after, op);
        }

        let check =
            |m2: &mut Machine, eng2: &mut RedoTxEngine, want: &VModel| -> Result<(), String> {
                for (t, table) in tables.iter().enumerate() {
                    for item in 0..CRASH_ITEMS {
                        let got = table.get(m2, eng2, Tid(0), item);
                        if got != Some(want.avail[t][item as usize]) {
                            return Err(format!(
                                "table {t} item {item}: avail {got:?} != {}",
                                want.avail[t][item as usize]
                            ));
                        }
                    }
                    let c = m2.load_u64(Tid(0), counters[t]);
                    if c != want.counters[t] {
                        return Err(format!("counter {t}: {c} != {}", want.counters[t]));
                    }
                }
                for customer in 0..CRASH_CUSTOMERS {
                    let want_list = want.cust.get(&customer).cloned().unwrap_or_default();
                    let mut node = customers.get(m2, eng2, Tid(0), customer).unwrap_or(0);
                    let mut got_list = Vec::new();
                    while node != 0 {
                        if got_list.len() > want_list.len() + 2 {
                            return Err(format!("customer {customer}: list exceeds history"));
                        }
                        got_list.push(m2.load_u64(Tid(0), node + 8));
                        if m2.load_u64(Tid(0), node + 16) != 1 {
                            return Err(format!("customer {customer}: torn reservation node"));
                        }
                        node = m2.load_u64(Tid(0), node);
                    }
                    if got_list != want_list {
                        return Err(format!(
                            "customer {customer}: reservations {got_list:?} != {want_list:?}"
                        ));
                    }
                }
                Ok(())
            };
        if check(&mut m2, &mut eng2, &before).is_err() {
            check(&mut m2, &mut eng2, &after).map_err(|e| {
                format!("state matches neither the committed prefix nor prefix+in-flight: {e}")
            })?;
        }

        // The journal holds the committed reservations in global order,
        // with the in-flight reservation's entry possibly rolled
        // forward at the tail.
        let encode = |(s, res, cust): (u64, u64, u64)| -> (u64, Vec<u8>) {
            let mut p = Vec::with_capacity(16);
            p.extend_from_slice(&res.to_le_bytes());
            p.extend_from_slice(&cust.to_le_bytes());
            (s, p)
        };
        let want_journal: Vec<(u64, Vec<u8>)> =
            before.journal.iter().copied().map(encode).collect();
        let snapshot = journal2.iter_snapshot(&mut m2, Tid(0));
        let journal_ok = snapshot == want_journal
            || (after.journal.len() > before.journal.len() && {
                let mut w = want_journal.clone();
                w.push(encode(after.journal[after.journal.len() - 1]));
                snapshot == w
            });
        if !journal_ok {
            return Err(format!(
                "journal: recovered {} entr(ies) {:?} != committed {}",
                snapshot.len(),
                snapshot.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                want_journal.len()
            ));
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total, oracle)
}

/// Reservation mix with trimmed volatile phases (gem5-style, for
/// Figures 6 and 10).
pub fn run_unpaced(transactions: usize, seed: u64) -> AppRun {
    APP.run_unpaced(transactions, seed)
}

/// Run the reservation mix (Table 1: 4 clients).
pub fn run(transactions: usize, seed: u64) -> AppRun {
    APP.run(transactions, seed, WORKERS)
}

/// [`run`] with an explicit client-thread count (`--threads`).
pub fn run_threads(transactions: usize, seed: u64, workers: u32) -> AppRun {
    APP.run(transactions, seed, workers)
}

/// Build + load are untraced: the measured interval is steady state.
fn setup(transactions: usize, workers: u32) -> Setup {
    let mut m = machine_for(workers);
    m.trace_mut().set_enabled(false);
    let n_items = (transactions as u64 / 2).clamp(64, 4000);
    let v = Vacation::build(&mut m, n_items, workers, transactions);
    let arena = VolatileArena::new(&mut m, 2 << 20);
    Setup::new(m, (transactions, workers, n_items, v, arena), drive)
}

fn drive(
    mut m: Machine,
    (transactions, workers, n_items, mut v, mut arena): (usize, u32, u64, Vacation, VolatileArena),
    seed: u64,
    paced: bool,
) -> AppRun {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_customers = n_items / 2 + 1;

    // Seeded per-transaction client interleaving — deterministic in
    // `seed` alone, whatever the host parallelism.
    let mut sched = Scheduler::new(workers, seed);
    m.trace_mut().set_enabled(true);
    for _ in 0..transactions {
        let tid = sched.next();
        // STAMP's volatile query machinery: each transaction runs
        // several manager/tree searches over volatile state before the
        // few persistent updates — vacation is the suite's most
        // volatile-heavy app (Figure 6: 0.36% PM).
        arena.work(&mut m, tid, if paced { 12_000 } else { 520 });
        let t = rng.gen_range(0..3);
        let item = rng.gen_range(0..n_items);
        let customer = rng.gen_range(0..n_customers);
        match rng.gen_range(0..100) {
            0..=54 => v.update_price(&mut m, tid, t, item, rng.gen_range(1..500)),
            55..=89 => {
                let update_counter = rng.gen_range(0..16) == 0;
                v.reserve(&mut m, tid, t, item, customer, update_counter);
            }
            _ => {
                let _ = v.query_customer(&mut m, tid, customer);
            }
        }
    }

    APP.collect(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::CrashSpec;
    use pmtrace::analysis::Analyzer;

    #[test]
    fn transactions_are_small() {
        // Figure 3: Mnemosyne apps have the smallest medians (~4-8).
        let report = Analyzer::analyze_events(&run(300, 6).events);
        let median = report.tx_stats.median().unwrap();
        assert!((3..=15).contains(&median), "vacation median {median}");
    }

    #[test]
    fn pm_fraction_lowest_of_suite() {
        let run = run(300, 6);
        let f = run.stats.pm_fraction();
        assert!(f < 0.03, "vacation PM fraction {f}");
    }

    #[test]
    fn cross_deps_exist_but_rare() {
        let deps = Analyzer::analyze_events(&run(500, 8).events).deps;
        assert!(
            deps.cross_dep_epochs > 0,
            "interleaved clients share counters and the journal"
        );
        assert!(
            deps.cross_fraction() < 0.3,
            "cross {}",
            deps.cross_fraction()
        );
        assert!(deps.self_fraction() > 0.2, "self {}", deps.self_fraction());
    }

    #[test]
    fn reservations_survive_crash() {
        let mut m = machine_for(WORKERS);
        let mut v = Vacation::build(&mut m, 16, WORKERS, 64);
        assert!(v.reserve(&mut m, Tid(0), 0, 3, 1, true));
        let avail_before = v.tables[0].get(&mut m, &mut v.eng, Tid(0), 3).unwrap();
        assert_eq!(avail_before, 99);
        let log = v.log_region;
        let journal_head = v.journal_head;
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut eng2 = RedoTxEngine::recover(&mut m2, Tid(0), log, WORKERS);
        // The table header is at a deterministic planner offset; rather
        // than re-derive it, check via the persistent tree re-opened
        // from the same machine image through the original handle.
        let avail_after = v.tables[0].get(&mut m2, &mut eng2, Tid(0), 3).unwrap();
        assert_eq!(avail_after, 99, "committed reservation durable");
        v.tables[0].check_invariants(&mut m2, Tid(0)).unwrap();
        // The journal survived with the reservation's entry.
        let mut journal2 = DurableQueue::open(&mut m2, Tid(0), journal_head).unwrap();
        let _ = journal2.recover(&mut m2, Tid(0));
        let snap = journal2.iter_snapshot(&mut m2, Tid(0));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, 1);
    }
}
