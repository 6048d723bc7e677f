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

use super::{arena_bytes, config_for, App, AppRun, Layer, Setup, VolatileArena};
use crate::crashtest::{self, Workload};
use crate::region::RegionPlanner;
use crate::report::PaperRow;
use memsim::{Machine, MachineConfig, PmWriter, Scheduler};
use pmalloc::{PmAllocator, ShardedSlab};
use pmds::{DurableQueue, PRbTree};
use pmem::Addr;
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::{Category, Tid};
use pmtx::{RedoTxEngine, TxMem};
use std::collections::BTreeMap;

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
    crash_run: crashtest::run::<Vacation>,
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
    /// One line per worker for the crash workload's fence prologue
    /// ([`Workload::scratch`]).
    pub(crate) scratch: Addr,
    /// Monotone sequence tags for journal appends.
    seq: u64,
    /// Worker threads the engine and journal were formatted for.
    workers: u32,
}

impl Vacation {
    pub(crate) fn build(m: &mut Machine, n_items: u64, workers: u32, ops: usize) -> Vacation {
        let mut plan = RegionPlanner::new(m.config().map.pm);
        let log_region = plan.take(8 << 20);
        let mut eng = RedoTxEngine::format(m, log_region, workers);
        let mut w = PmWriter::new(Tid(0));
        // Mnemosyne's allocator keeps per-thread arenas.
        let arena = arena_bytes(workers);
        let heap = plan.take(ShardedSlab::region_bytes(arena, workers as usize));
        let mut alloc = ShardedSlab::format(m, &mut w, heap.base, arena, workers as usize);
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
            workers,
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
                    let c = self.eng.tx_read_u64(m, tid, self.counters[t]);
                    self.eng
                        .tx_write_u64(m, tid, self.counters[t], c + 1, Category::AppMeta)
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
pub(crate) enum VOp {
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

/// What Vacation's recovery reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VModel {
    /// Per table, per item: seats available (items dense 0..CRASH_ITEMS).
    avail: [Vec<u64>; 3],
    /// Per customer with reservations: resource words, newest first.
    cust: BTreeMap<u64, Vec<u64>>,
    /// The three global counters.
    counters: [u64; 3],
    /// The journal: (seq, payload), append order.
    journal: Vec<(u64, Vec<u8>)>,
}

const CRASH_ITEMS: u64 = 12;
const CRASH_CUSTOMERS: u64 = 8;

impl Default for VModel {
    /// The loaded inventory: 100 seats of every item, nothing booked.
    fn default() -> VModel {
        VModel {
            avail: [(); 3].map(|_| vec![100; CRASH_ITEMS as usize]),
            cust: BTreeMap::new(),
            counters: [0; 3],
            journal: Vec::new(),
        }
    }
}

/// A journal entry's payload: the resource word, then the customer.
fn journal_payload(resource: u64, customer: u64) -> Vec<u8> {
    [resource.to_le_bytes(), customer.to_le_bytes()].concat()
}

/// Crash workload (see [`crate::crashtest`]): alternating price updates
/// and reservations over a small inventory, the clients interleaved by
/// the seeded scheduler. Recovery replays the redo engine and the
/// journal queue, checks red-black invariants on all four trees, and
/// reads back tables, reservation lists, global counters and journal.
impl Workload for Vacation {
    type Op = VOp;
    type Model = VModel;

    fn config(workers: u32) -> MachineConfig {
        config_for(workers)
    }

    fn build(m: &mut Machine, ops: usize, workers: u32) -> Vacation {
        Vacation::build(m, CRASH_ITEMS, workers, ops)
    }

    fn plan(ops: usize, workers: u32) -> Vec<(Tid, VOp)> {
        let mut sched = Scheduler::new(workers, 0x7ac4);
        let mut rng = SmallRng::seed_from_u64(0x7ac4);
        (0..ops)
            .map(|i| {
                let t = rng.gen_range(0..3);
                let item = rng.gen_range(0..CRASH_ITEMS);
                let op = if i % 2 == 0 {
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
                };
                (sched.next(), op)
            })
            .collect()
    }

    fn scratch(&self) -> Option<Addr> {
        Some(self.scratch)
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, op: &VOp) {
        match *op {
            VOp::Price { t, item, price } => self.update_price(m, tid, t, item, price),
            VOp::Reserve {
                t,
                item,
                customer,
                update_counter,
            } => {
                self.reserve(m, tid, t, item, customer, update_counter);
            }
        }
    }

    fn model(model: &mut VModel, _seq: u64, op: &VOp) {
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
                    let resource = (t as u64) << 32 | item;
                    model.cust.entry(customer).or_default().insert(0, resource);
                    if update_counter {
                        model.counters[t] += 1;
                    }
                    let seq = model.journal.len() as u64 + 1;
                    model
                        .journal
                        .push((seq, journal_payload(resource, customer)));
                }
            }
        }
    }

    fn recover(&self, m: &mut Machine) -> Result<VModel, String> {
        let mut eng = RedoTxEngine::recover(m, Tid(0), self.log_region, self.workers);
        for (t, table) in self.tables.iter().enumerate() {
            table
                .check_invariants(m, Tid(0))
                .map_err(|e| format!("table {t} invariants: {e}"))?;
        }
        self.customers
            .check_invariants(m, Tid(0))
            .map_err(|e| format!("customer tree invariants: {e}"))?;
        let mut journal = DurableQueue::open(m, Tid(0), self.journal_head)
            .map_err(|e| format!("journal open failed: {e:?}"))?;
        let _ = journal.recover(m, Tid(0));
        let mut view = VModel::default();
        for (t, table) in self.tables.iter().enumerate() {
            for item in 0..CRASH_ITEMS {
                view.avail[t][item as usize] = table
                    .get(m, &mut eng, Tid(0), item)
                    .ok_or_else(|| format!("table {t} item {item} missing"))?;
            }
            view.counters[t] = m.load_u64(Tid(0), self.counters[t]);
        }
        for customer in 0..CRASH_CUSTOMERS {
            let mut node = self
                .customers
                .get(m, &mut eng, Tid(0), customer)
                .unwrap_or(0);
            let mut list = Vec::new();
            while node != 0 {
                // No list holds more than the run's `seq` reservations.
                if list.len() > self.seq as usize + 1 {
                    return Err(format!("customer {customer}: list exceeds history"));
                }
                list.push(m.load_u64(Tid(0), node + 8));
                if m.load_u64(Tid(0), node + 16) != 1 {
                    return Err(format!("customer {customer}: torn reservation node"));
                }
                node = m.load_u64(Tid(0), node);
            }
            if !list.is_empty() {
                view.cust.insert(customer, list);
            }
        }
        view.journal = journal.iter_snapshot(m, Tid(0));
        Ok(view)
    }

    /// The journal entry rolls forward separately from the reservation
    /// transaction: the tables, lists and counters at the prefix or
    /// prefix + in-flight, and the journal likewise, each on its own.
    fn accept(view: &VModel, before: &VModel, after: &VModel, _op: Option<&VOp>) -> bool {
        let state = |v: &VModel| (v.avail.clone(), v.cust.clone(), v.counters);
        (state(view) == state(before) || state(view) == state(after))
            && (view.journal == before.journal || view.journal == after.journal)
    }
}

/// Reservation mix with trimmed volatile phases (gem5-style, for
/// Figures 6 and 10).
pub fn run_unpaced(transactions: usize, seed: u64) -> AppRun {
    APP.run_unpaced(transactions, seed)
}

/// Build + load are untraced: the measured interval is steady state.
fn setup(transactions: usize, workers: u32) -> Setup {
    let mut m = Machine::new(config_for(workers));
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
    use crate::apps::WORKERS;
    use memsim::CrashSpec;
    use memsim::MachineConfig;
    use pmtrace::analysis::Analyzer;

    #[test]
    fn transactions_are_small() {
        // Figure 3: Mnemosyne apps have the smallest medians (~4-8).
        let report = Analyzer::analyze_events(&APP.run(300, 6, WORKERS).events);
        let median = report.tx_stats.median().unwrap();
        assert!((3..=15).contains(&median), "vacation median {median}");
    }

    #[test]
    fn pm_fraction_lowest_of_suite() {
        let run = APP.run(300, 6, WORKERS);
        let f = run.stats.pm_fraction();
        assert!(f < 0.03, "vacation PM fraction {f}");
    }

    #[test]
    fn cross_deps_exist_but_rare() {
        let deps = Analyzer::analyze_events(&APP.run(500, 8, WORKERS).events).deps;
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
        let mut m = Machine::new(config_for(WORKERS));
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
