//! Byte-identity pins for what every `pmds` structure writes.
//!
//! Each of the eight structures runs a scripted mix of operations from
//! four threads on a traced machine — including removes on a different
//! thread from the insert, so the count shards go negative. `CHash`,
//! `DurableQueue`, `PHashMap` and `PRbTree` are then crashed
//! mid-operation at every PM event of a final operation (a
//! [`CrashPlan`] sweep) and at the end of the run ([`Machine::crash`]),
//! and each image is reopened and recovered on a fresh traced machine.
//!
//! One FNV-1a digest per row covers the trace codec's bytes of every
//! recorded event plus a summary of the structure's contents and, for
//! the crash rows, each recovery report. The crash campaign runs
//! recovery inside untraced oracles, so these rows are the only pin on
//! the write sequence of `recover()`.
//!
//! To regenerate after an *intended* output change:
//! `cargo test -p pmds --test trace_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use memsim::{CrashCounter, CrashPlan, CrashSpec, Machine, MachineConfig, PmWriter};
use pmalloc::SlabBitmapAlloc;
use pmds::{CHash, CritBitTree, DurableQueue, PBTree, PHashMap, PLog, PLruList, PRbTree};
use pmem::{Addr, AddrRange};
use pmtrace::Tid;
use pmtx::{RedoTxEngine, TxMem, UndoTxEngine};

/// `(row, digest)` in the order [`rows`] produces them.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("critbit", 0x54cca5b48fe75b0d),
    ("hashmap", 0x26c497ee7e1113f3),
    ("hashmap/crash", 0x9b3855493a2c8d7b),
    ("rbtree", 0xc6ff6e95d9a06fcb),
    ("rbtree/crash", 0xe52359612b1c7751),
    ("btree", 0xbd64f5ac5c7c0050),
    ("plog", 0x6718bd3470d76262),
    ("lru", 0xd2e9d959eeed6f7a),
    ("chash", 0x88b1878b07b38f1e),
    ("chash/crash", 0x83331fc871626a21),
    ("dqueue", 0xac5828e7bb83dc7c),
    ("dqueue/crash", 0x01af4c9501b1506f),
];

const THREADS: u32 = 4;
const KEYS: u64 = 24;
/// Every PM event ordinal a crash sweep captures after.
const SWEEP: u64 = 160;
/// Adversarial seeds each captured state is also materialized under,
/// beside the two corners.
const SEEDS: u64 = 16;

fn tid(i: u64) -> Tid {
    Tid((i % u64::from(THREADS)) as u32)
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:02}").into_bytes()
}

fn cfg() -> MachineConfig {
    MachineConfig::asplos17()
}

/// FNV-1a over the codec bytes of every event `m` recorded, then
/// `summary`.
fn digest(m: &Machine, summary: &str) -> u64 {
    let mut bytes = pmtrace::encode_events(m.trace().events());
    bytes.extend_from_slice(summary.as_bytes());
    pmds::fnv1a(&bytes)
}

/// Begin/commit over both engines, so one rig drives either.
trait Engine: TxMem + Sized {
    fn boot(m: &mut Machine, log: AddrRange) -> Self;
    fn reboot(m: &mut Machine, log: AddrRange) -> Self;
    fn begin_tx(&mut self, m: &mut Machine, tid: Tid);
    fn commit_tx(&mut self, m: &mut Machine, tid: Tid);
}

impl Engine for UndoTxEngine {
    fn boot(m: &mut Machine, log: AddrRange) -> Self {
        UndoTxEngine::format(m, log, THREADS)
    }
    fn reboot(m: &mut Machine, log: AddrRange) -> Self {
        UndoTxEngine::recover(m, Tid(0), log, THREADS)
    }
    fn begin_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.begin(m, tid).unwrap();
    }
    fn commit_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.commit(m, tid).unwrap();
    }
}

impl Engine for RedoTxEngine {
    fn boot(m: &mut Machine, log: AddrRange) -> Self {
        RedoTxEngine::format(m, log, THREADS)
    }
    fn reboot(m: &mut Machine, log: AddrRange) -> Self {
        RedoTxEngine::recover(m, Tid(0), log, THREADS)
    }
    fn begin_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.begin(m, tid).unwrap();
    }
    fn commit_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.commit(m, tid).unwrap();
    }
}

/// A machine with an engine's logs, a slab heap and a structure region.
struct Rig<E> {
    m: Machine,
    eng: E,
    alloc: SlabBitmapAlloc,
}

fn log_range(m: &Machine) -> AddrRange {
    AddrRange::new(m.config().map.pm.base, 1 << 20)
}

fn region(m: &Machine, len: u64) -> AddrRange {
    AddrRange::new(m.config().map.pm.base + (10 << 20), len)
}

impl<E: Engine> Rig<E> {
    fn new() -> Rig<E> {
        let mut m = Machine::new(cfg());
        let pm = m.config().map.pm;
        let log = log_range(&m);
        let eng = E::boot(&mut m, log);
        let heap = AddrRange::new(pm.base + (1 << 20), 8 << 20);
        let alloc = SlabBitmapAlloc::format(&mut m, &mut PmWriter::new(Tid(0)), heap);
        Rig { m, eng, alloc }
    }

    /// One committed transaction on `tid`.
    fn tx<T>(
        &mut self,
        tid: Tid,
        f: impl FnOnce(&mut Machine, &mut E, &mut SlabBitmapAlloc) -> T,
    ) -> T {
        self.eng.begin_tx(&mut self.m, tid);
        let r = f(&mut self.m, &mut self.eng, &mut self.alloc);
        self.eng.commit_tx(&mut self.m, tid);
        r
    }
}

/// Arm a capture after each of the next [`SWEEP`] PM events.
fn arm(m: &mut Machine) {
    m.set_crash_plan(CrashPlan::at_points(
        CrashCounter::PmEvents,
        (1..=SWEEP).collect(),
    ));
}

/// Every captured state under both corners and [`SEEDS`] adversarial
/// specs, then the end-of-run
/// crash of whatever `m` leaves in flight: each image is rebooted and
/// handed to `recover`, whose summary joins the digest of the reboot's
/// trace.
fn recoveries(mut m: Machine, recover: impl Fn(&mut Machine) -> String) -> u64 {
    let states = m.take_crash_states();
    assert!(!states.is_empty(), "the sweep captured nothing");
    let mut images: Vec<_> = states
        .iter()
        .flat_map(|s| {
            let seeds = (1..=SEEDS).map(|seed| CrashSpec::Adversarial { seed });
            [CrashSpec::DropVolatile, CrashSpec::PersistAll]
                .into_iter()
                .chain(seeds)
                .map(|spec| s.materialize(spec))
        })
        .collect();
    images.push(m.crash(CrashSpec::Adversarial { seed: 7 }));
    let mut all = Vec::new();
    for img in &images {
        let mut m2 = Machine::from_image(cfg(), img);
        let summary = recover(&mut m2);
        all.extend_from_slice(&digest(&m2, &summary).to_le_bytes());
    }
    pmds::fnv1a(&all)
}

fn critbit() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<UndoTxEngine>::new();
    let reg = region(&r.m, 4096);
    let t = r.tx(Tid(0), |m, e, _| {
        CritBitTree::create(m, e, Tid(0), reg).unwrap()
    });
    for i in 0..KEYS {
        r.tx(tid(i), |m, e, a| {
            t.insert(m, e, tid(i), a, &key(i), i).unwrap()
        });
    }
    for i in (0..KEYS).step_by(3) {
        r.tx(tid(i + 1), |m, e, a| {
            t.remove(m, e, tid(i + 1), a, &key(i)).unwrap()
        });
        r.tx(tid(i + 2), |m, e, a| {
            t.insert(m, e, tid(i + 2), a, &key(i + 1), 100 + i).unwrap()
        });
    }
    let mut s = format!("len={}", t.len(&mut r.m, Tid(0)));
    t.for_each(&mut r.m, Tid(3), |k, v| s.push_str(&format!(";{k:?}={v}")));
    vec![("critbit", digest(&r.m, &s))]
}

fn hashmap_summary(m: &mut Machine, map: &PHashMap) -> String {
    let mut s = format!("len={}", map.len(m, Tid(0)));
    map.for_each(m, Tid(1), |k, v| s.push_str(&format!(";{k:?}={v:?}")));
    s
}

fn hashmap() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<UndoTxEngine>::new();
    let reg = region(&r.m, PHashMap::region_bytes(16));
    let map = r.tx(Tid(0), |m, e, _| {
        PHashMap::create(m, e, Tid(0), reg, 16).unwrap()
    });
    for i in 0..KEYS {
        r.tx(tid(i), |m, e, a| {
            map.insert(m, e, tid(i), a, &key(i), &[i as u8; 5]).unwrap()
        });
    }
    for i in (0..KEYS).step_by(3) {
        r.tx(tid(i + 1), |m, e, a| {
            map.remove(m, e, tid(i + 1), a, &key(i)).unwrap()
        });
        // Same size (in place), then a new size (node replaced).
        r.tx(tid(i + 2), |m, e, a| {
            map.insert(m, e, tid(i + 2), a, &key(i + 1), &[7; 5])
                .unwrap()
        });
        r.tx(tid(i + 3), |m, e, a| {
            map.insert(m, e, tid(i + 3), a, &key(i + 2), b"longer")
                .unwrap()
        });
    }
    let s = hashmap_summary(&mut r.m, &map);
    let run = digest(&r.m, &s);

    arm(&mut r.m);
    r.tx(Tid(2), |m, e, a| {
        map.insert(m, e, Tid(2), a, b"fresh", b"in flight").unwrap();
        map.remove(m, e, Tid(2), a, &key(4)).unwrap();
    });
    r.eng.begin_tx(&mut r.m, Tid(3));
    map.insert(
        &mut r.m,
        &mut r.eng,
        Tid(3),
        &mut r.alloc,
        b"torn",
        b"uncommitted",
    )
    .unwrap();
    let crash = recoveries(r.m, |m2| {
        let log = log_range(m2);
        UndoTxEngine::reboot(m2, log);
        let map2 = PHashMap::open(m2, Tid(0), reg.base).unwrap();
        hashmap_summary(m2, &map2)
    });
    vec![("hashmap", run), ("hashmap/crash", crash)]
}

fn rbtree_summary(m: &mut Machine, tree: &PRbTree) -> String {
    tree.check_invariants(m, Tid(0)).unwrap();
    let mut s = format!("len={}", tree.len(m, Tid(0)));
    tree.for_each(m, Tid(2), |k, v| s.push_str(&format!(";{k}={v}")));
    s
}

fn rbtree() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<RedoTxEngine>::new();
    let reg = region(&r.m, 4096);
    let tree = r.tx(Tid(0), |m, e, a| {
        PRbTree::create(m, e, Tid(0), a, reg).unwrap()
    });
    for i in 0..KEYS {
        let k = i * 7 % KEYS;
        r.tx(tid(i), |m, e, a| {
            tree.insert(m, e, tid(i), a, k, i).unwrap()
        });
    }
    for i in (0..KEYS).step_by(3) {
        r.tx(tid(i + 1), |m, e, a| {
            tree.remove(m, e, tid(i + 1), a, i).unwrap()
        });
        r.tx(tid(i + 2), |m, e, a| {
            tree.insert(m, e, tid(i + 2), a, i + 1, 100 + i).unwrap()
        });
    }
    let s = rbtree_summary(&mut r.m, &tree);
    let run = digest(&r.m, &s);

    arm(&mut r.m);
    r.tx(Tid(1), |m, e, a| {
        tree.insert(m, e, Tid(1), a, 1000, 1).unwrap();
        tree.remove(m, e, Tid(1), a, 4).unwrap();
    });
    r.eng.begin_tx(&mut r.m, Tid(3));
    tree.insert(&mut r.m, &mut r.eng, Tid(3), &mut r.alloc, 2000, 2)
        .unwrap();
    let crash = recoveries(r.m, |m2| {
        let log = log_range(m2);
        RedoTxEngine::reboot(m2, log);
        let tree2 = PRbTree::open(m2, Tid(0), reg.base).unwrap();
        rbtree_summary(m2, &tree2)
    });
    vec![("rbtree", run), ("rbtree/crash", crash)]
}

fn btree() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<UndoTxEngine>::new();
    let reg = region(&r.m, 4096);
    let tree = r.tx(Tid(0), |m, e, a| {
        PBTree::create(m, e, Tid(0), a, reg).unwrap()
    });
    // Enough keys for splits and merges at 13 keys a node.
    let n = 4 * KEYS;
    for i in 0..n {
        r.tx(tid(i), |m, e, a| {
            tree.insert(m, e, tid(i), a, i * 5 % n, i).unwrap()
        });
    }
    for i in (0..n).step_by(2) {
        r.tx(tid(i + 1), |m, e, a| {
            tree.remove(m, e, tid(i + 1), a, i).unwrap()
        });
    }
    tree.check_invariants(&mut r.m, Tid(0)).unwrap();
    let mut s = format!("len={}", tree.len(&mut r.m, Tid(0)));
    for (k, v) in tree.range(&mut r.m, Tid(1), 0, u64::MAX) {
        s.push_str(&format!(";{k}={v}"));
    }
    vec![("btree", digest(&r.m, &s))]
}

fn plog() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<RedoTxEngine>::new();
    let reg = region(&r.m, 4096);
    let log = r.tx(Tid(0), |m, e, _| PLog::create(m, e, Tid(0), reg).unwrap());
    for i in 0..KEYS {
        r.tx(tid(i), |m, e, _| log.append(m, e, tid(i), &key(i)).unwrap());
        if i == KEYS / 2 {
            r.tx(tid(i + 1), |m, e, _| {
                log.truncate(m, e, tid(i + 1)).unwrap();
            });
        }
    }
    let s = format!("{:?}", log.records(&mut r.m, Tid(2)));
    vec![("plog", digest(&r.m, &s))]
}

fn lru() -> Vec<(&'static str, u64)> {
    let mut r = Rig::<UndoTxEngine>::new();
    let reg = region(&r.m, 64);
    let lru = r.tx(Tid(0), |m, e, _| {
        PLruList::create(m, e, Tid(0), reg).unwrap()
    });
    let nodes: Vec<Addr> = (0..KEYS / 2)
        .map(|i| {
            r.tx(tid(i), |m, e, a| {
                lru.push_front(m, e, tid(i), a, i).unwrap()
            })
        })
        .collect();
    for (i, &n) in (1..).zip(&nodes).step_by(3) {
        r.tx(tid(i), |m, e, _| lru.touch(m, e, tid(i), n).unwrap());
    }
    r.tx(Tid(2), |m, e, a| {
        lru.remove(m, e, Tid(2), a, nodes[4]).unwrap()
    });
    r.tx(Tid(3), |m, e, a| lru.pop_back(m, e, Tid(3), a).unwrap());
    let len = lru.len(&mut r.m, Tid(0));
    let s = format!("len={len};{:?}", lru.payloads(&mut r.m, Tid(1)));
    vec![("lru", digest(&r.m, &s))]
}

fn chash_summary(m: &mut Machine, t: &CHash) -> String {
    let mut s = format!("live={}", t.live_count(m, Tid(0)));
    t.for_each(m, Tid(1), |k, v| s.push_str(&format!(";{k:?}={v:?}")));
    s
}

fn chash() -> Vec<(&'static str, u64)> {
    let mut m = Machine::new(cfg());
    let reg = region(&m, CHash::region_bytes(THREADS, 4096));
    // Four buckets: the mix grows the table through several resizes.
    let mut t = CHash::create(&mut m, Tid(0), reg, THREADS, 4).unwrap();
    let mut seq = 0..;
    let mut next = || seq.next().unwrap() + 1;
    for i in 0..KEYS {
        let (tid, val) = (tid(i), [i as u8; 6]);
        t.upsert(&mut m, tid, tid.0, next(), &key(i), &val).unwrap();
    }
    for i in (0..KEYS).step_by(3) {
        let (t1, t2) = (tid(i + 1), tid(i + 2));
        t.remove(&mut m, t1, t1.0, next(), &key(i)).unwrap();
        t.upsert(&mut m, t2, t2.0, next(), &key(i + 1), b"new")
            .unwrap();
    }
    let s = chash_summary(&mut m, &t);
    let run = digest(&m, &s);

    arm(&mut m);
    for i in KEYS..KEYS + 6 {
        let tid = tid(i);
        t.upsert(&mut m, tid, tid.0, next(), &key(i), b"late")
            .unwrap();
    }
    t.remove(&mut m, Tid(1), 1, next(), &key(1)).unwrap();
    let crash = recoveries(m, |m2| {
        let mut t2 = CHash::open(m2, Tid(0), reg).unwrap();
        let report = t2.recover(m2, Tid(0));
        format!("{:?};{}", report.ops, chash_summary(m2, &t2))
    });
    vec![("chash", run), ("chash/crash", crash)]
}

fn dqueue_summary(m: &mut Machine, q: &DurableQueue) -> String {
    format!("len={};{:?}", q.len(m, Tid(0)), q.iter_snapshot(m, Tid(2)))
}

fn dqueue() -> Vec<(&'static str, u64)> {
    let mut m = Machine::new(cfg());
    let reg = region(&m, DurableQueue::region_bytes(THREADS, 256));
    let mut q = DurableQueue::create(&mut m, Tid(0), reg, THREADS, 256).unwrap();
    for i in 0..KEYS {
        q.enqueue(&mut m, tid(i), tid(i).0, i + 1, &key(i)).unwrap();
        if i % 3 == 2 {
            q.dequeue(&mut m, tid(i + 1), 1000 + i).unwrap();
        }
    }
    let s = dqueue_summary(&mut m, &q);
    let run = digest(&m, &s);

    arm(&mut m);
    q.enqueue(&mut m, Tid(1), 1, 500, b"in flight").unwrap();
    q.dequeue(&mut m, Tid(3), 501).unwrap();
    q.enqueue(&mut m, Tid(2), 2, 502, b"second").unwrap();
    let crash = recoveries(m, |m2| {
        let mut q2 = DurableQueue::open(m2, Tid(0), reg.base).unwrap();
        let report = q2.recover(m2, Tid(0));
        format!("{:?};{}", report.ops, dqueue_summary(m2, &q2))
    });
    vec![("dqueue", run), ("dqueue/crash", crash)]
}

fn rows() -> Vec<(&'static str, u64)> {
    [critbit, hashmap, rbtree, btree, plog, lru, chash, dqueue]
        .into_iter()
        .flat_map(|f| f())
        .collect()
}

#[test]
fn pmds_writes_are_byte_identical_to_the_pinned_commit() {
    let got = rows();
    assert_eq!(got.len(), PINS.len(), "one pin per row");
    for ((name, got), (pin_name, want)) in got.into_iter().zip(PINS.iter().copied()) {
        assert_eq!(name, pin_name, "pin order");
        assert_eq!(
            got, want,
            "{name}: digest {got:#018x} != pinned {want:#018x}"
        );
    }
}

/// Prints the [`PINS`] table for the current commit.
#[test]
#[ignore = "generator: prints the PINS table, asserts nothing"]
fn print_pins() {
    for (name, d) in rows() {
        println!("    ({name:?}, {d:#018x}),");
    }
}
