//! Byte-identity pins for what the three transaction engines write.
//!
//! Each engine — undo and redo under both [`ClearPolicy`]s, and
//! [`MinTxEngine`] — runs a scripted mix of transactions from four
//! threads on a traced machine: overlapping transactions on different
//! threads, `u32`, `u64` and multi-line writes (one past the undo
//! engine's on-stack old value), read-your-writes reads, commits and
//! aborts. A final window — an abort, a commit and a transaction left
//! open — is then crashed at every PM event (a [`CrashPlan`] sweep) and
//! once more at the end of the run ([`Machine::crash`]); each image is
//! recovered on a fresh traced machine, which then commits one more
//! transaction on the recovered engine.
//!
//! One FNV-1a digest per row covers every recorded event's thread,
//! time and kind plus the data region's contents and the values the
//! transactions read back. The `pmds` pins never abort and use only the
//! default clear policy, and nothing else pins [`MinTxEngine`], so these
//! rows are the only pin on those write sequences.
//!
//! To regenerate after an *intended* output change:
//! `cargo test -p pmtx --test trace_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use memsim::{CrashCounter, CrashPlan, CrashSpec, Machine, MachineConfig};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::{ClearPolicy, MinTxEngine, RedoTxEngine, TxMem, UndoTxEngine};

/// `(row, digest)` in the order [`rows`] produces them.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("undo", 0xc066536d43de7456),
    ("undo/crash", 0xd53bc5307765469f),
    ("undo/batched", 0xa360777842e4946b),
    ("undo/batched/crash", 0xef1028d76e5b1d23),
    ("redo", 0xac4036fa30073a5e),
    ("redo/crash", 0x08b74fdfcb38430d),
    ("redo/batched", 0x09af4d535ba3d7d0),
    ("redo/batched/crash", 0x3cfe7f8112f80b9d),
    ("mintx", 0xd121a0eeb5d3aba7),
    ("mintx/crash", 0x8e6a6d1b2acdd7d3),
];

const THREADS: u32 = 4;
const TXS: u64 = 24;
/// Bytes of the data region the transactions write.
const DATA_BYTES: usize = 64 * 64;
/// PM event ordinals the sweep captures after: more than the final
/// window issues, so every one of its events is a crash point.
const SWEEP: u64 = 120;
/// Adversarial seeds each captured state is also materialized under,
/// beside the two corners.
const SEEDS: u64 = 8;

fn tid(i: u64) -> Tid {
    Tid((i % u64::from(THREADS)) as u32)
}

fn cfg() -> MachineConfig {
    MachineConfig::asplos17()
}

fn log_range(m: &Machine) -> AddrRange {
    AddrRange::new(m.config().map.pm.base, 1 << 20)
}

fn data(m: &Machine) -> Addr {
    m.config().map.pm.base + (1 << 20)
}

/// FNV-1a over every event `m` recorded (its thread, time and kind),
/// then `summary`.
fn digest(m: &Machine, summary: &str) -> u64 {
    let mut bytes = Vec::new();
    for e in m.trace().events() {
        bytes.extend_from_slice(&e.tid().0.to_le_bytes());
        bytes.extend_from_slice(&e.at_ns().to_le_bytes());
        bytes.extend_from_slice(format!("{:?}", e.kind()).as_bytes());
    }
    bytes.extend_from_slice(summary.as_bytes());
    pmem::hash::fnv1a(&bytes)
}

/// Begin/commit/abort over all three engines, so one script drives any.
trait Engine: TxMem + Sized {
    fn boot(m: &mut Machine, log: AddrRange, policy: ClearPolicy) -> Self;
    fn reboot(m: &mut Machine, log: AddrRange) -> Self;
    fn begin_tx(&mut self, m: &mut Machine, tid: Tid);
    fn commit_tx(&mut self, m: &mut Machine, tid: Tid);
    fn abort_tx(&mut self, m: &mut Machine, tid: Tid);
}

impl Engine for UndoTxEngine {
    fn boot(m: &mut Machine, log: AddrRange, policy: ClearPolicy) -> Self {
        let mut e = UndoTxEngine::format(m, log, THREADS);
        e.set_clear_policy(policy);
        e
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
    fn abort_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.abort(m, tid).unwrap();
    }
}

impl Engine for RedoTxEngine {
    fn boot(m: &mut Machine, log: AddrRange, policy: ClearPolicy) -> Self {
        let mut e = RedoTxEngine::format(m, log, THREADS);
        e.set_clear_policy(policy);
        e
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
    fn abort_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.abort(m, tid).unwrap();
    }
}

impl Engine for MinTxEngine {
    /// Never clears its log, so it takes no policy.
    fn boot(m: &mut Machine, log: AddrRange, _: ClearPolicy) -> Self {
        MinTxEngine::format(m, log, THREADS)
    }
    fn reboot(m: &mut Machine, log: AddrRange) -> Self {
        MinTxEngine::recover(m, Tid(0), log, THREADS)
    }
    fn begin_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.begin(m, tid).unwrap();
    }
    fn commit_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.commit(m, tid).unwrap();
    }
    fn abort_tx(&mut self, m: &mut Machine, tid: Tid) {
        self.abort(m, tid).unwrap();
    }
}

/// The writes of scripted transaction `i` on `tid`, and what it reads
/// back through the engine, appended to `seen`.
fn writes<E: Engine>(m: &mut Machine, e: &mut E, tid: Tid, i: u64, seen: &mut String) {
    let base = data(m);
    let at = base + (i * 7 % 48) * 64 + (i % 8) * 8;
    e.tx_write_u64(m, tid, at, i + 1, Category::UserData)
        .unwrap();
    e.tx_write_u32(m, tid, at + 64 * 3 + 4, i as u32 * 3, Category::AppMeta)
        .unwrap();
    if i.is_multiple_of(5) {
        // Past the undo engine's 256-byte on-stack old value.
        let bytes: Vec<u8> = (0..300).map(|b| (b + i) as u8).collect();
        e.tx_write(m, tid, base + 52 * 64 + i, &bytes, Category::UserData)
            .unwrap();
    }
    let read = e.tx_read_u64(m, tid, at);
    let wide = e.tx_read(m, tid, at - 4, 16);
    seen.push_str(&format!("{i}:{read}:{:x};", pmem::hash::fnv1a(&wide)));
}

/// The data region's contents, as `tid` reads them outside any
/// transaction.
fn contents(m: &mut Machine, tid: Tid) -> String {
    let base = data(m);
    format!(
        "{:x}",
        pmem::hash::fnv1a(&m.load_vec(tid, base, DATA_BYTES))
    )
}

/// Arm a capture after each of the next [`SWEEP`] PM events.
fn arm(m: &mut Machine) {
    m.set_crash_plan(CrashPlan::at_points(
        CrashCounter::PmEvents,
        (1..=SWEEP).collect(),
    ));
}

/// The `(run, crash)` digests of one engine under `policy`.
fn script<E: Engine>(policy: ClearPolicy) -> (u64, u64) {
    let mut m = Machine::new(cfg());
    let log = log_range(&m);
    let mut e = E::boot(&mut m, log, policy);
    let mut seen = String::new();
    for i in 0..TXS {
        let (t, other) = (tid(i), tid(i + 1));
        e.begin_tx(&mut m, t);
        writes(&mut m, &mut e, t, i, &mut seen);
        if i % 3 == 1 {
            // An overlapping transaction on the next thread.
            e.begin_tx(&mut m, other);
            writes(&mut m, &mut e, other, i + 100, &mut seen);
            if i % 2 == 0 {
                e.commit_tx(&mut m, other);
            } else {
                e.abort_tx(&mut m, other);
            }
        }
        if i % 4 == 3 {
            e.abort_tx(&mut m, t);
        } else {
            e.commit_tx(&mut m, t);
        }
    }
    seen.push_str(&contents(&mut m, Tid(1)));
    let run = digest(&m, &seen);

    // The crash window: an abort, a commit, and one left open.
    arm(&mut m);
    let mut window = String::new();
    e.begin_tx(&mut m, Tid(1));
    writes(&mut m, &mut e, Tid(1), 200, &mut window);
    e.abort_tx(&mut m, Tid(1));
    e.begin_tx(&mut m, Tid(2));
    writes(&mut m, &mut e, Tid(2), 201, &mut window);
    writes(&mut m, &mut e, Tid(2), 202, &mut window);
    e.commit_tx(&mut m, Tid(2));
    e.begin_tx(&mut m, Tid(3));
    writes(&mut m, &mut e, Tid(3), 203, &mut window);
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
    let mut all = window.into_bytes();
    for img in &images {
        let mut m2 = Machine::from_image(cfg(), img);
        let mut e2 = E::reboot(&mut m2, log);
        let mut after = contents(&mut m2, Tid(0));
        e2.begin_tx(&mut m2, Tid(0));
        writes(&mut m2, &mut e2, Tid(0), 300, &mut after);
        e2.commit_tx(&mut m2, Tid(0));
        after.push_str(&contents(&mut m2, Tid(2)));
        all.extend_from_slice(&digest(&m2, &after).to_le_bytes());
    }
    (run, pmem::hash::fnv1a(&all))
}

fn rows() -> Vec<(&'static str, u64)> {
    let (undo, undo_crash) = script::<UndoTxEngine>(ClearPolicy::PerEntry);
    let (undo_b, undo_b_crash) = script::<UndoTxEngine>(ClearPolicy::Batched);
    let (redo, redo_crash) = script::<RedoTxEngine>(ClearPolicy::PerEntry);
    let (redo_b, redo_b_crash) = script::<RedoTxEngine>(ClearPolicy::Batched);
    let (min, min_crash) = script::<MinTxEngine>(ClearPolicy::PerEntry);
    vec![
        ("undo", undo),
        ("undo/crash", undo_crash),
        ("undo/batched", undo_b),
        ("undo/batched/crash", undo_b_crash),
        ("redo", redo),
        ("redo/crash", redo_crash),
        ("redo/batched", redo_b),
        ("redo/batched/crash", redo_b_crash),
        ("mintx", min),
        ("mintx/crash", min_crash),
    ]
}

#[test]
fn pmtx_writes_are_byte_identical_to_the_pinned_commit() {
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
