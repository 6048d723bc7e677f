//! Byte-identity pins for everything `pmcheck` produces.
//!
//! For every Table 1 application at scale 0.05 / seed 42, at four and
//! at one scheduler worker, four FNV-1a digests are compared against
//! constants generated on the commit *before* the checker moved onto
//! its dense line table: the findings (every field, message included),
//! the epoch graph's JSON and DOT, the rewriter's output, and the
//! proven-durable line lists at the crash campaign's point spread.
//! A mismatch means a data-structure change leaked into the output.
//!
//! To regenerate after an *intended* output change:
//! `cargo test --test pmcheck_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use pmcheck::hb::{durable_lines_at, EpochGraph};
use pmcheck::{check_events, rewrite_events};
use pmtrace::{Event, EventKind};
use whisper::suite::{run_named_threads, SuiteConfig, APP_NAMES};

/// What each digest in a [`PINS`] row covers, in order.
const FACETS: [&str; 4] = ["findings", "graph", "rewrite", "durable"];

/// Crash points per trace, spread as the campaign spreads them.
const POINTS: u64 = 4;

/// `(app, worker threads, [findings, graph, rewrite, durable])`.
#[rustfmt::skip]
const PINS: &[(&str, u32, [u64; 4])] = &[
    ("echo", 4, [0x33f88b5ab349b990, 0x8efcbeb3427dcba5, 0x2ea3ba100b3f6bad, 0x071418d574afa670]),
    ("nstore-ycsb", 4, [0x6f2db64c320ccd17, 0xd6154c01a511be8c, 0x53b46e00d938f4be, 0x123b89721df47366]),
    ("nstore-tpcc", 4, [0x40093bfebbd04ddc, 0x44acbe85d92f041a, 0x3e40e6bbecc49cab, 0xcc83e670be54a52c]),
    ("redis", 4, [0xb0902dce9bcea86f, 0x64805796fb8a4948, 0xdbb11f846178e810, 0x2d286a3c34d81ad2]),
    ("ctree", 4, [0x2691a033e1185246, 0x3f6d2d886e3fbb07, 0x7c4e2481324cbfae, 0x77b41f77bde61165]),
    ("hashmap", 4, [0xeda2393fc5851209, 0xc1bfed47024779b4, 0xb61aeef57e99bc48, 0xe8201549b42521b5]),
    ("vacation", 4, [0xf40c7ef19e05b194, 0x2cb87a599825b9f2, 0x66ebd3fdcca7cdc6, 0x5187f5dcbcfab397]),
    ("memcached", 4, [0x9f94e0529c883176, 0xeb277a5b839dc082, 0x4f24fa9f178a7e3f, 0xc61176b72e8ef63a]),
    ("nfs", 4, [0x3280f0ac871a55a6, 0x60edaf5e92018e5b, 0x0d5c0e0d2b0febc0, 0xcc353183ef5cd054]),
    ("exim", 4, [0x0b98ad598c697ad9, 0xa9c2de6e9688c087, 0x8025b9f56b0c6660, 0xb72f4f34e3564ba4]),
    ("mysql", 4, [0xae44c8db3f604788, 0xb3578c889ff62f8c, 0x2c7bbab7a0919a98, 0xf89b0faccc4f7be7]),
    ("echo", 1, [0x33f88b5ab349b990, 0x8efcbeb3427dcba5, 0x2ea3ba100b3f6bad, 0x071418d574afa670]),
    ("nstore-ycsb", 1, [0x6f2db64c320ccd17, 0xd6154c01a511be8c, 0x53b46e00d938f4be, 0x123b89721df47366]),
    ("nstore-tpcc", 1, [0x40093bfebbd04ddc, 0x44acbe85d92f041a, 0x3e40e6bbecc49cab, 0xcc83e670be54a52c]),
    ("redis", 1, [0xb0902dce9bcea86f, 0xa4b4e4f90127a29f, 0x9ef399060a2561a4, 0xe889dbe52e8dead6]),
    ("ctree", 1, [0x2691a033e1185246, 0x3f6d2d886e3fbb07, 0x7c4e2481324cbfae, 0x77b41f77bde61165]),
    ("hashmap", 1, [0xeda2393fc5851209, 0xc1bfed47024779b4, 0xb61aeef57e99bc48, 0xe8201549b42521b5]),
    ("vacation", 1, [0x7a6a01bd8f7786d2, 0x29e6c6a2175eed35, 0x9e48b5c9ca6f4338, 0x6d7b0c1c044f7f8f]),
    ("memcached", 1, [0xd71ba749703af040, 0xeefa215ecf4a3e25, 0x1d287569e0e455fb, 0x089f672f811c24be]),
    ("nfs", 1, [0x3280f0ac871a55a6, 0x60edaf5e92018e5b, 0x0d5c0e0d2b0febc0, 0xcc353183ef5cd054]),
    ("exim", 1, [0x0b98ad598c697ad9, 0xa9c2de6e9688c087, 0x8025b9f56b0c6660, 0xb72f4f34e3564ba4]),
    ("mysql", 1, [0xae44c8db3f604788, 0xb3578c889ff62f8c, 0x2c7bbab7a0919a98, 0xf89b0faccc4f7be7]),
];

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) -> &mut Fnv {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// `None` and `Some(0)` must differ.
    fn opt(&mut self, v: Option<u64>) -> &mut Fnv {
        match v {
            Some(v) => self.u64(1).u64(v),
            None => self.u64(0),
        }
    }
}

fn trace(name: &str, workers: u32) -> Vec<Event> {
    let cfg = SuiteConfig {
        scale: 0.05,
        seed: 42,
        parallelism: 1,
        worker_threads: workers,
    };
    let ops = cfg.effective_ops(name).expect("Table 1 name");
    run_named_threads(name, ops, cfg.seed, workers).events
}

/// The campaign's `spread_points` over this trace's fences.
fn crash_points(events: &[Event]) -> Vec<u64> {
    let fences = events
        .iter()
        .filter(|e| matches!(e.kind(), EventKind::Fence | EventKind::DFence))
        .count() as u64;
    let mut points: Vec<u64> = (1..=POINTS)
        .filter(|_| fences > 0)
        .map(|i| (fences * i / (POINTS + 1)).clamp(1, fences))
        .collect();
    points.dedup();
    points
}

/// Where each fence ordinal of `points` ends the trace: the length of
/// the prefix whose last event is that fence.
fn fence_ends(events: &[Event], points: &[u64]) -> Vec<usize> {
    let fences: Vec<usize> = (1..=events.len())
        .filter(|&end| matches!(events[end - 1].kind(), EventKind::Fence | EventKind::DFence))
        .collect();
    points.iter().map(|&p| fences[p as usize - 1]).collect()
}

fn digests(name: &str, events: &[Event]) -> [u64; 4] {
    let mut findings = Fnv::new();
    let report = check_events(events);
    findings.u64(report.events_visited);
    for f in &report.findings {
        findings
            .str(f.rule.id())
            .str(&f.severity.to_string())
            .u64(u64::from(f.tid.0))
            .u64(f.at_ns)
            .opt(f.line.map(|l| l.0))
            .u64(f.epoch)
            .opt(f.tx)
            .opt(f.at_index.map(|i| i as u64))
            .str(&f.message);
    }

    let mut graph = Fnv::new();
    let g = EpochGraph::build(events);
    graph.str(&g.to_json(name).to_pretty()).str(&g.to_dot(name));

    let mut rewrite = Fnv::new();
    let rw = rewrite_events(events);
    rewrite
        .u64(rw.rounds as u64)
        .u64(rw.elided_flushes as u64)
        .u64(rw.elided_fences as u64)
        .u64(rw.elided.len() as u64);
    for i in &rw.elided {
        rewrite.u64(*i as u64);
    }
    for e in rw.events.iter() {
        rewrite
            .u64(u64::from(e.tid().0))
            .u64(e.at_ns())
            .str(&format!("{:?}", e.kind()));
    }

    let mut durable = Fnv::new();
    let points = crash_points(events);
    let proven = durable_lines_at(events, &fence_ends(events, &points));
    for (point, lines) in points.iter().zip(proven) {
        durable.u64(*point).u64(lines.len() as u64);
        for l in lines {
            durable.u64(l.0);
        }
    }

    [findings.0, graph.0, rewrite.0, durable.0]
}

fn rows() -> impl Iterator<Item = (&'static str, u32)> {
    [4u32, 1]
        .into_iter()
        .flat_map(|w| APP_NAMES.into_iter().map(move |n| (n, w)))
}

#[test]
fn pmcheck_output_is_byte_identical_to_the_pinned_commit() {
    assert_eq!(PINS.len(), rows().count(), "one pin per (app, threads)");
    for ((name, workers), (pin_name, pin_workers, pinned)) in rows().zip(PINS.iter().copied()) {
        assert_eq!((name, workers), (pin_name, pin_workers), "pin order");
        let got = digests(name, &trace(name, workers));
        for ((facet, got), want) in FACETS.iter().zip(got).zip(pinned) {
            assert_eq!(
                got, want,
                "{name} at {workers} worker(s): {facet} digest {got:#018x} != pinned {want:#018x}"
            );
        }
    }
}

/// Prints the [`PINS`] table for the current commit.
#[test]
#[ignore = "generator: prints the PINS table, asserts nothing"]
fn print_pins() {
    for (name, workers) in rows() {
        let d = digests(name, &trace(name, workers));
        println!(
            "    ({name:?}, {workers}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2], d[3]
        );
    }
}
