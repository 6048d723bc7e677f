//! Byte-identity pins for what the filesystem and its metadata journal
//! write.
//!
//! A scripted mix of operations runs from four threads on a traced
//! machine: mkfs, mkdir, create, writes across block boundaries,
//! append, truncate, unlink, rename and rmdir. A final multi-entry
//! operation is then crashed at every PM event (a [`CrashPlan`] sweep),
//! and once more at the end of the run ([`Machine::crash`]); each image
//! is mounted — journal recovery — on a fresh traced machine.
//!
//! One FNV-1a digest per row covers the trace codec's bytes of every
//! recorded event plus the contents of every file and, for the crash
//! rows, whether each mount rolled back. The crash campaign runs
//! recovery inside untraced oracles, so these rows are the only pin on
//! the journal's recovery write sequence.
//!
//! To regenerate after an *intended* output change:
//! `cargo test -p pmfs --test trace_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].

use memsim::{CrashCounter, CrashPlan, CrashSpec, Machine, MachineConfig};
use pmem::AddrRange;
use pmfs::{Pmfs, PmfsConfig};
use pmtrace::Tid;

/// `(row, digest)` in the order [`rows`] produces them.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("run", 0x6396a9bdb0e8c823),
    ("crash", 0xb4908cb334b8867d),
];

const THREADS: u32 = 4;
/// PM event ordinals the sweep captures after: more than the final
/// operation issues, so every one of its events is a crash point.
const SWEEP: u64 = 400;
/// Adversarial seeds each captured state is also materialized under,
/// beside the two corners.
const SEEDS: u64 = 8;

fn tid(i: u64) -> Tid {
    Tid((i % u64::from(THREADS)) as u32)
}

fn cfg() -> MachineConfig {
    MachineConfig::asplos17()
}

fn region(m: &Machine) -> AddrRange {
    AddrRange::new(m.config().map.pm.base, 64 << 20)
}

/// FNV-1a over the codec bytes of every event `m` recorded, then
/// `summary`.
fn digest(m: &Machine, summary: &str) -> u64 {
    let mut bytes = pmtrace::encode_events(m.trace().events());
    bytes.extend_from_slice(summary.as_bytes());
    pmem::hash::fnv1a(&bytes)
}

/// Every path under `dir`, depth first, with each file's size and the
/// FNV-1a of its contents.
fn summary(fs: &mut Pmfs, m: &mut Machine, dir: &str) -> String {
    let mut names = fs.readdir(m, Tid(1), dir).unwrap();
    names.sort();
    let mut s = String::new();
    for name in names {
        let path = format!("{}/{name}", dir.trim_end_matches('/'));
        if fs.stat(m, Tid(2), &path).unwrap().is_dir {
            s.push_str(&format!("{path}/;{}", summary(fs, m, &path)));
        } else {
            let data = fs.read_file(m, Tid(3), &path).unwrap();
            s.push_str(&format!(
                "{path}={}:{:x};",
                data.len(),
                pmem::hash::fnv1a(&data)
            ));
        }
    }
    s
}

fn bytes(i: u64, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i as usize * 31 + j) as u8).collect()
}

/// The scripted mix, ending with a five-block file and a directory the
/// crash rows then work on.
fn script(fs: &mut Pmfs, m: &mut Machine) {
    for d in 0..3 {
        fs.mkdir(m, tid(d), &format!("/d{d}")).unwrap();
    }
    for i in 0..12 {
        let path = format!("/d{}/f{i}", i % 3);
        fs.create(m, tid(i + 1), &path).unwrap();
        // Straddles a block boundary, and grows with `i`.
        fs.write(
            m,
            tid(i + 2),
            &path,
            4000,
            &bytes(i, 200 + 150 * i as usize),
        )
        .unwrap();
        if i % 2 == 0 {
            fs.append(m, tid(i + 3), &path, &bytes(i + 7, 5000))
                .unwrap();
        }
        m.advance_ns(20_000);
    }
    for i in (0..12).step_by(3) {
        let path = format!("/d{}/f{i}", i % 3);
        fs.truncate(m, tid(i), &path, 4100).unwrap();
        fs.rename(m, tid(i + 1), &path, &format!("/d{}/g{i}", (i + 1) % 3))
            .unwrap();
    }
    for i in (1..12).step_by(3) {
        fs.unlink(m, tid(i + 2), &format!("/d{}/f{i}", i % 3))
            .unwrap();
    }
    fs.mkdir(m, Tid(1), "/empty").unwrap();
    fs.mkdir(m, Tid(2), "/gone").unwrap();
    fs.rmdir(m, Tid(3), "/gone").unwrap();
    fs.create(m, Tid(0), "/big").unwrap();
    fs.write(m, Tid(0), "/big", 0, &bytes(99, 5 * 4096))
        .unwrap();
}

fn run() -> Vec<(&'static str, u64)> {
    let mut m = Machine::new(cfg());
    let reg = region(&m);
    let mut fs = Pmfs::mkfs(&mut m, Tid(0), reg, PmfsConfig::default()).unwrap();
    script(&mut fs, &mut m);
    let s = summary(&mut fs, &mut m, "/");
    let run = digest(&m, &s);

    // The final operation frees four blocks: eleven journal entries.
    m.set_crash_plan(CrashPlan::at_points(
        CrashCounter::PmEvents,
        (1..=SWEEP).collect(),
    ));
    fs.truncate(&mut m, Tid(2), "/big", 1000).unwrap();
    let states = m.take_crash_states();
    assert!(
        (states.len() as u64) < SWEEP,
        "the sweep must outlast the final operation"
    );
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
    let (mut all, mut rollbacks) = (Vec::new(), 0);
    for img in &images {
        let mut m2 = Machine::from_image(cfg(), img);
        let (mut fs2, rolled_back) = Pmfs::mount(&mut m2, Tid(0), reg).unwrap();
        rollbacks += usize::from(rolled_back);
        let s = format!("{rolled_back};{}", summary(&mut fs2, &mut m2, "/"));
        all.extend_from_slice(&digest(&m2, &s).to_le_bytes());
    }
    assert!(
        0 < rollbacks && rollbacks < images.len(),
        "the sweep must reach both sides of the commit"
    );
    vec![("run", run), ("crash", pmem::hash::fnv1a(&all))]
}

fn rows() -> Vec<(&'static str, u64)> {
    run()
}

#[test]
fn pmfs_writes_are_byte_identical_to_the_pinned_commit() {
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
