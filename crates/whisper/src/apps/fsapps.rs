//! The filesystem applications: NFS, Exim, and MySQL over PMFS
//! (Section 3.2.3).
//!
//! "WHISPER includes three common applications to store and access
//! files in PM using PMFS. These applications are unmodified popular
//! open-source programs." What reaches PM is therefore exactly the
//! syscall stream each program makes; the servers themselves (RPC
//! decoding, SMTP, SQL parsing and buffer-pool logic) are volatile
//! work, and each driver's pacing (filebench clients, postal's
//! 1000 msgs/min, sysbench connections) sets the epoch *rate* — which
//! is why Table 1 spans 6250 epochs/s (Exim) to 250 K (NFS).

use super::{App, AppRun, Layer, Setup, VolatileArena};
use crate::crashtest::{Arm, CrashRun};
use crate::report::PaperRow;
use crate::workloads::{self, FileserverOp};
use memsim::{Machine, MachineConfig};
use pmem::{AddrRange, PmImage};
use pmfs::{Pmfs, PmfsConfig};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;

/// NFS-over-PMFS's Table 1 row.
pub(crate) const NFS: App = App {
    name: "nfs",
    workload: "filebench fileserver / 8 clients",
    layer: Layer::Pmfs,
    base_ops: 4_000,
    paper: PaperRow {
        epochs_per_sec: 2.5e5,
        fig3_median: 2,
        fig5_self_pct: 55.0,
        fig5_cross_pct: 5.0,
        fig6_pm_pct: None,
    },
    setup: setup_nfs,
    unpaced: false,
    crash_ops: 40,
    crash_run: crash_run_nfs,
};

/// Exim-over-PMFS's Table 1 row.
pub(crate) const EXIM: App = App {
    name: "exim",
    workload: "postal / 250 mailboxes, paced",
    layer: Layer::Pmfs,
    base_ops: 400,
    paper: PaperRow {
        epochs_per_sec: 6250.0,
        fig3_median: 5,
        fig5_self_pct: 45.27,
        fig5_cross_pct: 1.16,
        fig6_pm_pct: None,
    },
    setup: setup_exim,
    unpaced: false,
    crash_ops: 16,
    crash_run: crash_run_exim,
};

/// MySQL-over-PMFS's Table 1 row.
pub(crate) const MYSQL: App = App {
    name: "mysql",
    workload: "sysbench OLTP-complex / 4 clients",
    layer: Layer::Pmfs,
    base_ops: 1_500,
    paper: PaperRow {
        epochs_per_sec: 6.0e4,
        fig3_median: 7,
        fig5_self_pct: 17.89,
        fig5_cross_pct: 0.04,
        fig6_pm_pct: None,
    },
    setup: setup_mysql,
    unpaced: false,
    crash_ops: 24,
    crash_run: crash_run_mysql,
};

const THREADS: u32 = 4;

fn build_fs(m: &mut Machine) -> (Pmfs, AddrRange) {
    let region = AddrRange::new(m.config().map.pm.base, 96 << 20);
    let cfg = PmfsConfig {
        data_blocks: 16_384, // 64 MB of data
        inodes: 2048,
        journal_bytes: 128 * 1024,
    };
    let fs = Pmfs::mkfs(m, Tid(0), region, cfg).expect("mkfs");
    (fs, region)
}

/// One NFS crash-campaign operation.
#[derive(Debug, Clone, Copy)]
enum NfsOp {
    /// Replace `/export/f{file}` wholesale: unlink, create, write
    /// `size` bytes of `fill`.
    CreateWrite { file: u64, fill: u8, size: usize },
    /// Append `len` bytes of `fill` to `/export/biglog`.
    Append { fill: u8, len: usize },
}

/// Crash workload + recovery oracle for NFS-over-PMFS (see
/// [`crate::crashtest`]). Whole-file replacements rotate over a small
/// set, with appends growing a shared log file across block
/// boundaries. PMFS journals metadata but not user data, so the
/// journal's undo makes each create/write/unlink all-or-nothing at the
/// size level: the oracle mounts the image (journal recovery must
/// succeed) and requires every committed file to read back exactly,
/// with the in-flight replacement observed as old, absent, empty, or
/// complete — never a torn length.
pub(crate) fn crash_run_nfs(ops: usize, _workers: u32, arm: &Arm<'_>) -> CrashRun {
    const N_FILES: u64 = 6;
    let mut m = Machine::new(MachineConfig::asplos17());
    m.trace_mut().set_enabled(false);
    let (mut fs, region) = build_fs(&mut m);
    fs.mkdir(&mut m, Tid(0), "/export").expect("mkdir");
    fs.create(&mut m, Tid(0), "/export/biglog").expect("biglog");
    let mut rng = SmallRng::seed_from_u64(0x9f5c);
    let plan_ops: Vec<NfsOp> = (0..ops)
        .map(|i| {
            let fill = (i % 251 + 1) as u8;
            if i % 4 == 3 {
                NfsOp::Append {
                    fill,
                    len: rng.gen_range(200..2200),
                }
            } else {
                NfsOp::CreateWrite {
                    file: rng.gen_range(0..N_FILES),
                    fill,
                    size: rng.gen_range(256..2048),
                }
            }
        })
        .collect();

    arm.apply(&mut m);
    for (i, op) in plan_ops.iter().enumerate() {
        let tid = Tid((i % THREADS as usize) as u32);
        match *op {
            NfsOp::CreateWrite { file, fill, size } => {
                let p = format!("/export/f{file:04}");
                let _ = fs.unlink(&mut m, tid, &p);
                fs.create(&mut m, tid, &p).expect("create");
                fs.write(&mut m, tid, &p, 0, &vec![fill; size])
                    .expect("write");
            }
            NfsOp::Append { fill, len } => {
                fs.append(&mut m, tid, "/export/biglog", &vec![fill; len])
                    .expect("append");
            }
        }
        m.note_progress(i as u64 + 1);
    }

    let total = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let (mut fs2, _) =
            Pmfs::mount(&mut m2, Tid(0), region).map_err(|e| format!("mount failed: {e:?}"))?;
        // Replay the committed prefix into a volatile model.
        let mut files: Vec<Option<(u8, usize)>> = vec![None; N_FILES as usize];
        let mut biglog: Vec<u8> = Vec::new();
        for op in &plan_ops[..progress as usize] {
            match *op {
                NfsOp::CreateWrite { file, fill, size } => {
                    files[file as usize] = Some((fill, size));
                }
                NfsOp::Append { fill, len } => biglog.extend(std::iter::repeat_n(fill, len)),
            }
        }
        let in_flight = plan_ops.get(progress as usize).copied();
        let content = |fs2: &mut Pmfs, m2: &mut Machine, p: &str| -> Option<Vec<u8>> {
            fs2.read_file(m2, Tid(0), p).ok()
        };
        for f in 0..N_FILES {
            let p = format!("/export/f{f:04}");
            let got = content(&mut fs2, &mut m2, &p);
            let want = files[f as usize].map(|(fill, size)| vec![fill; size]);
            let committed_ok = got == want;
            let in_flight_ok = match in_flight {
                Some(NfsOp::CreateWrite { file, fill, size }) if file == f => {
                    match got.as_deref() {
                        None => true, // unlinked, not yet recreated
                        Some(b) => b.is_empty() || b == vec![fill; size].as_slice(),
                    }
                }
                _ => false,
            };
            if !(committed_ok || in_flight_ok) {
                return Err(format!(
                    "file {p}: recovered {:?} bytes != committed {:?}",
                    got.map(|b| b.len()),
                    want.map(|b| b.len())
                ));
            }
        }
        let got_log =
            content(&mut fs2, &mut m2, "/export/biglog").ok_or("biglog missing".to_string())?;
        let log_ok = got_log == biglog
            || matches!(
                in_flight,
                Some(NfsOp::Append { fill, len })
                    if got_log.len() == biglog.len() + len
                        && got_log[..biglog.len()] == biglog[..]
                        && got_log[biglog.len()..].iter().all(|b| *b == fill)
            );
        if !log_ok {
            return Err(format!(
                "biglog: recovered {} bytes != committed {}",
                got_log.len(),
                biglog.len()
            ));
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total, oracle)
}

/// A fresh machine with a fresh PMFS volume, tracing off.
fn mkfs_untraced(arena_bytes: u64) -> (Machine, Pmfs, VolatileArena) {
    let mut m = Machine::new(MachineConfig::asplos17());
    m.trace_mut().set_enabled(false);
    let (fs, _) = build_fs(&mut m);
    let arena = VolatileArena::new(&mut m, arena_bytes);
    (m, fs, arena)
}

/// mkfs and export setup are untraced.
fn setup_nfs(ops: usize, _workers: u32) -> Setup {
    let (mut m, mut fs, arena) = mkfs_untraced(2 << 20);
    fs.mkdir(&mut m, Tid(0), "/export").expect("mkdir");
    Setup::new(m, (ops, fs, arena), drive_nfs)
}

fn drive_nfs(
    mut m: Machine,
    (ops, mut fs, mut arena): (usize, Pmfs, VolatileArena),
    seed: u64,
    _paced: bool,
) -> AppRun {
    let n_files = 64;
    // 8 logical NFS clients multiplexed onto the 4 hardware threads.
    m.trace_mut().set_enabled(true);
    let mut jitter = SmallRng::seed_from_u64(seed ^ 0x9f5);
    for (i, op) in workloads::fileserver(n_files, ops, 65_536, seed)
        .into_iter()
        .enumerate()
    {
        let client = i % 8;
        let tid = Tid((client % THREADS as usize) as u32);
        // RPC decode, export lookup, reply marshalling.
        arena.work(&mut m, tid, 90);
        // The 8 clients think in parallel, so about half the requests
        // arrive back to back with another client's — the overlap that
        // produces NFS's cross-thread dependencies on the shared
        // journal, bitmaps, and directories (Figure 5: 5%).
        if jitter.gen_bool(0.5) {
            m.advance_ns(jitter.gen_range(100_000..210_000));
        }
        let path = |f: u64| format!("/export/f{f:04}");
        match op {
            FileserverOp::CreateWrite { file, size } => {
                let p = path(file);
                let _ = fs.unlink(&mut m, tid, &p);
                fs.create(&mut m, tid, &p).expect("create");
                fs.write(&mut m, tid, &p, 0, &vec![file as u8; size.min(100_000)])
                    .expect("write");
            }
            FileserverOp::Append { file, size } => {
                let p = path(file);
                if fs.stat(&mut m, tid, &p).is_ok() {
                    let _ = fs.append(&mut m, tid, &p, &vec![file as u8; size.min(16_384)]);
                }
            }
            FileserverOp::ReadWhole { file } => {
                let _ = fs.read_file(&mut m, tid, &path(file));
            }
            FileserverOp::Stat { file } => {
                let _ = fs.stat(&mut m, tid, &path(file));
            }
            FileserverOp::Delete { file } => {
                let _ = fs.unlink(&mut m, tid, &path(file));
            }
        }
    }
    NFS.collect(m)
}

/// Crash workload + recovery oracle for Exim-over-PMFS (see
/// [`crate::crashtest`]). Each delivery is spool-create → spool-write
/// → mbox-append → log-append → spool-unlink, against pre-created
/// mailboxes. The oracle mounts the image and requires: every
/// committed delivery's spool file gone, each mailbox equal to the
/// concatenation of its committed bodies (the in-flight body may
/// additionally be present in full), the main log equal to the
/// committed delivery lines (plus at most the in-flight line), and the
/// in-flight spool file absent, empty, or complete.
pub(crate) fn crash_run_exim(msgs: usize, _workers: u32, arm: &Arm<'_>) -> CrashRun {
    const MBOXES: u64 = 4;
    const BODY: usize = 600;
    let mut m = Machine::new(MachineConfig::asplos17());
    m.trace_mut().set_enabled(false);
    let (mut fs, region) = build_fs(&mut m);
    fs.mkdir(&mut m, Tid(0), "/spool").expect("mkdir");
    fs.mkdir(&mut m, Tid(0), "/mbox").expect("mkdir");
    fs.create(&mut m, Tid(0), "/mainlog").expect("log");
    for u in 0..MBOXES {
        fs.create(&mut m, Tid(0), &format!("/mbox/u{u:03}"))
            .expect("mbox");
    }
    let spool_path = |i: usize| format!("/spool/m{i:04}");
    let log_line = |i: usize, mbox: u64| format!("delivered m{i} to u{mbox:03}\n");
    let body_fill = |i: usize| (i % 251 + 1) as u8;

    arm.apply(&mut m);
    for i in 0..msgs {
        let tid = Tid((i % THREADS as usize) as u32);
        let mbox = (i as u64 * 7 + 3) % MBOXES;
        let spool = spool_path(i);
        fs.create(&mut m, tid, &spool).expect("spool");
        fs.write(&mut m, tid, &spool, 0, &[body_fill(i); BODY])
            .expect("spool write");
        let body = fs.read_file(&mut m, tid, &spool).expect("read spool");
        fs.append(&mut m, tid, &format!("/mbox/u{mbox:03}"), &body)
            .expect("deliver");
        fs.append(&mut m, tid, "/mainlog", log_line(i, mbox).as_bytes())
            .expect("log");
        fs.unlink(&mut m, tid, &spool).expect("unspool");
        m.note_progress(i as u64 + 1);
    }

    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let (mut fs2, _) =
            Pmfs::mount(&mut m2, Tid(0), region).map_err(|e| format!("mount failed: {e:?}"))?;
        let committed = progress as usize;
        for i in 0..committed {
            if fs2.stat(&mut m2, Tid(0), &spool_path(i)).is_ok() {
                return Err(format!("committed spool {} still present", spool_path(i)));
            }
        }
        if committed < msgs {
            match fs2.read_file(&mut m2, Tid(0), &spool_path(committed)) {
                Err(_) => {}
                Ok(b) if b.is_empty() || b == vec![body_fill(committed); BODY] => {}
                Ok(b) => {
                    return Err(format!(
                        "in-flight spool torn: {} bytes, expected 0 or {BODY}",
                        b.len()
                    ))
                }
            }
        }
        let in_flight_mbox = (committed < msgs).then(|| (committed as u64 * 7 + 3) % MBOXES);
        for u in 0..MBOXES {
            let mut want: Vec<u8> = Vec::new();
            for i in 0..committed {
                if (i as u64 * 7 + 3) % MBOXES == u {
                    want.extend(std::iter::repeat_n(body_fill(i), BODY));
                }
            }
            let got = fs2
                .read_file(&mut m2, Tid(0), &format!("/mbox/u{u:03}"))
                .map_err(|e| format!("mbox u{u:03} unreadable: {e:?}"))?;
            let plus_in_flight = in_flight_mbox == Some(u)
                && got.len() == want.len() + BODY
                && got[..want.len()] == want[..]
                && got[want.len()..].iter().all(|b| *b == body_fill(committed));
            if got != want && !plus_in_flight {
                return Err(format!(
                    "mbox u{u:03}: {} bytes recovered, {} committed",
                    got.len(),
                    want.len()
                ));
            }
        }
        let mut want_log = String::new();
        for i in 0..committed {
            want_log.push_str(&log_line(i, (i as u64 * 7 + 3) % MBOXES));
        }
        let got_log = fs2
            .read_file(&mut m2, Tid(0), "/mainlog")
            .map_err(|e| format!("mainlog unreadable: {e:?}"))?;
        let with_in_flight = (committed < msgs)
            .then(|| {
                let mut s = want_log.clone();
                s.push_str(&log_line(committed, (committed as u64 * 7 + 3) % MBOXES));
                s
            })
            .is_some_and(|s| got_log == s.as_bytes());
        if got_log != want_log.as_bytes() && !with_in_flight {
            return Err(format!(
                "mainlog: {} bytes recovered, {} committed",
                got_log.len(),
                want_log.len()
            ));
        }
        Ok(())
    });
    crate::crashtest::harvest(m, msgs as u64, oracle)
}

/// mkfs and mailbox setup are untraced.
fn setup_exim(msgs: usize, _workers: u32) -> Setup {
    let (mut m, mut fs, arena) = mkfs_untraced(2 << 20);
    fs.mkdir(&mut m, Tid(0), "/spool").expect("mkdir");
    fs.mkdir(&mut m, Tid(0), "/mbox").expect("mkdir");
    fs.create(&mut m, Tid(0), "/mainlog").expect("log");
    Setup::new(m, (msgs, fs, arena), drive_exim)
}

fn drive_exim(
    mut m: Machine,
    (msgs, mut fs, mut arena): (usize, Pmfs, VolatileArena),
    seed: u64,
    _paced: bool,
) -> AppRun {
    let n_mailboxes = 250;
    let mut pace = SmallRng::seed_from_u64(seed ^ 0xe41);

    m.trace_mut().set_enabled(true);
    for (i, msg) in workloads::postal(n_mailboxes, msgs, 24_576, seed)
        .into_iter()
        .enumerate()
    {
        let tid = Tid((i % THREADS as usize) as u32);
        // SMTP session + routing + the three child processes' work.
        arena.work(&mut m, tid, 150);
        // postal pacing: ~1000 msgs/min; most deliveries are spaced
        // out, an occasional pair overlaps (the rare cross-thread
        // dependency, Figure 5: 1.16%).
        if pace.gen_bool(0.75) {
            m.advance_ns(29_300_000);
        }
        let spool = format!("/spool/m{i:06}");
        let mbox = format!("/mbox/u{:03}", msg.mailbox);
        // 1. Receive into the spool.
        fs.create(&mut m, tid, &spool).expect("spool");
        fs.write(&mut m, tid, &spool, 0, &vec![i as u8; msg.size.min(32_768)])
            .expect("spool write");
        // SMTP DATA phase completes; the delivery child takes over.
        m.advance_ns(300_000);
        // 2. Append to the per-user mailbox (rotate if huge).
        if fs
            .stat(&mut m, tid, &mbox)
            .map(|s| s.size > 1 << 20)
            .unwrap_or(false)
        {
            fs.truncate(&mut m, tid, &mbox, 0).expect("rotate");
        }
        if fs.stat(&mut m, tid, &mbox).is_err() {
            fs.create(&mut m, tid, &mbox).expect("mbox");
        }
        let body = fs.read_file(&mut m, tid, &spool).expect("read spool");
        fs.append(&mut m, tid, &mbox, &body).expect("deliver");
        // Delivery bookkeeping before logging.
        m.advance_ns(300_000);
        // 3. Log the delivery.
        fs.append(
            &mut m,
            tid,
            "/mainlog",
            format!("delivered m{i} to {mbox}\n").as_bytes(),
        )
        .expect("log");
        // 4. Remove the spool file.
        fs.unlink(&mut m, tid, &spool).expect("unspool");
    }
    EXIM.collect(m)
}

/// Crash workload + recovery oracle for MySQL-over-PMFS (see
/// [`crate::crashtest`]). Rows live packed in `/ibdata` (preloaded
/// before the plan arms); each operation overwrites one row in place
/// and appends a fixed-size binlog record. PMFS does not journal user
/// data, so an in-place row overwrite can tear at cache-line/block
/// granularity — the oracle therefore checks the in-flight row
/// byte-by-byte against {old fill, new fill}, while committed rows and
/// the binlog must read back exactly (the binlog may carry at most the
/// complete in-flight record, never a partial one: its size is
/// journaled metadata).
pub(crate) fn crash_run_mysql(ops: usize, _workers: u32, arm: &Arm<'_>) -> CrashRun {
    const N_ROWS: u64 = 64;
    const ROW: usize = 100;
    const REC: usize = 64;
    const PRELOAD_FILL: u8 = 0xA5;
    let mut m = Machine::new(MachineConfig::asplos17());
    m.trace_mut().set_enabled(false);
    let (mut fs, region) = build_fs(&mut m);
    fs.create(&mut m, Tid(0), "/ibdata").expect("table");
    fs.create(&mut m, Tid(0), "/binlog").expect("binlog");
    let total = N_ROWS as usize * ROW;
    for off in (0..total).step_by(4096) {
        let n = 4096.min(total - off);
        fs.write(
            &mut m,
            Tid(0),
            "/ibdata",
            off as u64,
            &vec![PRELOAD_FILL; n],
        )
        .expect("load");
    }
    let mut rng = SmallRng::seed_from_u64(0xdb_c4);
    let plan_ops: Vec<(u64, u8)> = (0..ops)
        .map(|i| (rng.gen_range(0..N_ROWS), (i % 251 + 1) as u8))
        .collect();

    arm.apply(&mut m);
    for (i, (row, fill)) in plan_ops.iter().enumerate() {
        let tid = Tid((i % THREADS as usize) as u32);
        fs.write(&mut m, tid, "/ibdata", row * ROW as u64, &[*fill; ROW])
            .expect("update");
        fs.append(&mut m, tid, "/binlog", &[*fill; REC])
            .expect("binlog");
        m.note_progress(i as u64 + 1);
    }

    let total_ops = plan_ops.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| -> Result<(), String> {
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), img);
        let (mut fs2, _) =
            Pmfs::mount(&mut m2, Tid(0), region).map_err(|e| format!("mount failed: {e:?}"))?;
        let mut rows = vec![PRELOAD_FILL; N_ROWS as usize];
        for (row, fill) in &plan_ops[..progress as usize] {
            rows[*row as usize] = *fill;
        }
        let in_flight = plan_ops.get(progress as usize).copied();
        let table = fs2
            .read_file(&mut m2, Tid(0), "/ibdata")
            .map_err(|e| format!("ibdata unreadable: {e:?}"))?;
        if table.len() != N_ROWS as usize * ROW {
            return Err(format!("ibdata truncated to {} bytes", table.len()));
        }
        for r in 0..N_ROWS as usize {
            let bytes = &table[r * ROW..(r + 1) * ROW];
            let old = rows[r];
            match in_flight {
                Some((row, fill)) if row as usize == r => {
                    // The in-flight overwrite may tear — but every byte
                    // must be either the old or the new fill.
                    if let Some(b) = bytes.iter().find(|b| **b != old && **b != fill) {
                        return Err(format!(
                            "row {r}: byte {b:#04x} is neither old {old:#04x} nor new {fill:#04x}"
                        ));
                    }
                }
                _ => {
                    if bytes.iter().any(|b| *b != old) {
                        return Err(format!("row {r}: committed fill {old:#04x} torn"));
                    }
                }
            }
        }
        let binlog = fs2
            .read_file(&mut m2, Tid(0), "/binlog")
            .map_err(|e| format!("binlog unreadable: {e:?}"))?;
        let committed_len = progress as usize * REC;
        let with_in_flight = in_flight.is_some() && binlog.len() == committed_len + REC;
        if binlog.len() != committed_len && !with_in_flight {
            return Err(format!(
                "binlog length {} is neither {committed_len} nor {}",
                binlog.len(),
                committed_len + REC
            ));
        }
        for (i, (_, fill)) in plan_ops[..progress as usize].iter().enumerate() {
            if binlog[i * REC..(i + 1) * REC].iter().any(|b| b != fill) {
                return Err(format!("binlog record {i} torn"));
            }
        }
        if with_in_flight {
            let (_, fill) = in_flight.expect("checked");
            if binlog[committed_len..].iter().any(|b| *b != fill) {
                return Err("in-flight binlog record torn despite committed size".into());
            }
        }
        Ok(())
    });
    crate::crashtest::harvest(m, total_ops, oracle)
}

/// MySQL's table: rows packed 100 B each in 4 KB pages.
const MYSQL_ROWS: usize = 4096;
const MYSQL_ROW: usize = 100;

/// mkfs and table loading are untraced.
fn setup_mysql(txs: usize, _workers: u32) -> Setup {
    let (mut m, mut fs, arena) = mkfs_untraced(4 << 20);
    // Table file plus binlog.
    fs.create(&mut m, Tid(0), "/ibdata").expect("table");
    fs.create(&mut m, Tid(0), "/binlog").expect("binlog");
    // Pre-extend the table file (untraced load phase).
    let total = MYSQL_ROWS * MYSQL_ROW;
    for off in (0..total).step_by(4096) {
        fs.write(&mut m, Tid(0), "/ibdata", off as u64, &[1u8; 4096])
            .expect("load");
    }
    m.trace_mut().set_enabled(true);
    Setup::new(m, (txs, fs, arena), drive_mysql)
}

fn drive_mysql(
    mut m: Machine,
    (txs, mut fs, mut arena): (usize, Pmfs, VolatileArena),
    seed: u64,
    _paced: bool,
) -> AppRun {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdb);
    let row_off = |r: u64| r * MYSQL_ROW as u64;

    for (i, tx) in workloads::oltp(MYSQL_ROWS, txs, seed)
        .into_iter()
        .enumerate()
    {
        let tid = Tid((i % THREADS as usize) as u32);
        // Parser, optimizer, buffer pool — the bulk of MySQL's work.
        arena.work(&mut m, tid, 450);
        for r in &tx.point_selects {
            let _ = fs.read(&mut m, tid, "/ibdata", row_off(*r), MYSQL_ROW);
        }
        let (start, len) = tx.range;
        let _ = fs.read(
            &mut m,
            tid,
            "/ibdata",
            row_off(start % MYSQL_ROWS as u64),
            (len as usize * MYSQL_ROW).min(16_384),
        );
        for r in &tx.updates {
            // Per-statement planning/execution time separates the
            // statements' metadata updates beyond the 50us window.
            m.advance_ns(120_000);
            fs.write(
                &mut m,
                tid,
                "/ibdata",
                row_off(*r),
                &[rng.gen::<u8>(); MYSQL_ROW],
            )
            .expect("update");
        }
        // insert+delete pair modeled as a row rewrite + tombstone.
        m.advance_ns(120_000);
        fs.write(
            &mut m,
            tid,
            "/ibdata",
            row_off(tx.insert_delete),
            &[0u8; MYSQL_ROW],
        )
        .expect("insert/delete");
        // Binlog record for the write set.
        m.advance_ns(120_000);
        fs.append(&mut m, tid, "/binlog", &vec![i as u8; 256])
            .expect("binlog");
    }
    MYSQL.collect(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WORKERS;
    use pmtrace::analysis::{self, Analyzer};

    #[test]
    fn nfs_runs_with_large_epochs() {
        let hist = Analyzer::analyze_events(&NFS.run(150, 21, WORKERS).events).size_hist;
        // Figure 4: PMFS apps have a ≥64-line mode from 4 KB blocks.
        assert!(hist.buckets[6] > 0, "no 64-line epochs: {hist}");
        assert!(
            hist.singleton_fraction() < 0.7,
            "PMFS is not singleton-dominated"
        );
    }

    #[test]
    fn nfs_has_cross_dependencies() {
        // Figure 5: NFS shows the most cross-deps (5%) — shared
        // directories, bitmaps, and the journal.
        let deps = Analyzer::analyze_events(&NFS.run(200, 23, WORKERS).events).deps;
        assert!(deps.cross_dep_epochs > 0, "expected some cross-deps");
    }

    #[test]
    fn exim_rate_is_orders_of_magnitude_lower() {
        let e = EXIM.run(20, 25, WORKERS);
        let n = NFS.run(200, 25, WORKERS);
        let eps = |r: &AppRun| {
            analysis::epochs_per_second(analysis::split_epochs(&r.events).len(), r.duration_ns)
        };
        assert!(
            eps(&n) > eps(&e) * 10.0,
            "nfs {} vs exim {} epochs/s",
            eps(&n),
            eps(&e)
        );
    }

    #[test]
    fn exim_delivers_mail_durably() {
        let run = EXIM.run(10, 26, WORKERS);
        assert!(!run.events.is_empty());
        // All spool files must be gone (delivered then unlinked).
        // (Validated inside the run by expect()s; the trace existing
        // and ending cleanly is the signal here.)
    }

    #[test]
    fn mysql_low_self_dependencies() {
        // Figure 5: MySQL has the lowest self-dep share (17.9%) — "few
        // metadata writes" and sub-50µs windows rarely spanned.
        let deps = Analyzer::analyze_events(&MYSQL.run(60, 27, WORKERS).events).deps;
        assert!(
            deps.self_fraction() < 0.45,
            "mysql self-dep {} should be the suite's lowest",
            deps.self_fraction()
        );
    }
}
