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
use crate::crashtest::{self, Workload};
use crate::report::PaperRow;
use crate::workloads::{self, FileserverOp};
use memsim::{Machine, MachineConfig};
use pmem::AddrRange;
use pmfs::{Pmfs, PmfsConfig};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use std::collections::BTreeMap;

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
    crash_run: crashtest::run::<NfsCrash>,
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
    crash_run: crashtest::run::<EximCrash>,
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
    crash_run: crashtest::run::<MysqlCrash>,
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

/// Mount the PMFS volume at `region` on a rebooted machine (journal
/// recovery included).
fn mount(m: &mut Machine, region: AddrRange) -> Result<Pmfs, String> {
    Pmfs::mount(m, Tid(0), region)
        .map(|(fs, _)| fs)
        .map_err(|e| format!("mount failed: {e:?}"))
}

/// One NFS crash-campaign operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NfsOp {
    /// Replace `/export/f{file}` wholesale: unlink, create, write
    /// `size` bytes of `fill`.
    CreateWrite { file: u64, fill: u8, size: usize },
    /// Append `len` bytes of `fill` to `/export/biglog`.
    Append { fill: u8, len: usize },
}

/// What NFS's recovery reads back: the export's files.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NfsModel {
    /// Each present `/export/f{file}`'s bytes.
    files: BTreeMap<u64, Vec<u8>>,
    /// `/export/biglog`'s bytes.
    biglog: Vec<u8>,
}

const N_FILES: u64 = 6;

fn nfs_path(file: u64) -> String {
    format!("/export/f{file:04}")
}

/// NFS-over-PMFS's crash workload (see [`crate::crashtest`]): whole-file
/// replacements rotate over a small set, with appends growing a shared
/// log file across block boundaries. PMFS journals metadata but not user
/// data, so the journal's undo makes each create/write/unlink
/// all-or-nothing at the size level; recovery mounts the image and reads
/// every file back.
pub(crate) struct NfsCrash {
    fs: Pmfs,
    /// The volume to re-mount.
    region: AddrRange,
}

impl Workload for NfsCrash {
    type Op = NfsOp;
    type Model = NfsModel;

    fn build(m: &mut Machine, _ops: usize, _workers: u32) -> NfsCrash {
        let (mut fs, region) = build_fs(m);
        fs.mkdir(m, Tid(0), "/export").expect("mkdir");
        fs.create(m, Tid(0), "/export/biglog").expect("biglog");
        NfsCrash { fs, region }
    }

    fn plan(ops: usize, _workers: u32) -> Vec<(Tid, NfsOp)> {
        let mut rng = SmallRng::seed_from_u64(0x9f5c);
        (0..ops)
            .map(|i| {
                let fill = (i % 251 + 1) as u8;
                let op = if i % 4 == 3 {
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
                };
                (Tid((i % THREADS as usize) as u32), op)
            })
            .collect()
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, op: &NfsOp) {
        let fs = &mut self.fs;
        match *op {
            NfsOp::CreateWrite { file, fill, size } => {
                let p = nfs_path(file);
                let _ = fs.unlink(m, tid, &p);
                fs.create(m, tid, &p).expect("create");
                fs.write(m, tid, &p, 0, &vec![fill; size]).expect("write");
            }
            NfsOp::Append { fill, len } => {
                fs.append(m, tid, "/export/biglog", &vec![fill; len])
                    .expect("append");
            }
        }
    }

    fn model(model: &mut NfsModel, _seq: u64, op: &NfsOp) {
        match *op {
            NfsOp::CreateWrite { file, fill, size } => {
                model.files.insert(file, vec![fill; size]);
            }
            NfsOp::Append { fill, len } => model.biglog.extend(std::iter::repeat_n(fill, len)),
        }
    }

    fn recover(&self, m: &mut Machine) -> Result<NfsModel, String> {
        let mut fs = mount(m, self.region)?;
        let files = (0..N_FILES)
            .filter_map(|f| Some((f, fs.read_file(m, Tid(0), &nfs_path(f)).ok()?)))
            .collect();
        let biglog = fs
            .read_file(m, Tid(0), "/export/biglog")
            .map_err(|_| "biglog missing".to_string())?;
        Ok(NfsModel { files, biglog })
    }

    /// A replacement's unlink → create → write steps: the file absent,
    /// then empty, before it is whole.
    fn accept(view: &NfsModel, before: &NfsModel, _: &NfsModel, op: Option<&NfsOp>) -> bool {
        let Some(&NfsOp::CreateWrite { file, .. }) = op else {
            return false;
        };
        let mut step = before.clone();
        step.files.remove(&file);
        if *view == step {
            return true;
        }
        step.files.insert(file, Vec::new());
        *view == step
    }
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

/// What Exim's recovery reads back.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EximModel {
    /// Each present spool file's bytes, by message.
    spools: BTreeMap<usize, Vec<u8>>,
    /// Each mailbox's bytes.
    mboxes: [Vec<u8>; MBOXES as usize],
    /// `/mainlog`'s bytes.
    mainlog: Vec<u8>,
}

const MBOXES: u64 = 4;
const BODY: usize = 600;

fn spool_path(msg: usize) -> String {
    format!("/spool/m{msg:04}")
}

fn mbox_of(msg: usize) -> u64 {
    (msg as u64 * 7 + 3) % MBOXES
}

fn body_fill(msg: usize) -> u8 {
    (msg % 251 + 1) as u8
}

fn log_line(msg: usize) -> String {
    format!("delivered m{msg} to u{:03}\n", mbox_of(msg))
}

/// Exim-over-PMFS's crash workload (see [`crate::crashtest`]): each
/// delivery is spool-create → spool-write → mbox-append → log-append →
/// spool-unlink, against pre-created mailboxes. Recovery mounts the
/// image and reads back every spool file, mailbox and the main log.
pub(crate) struct EximCrash {
    fs: Pmfs,
    /// The volume to re-mount.
    region: AddrRange,
    /// Messages planned: the spool files recovery reads.
    msgs: usize,
}

impl Workload for EximCrash {
    /// The message to deliver.
    type Op = usize;
    type Model = EximModel;

    fn build(m: &mut Machine, msgs: usize, _workers: u32) -> EximCrash {
        let (mut fs, region) = build_fs(m);
        fs.mkdir(m, Tid(0), "/spool").expect("mkdir");
        fs.mkdir(m, Tid(0), "/mbox").expect("mkdir");
        fs.create(m, Tid(0), "/mainlog").expect("log");
        for u in 0..MBOXES {
            fs.create(m, Tid(0), &format!("/mbox/u{u:03}"))
                .expect("mbox");
        }
        EximCrash { fs, region, msgs }
    }

    fn plan(msgs: usize, _workers: u32) -> Vec<(Tid, usize)> {
        (0..msgs)
            .map(|i| (Tid((i % THREADS as usize) as u32), i))
            .collect()
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, &i: &usize) {
        let fs = &mut self.fs;
        let spool = spool_path(i);
        fs.create(m, tid, &spool).expect("spool");
        fs.write(m, tid, &spool, 0, &[body_fill(i); BODY])
            .expect("spool write");
        let body = fs.read_file(m, tid, &spool).expect("read spool");
        fs.append(m, tid, &format!("/mbox/u{:03}", mbox_of(i)), &body)
            .expect("deliver");
        fs.append(m, tid, "/mainlog", log_line(i).as_bytes())
            .expect("log");
        fs.unlink(m, tid, &spool).expect("unspool");
    }

    fn model(model: &mut EximModel, _seq: u64, &i: &usize) {
        model.mboxes[mbox_of(i) as usize].extend([body_fill(i); BODY]);
        model.mainlog.extend(log_line(i).as_bytes());
    }

    fn recover(&self, m: &mut Machine) -> Result<EximModel, String> {
        let mut fs = mount(m, self.region)?;
        let spools = (0..self.msgs)
            .filter_map(|i| Some((i, fs.read_file(m, Tid(0), &spool_path(i)).ok()?)))
            .collect();
        let mut mboxes = EximModel::default().mboxes;
        for (u, mbox) in mboxes.iter_mut().enumerate() {
            *mbox = fs
                .read_file(m, Tid(0), &format!("/mbox/u{u:03}"))
                .map_err(|e| format!("mbox u{u:03} unreadable: {e:?}"))?;
        }
        let mainlog = fs
            .read_file(m, Tid(0), "/mainlog")
            .map_err(|e| format!("mainlog unreadable: {e:?}"))?;
        Ok(EximModel {
            spools,
            mboxes,
            mainlog,
        })
    }

    /// A delivery lands in stages: the mailbox and the main log each at
    /// the prefix or one delivery on, the in-flight spool file absent,
    /// empty or whole, every committed one gone, and later messages'
    /// spool files unread.
    fn accept(view: &EximModel, before: &EximModel, after: &EximModel, op: Option<&usize>) -> bool {
        let spool_ok = |(&i, body): (&usize, &Vec<u8>)| match op {
            Some(&p) if i == p => body.is_empty() || *body == [body_fill(p); BODY],
            Some(&p) => i > p,
            None => false,
        };
        view.spools.iter().all(spool_ok)
            && (view.mboxes == before.mboxes || view.mboxes == after.mboxes)
            && (view.mainlog == before.mainlog || view.mainlog == after.mainlog)
    }
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

const N_ROWS: u64 = 64;
const ROW: usize = 100;
const REC: usize = 64;
const PRELOAD_FILL: u8 = 0xA5;

/// What MySQL's recovery reads back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MysqlModel {
    /// `/ibdata`'s bytes: `N_ROWS` rows of `ROW` bytes.
    table: Vec<u8>,
    /// `/binlog`'s bytes.
    binlog: Vec<u8>,
}

impl Default for MysqlModel {
    /// The preloaded table and an empty binlog.
    fn default() -> MysqlModel {
        MysqlModel {
            table: vec![PRELOAD_FILL; N_ROWS as usize * ROW],
            binlog: Vec::new(),
        }
    }
}

/// MySQL-over-PMFS's crash workload (see [`crate::crashtest`]): rows
/// live packed in `/ibdata` (preloaded by the build); each operation
/// overwrites one row in place and appends a fixed-size binlog record.
/// Recovery mounts the image and reads back the table and the binlog.
pub(crate) struct MysqlCrash {
    fs: Pmfs,
    /// The volume to re-mount.
    region: AddrRange,
}

impl Workload for MysqlCrash {
    /// Overwrite a row with a fill byte.
    type Op = (u64, u8);
    type Model = MysqlModel;

    fn build(m: &mut Machine, _ops: usize, _workers: u32) -> MysqlCrash {
        let (mut fs, region) = build_fs(m);
        fs.create(m, Tid(0), "/ibdata").expect("table");
        fs.create(m, Tid(0), "/binlog").expect("binlog");
        let total = N_ROWS as usize * ROW;
        for off in (0..total).step_by(4096) {
            let n = 4096.min(total - off);
            fs.write(m, Tid(0), "/ibdata", off as u64, &vec![PRELOAD_FILL; n])
                .expect("load");
        }
        MysqlCrash { fs, region }
    }

    fn plan(ops: usize, _workers: u32) -> Vec<(Tid, (u64, u8))> {
        let mut rng = SmallRng::seed_from_u64(0xdb_c4);
        (0..ops)
            .map(|i| {
                let op = (rng.gen_range(0..N_ROWS), (i % 251 + 1) as u8);
                (Tid((i % THREADS as usize) as u32), op)
            })
            .collect()
    }

    fn apply(&mut self, m: &mut Machine, tid: Tid, _seq: u64, &(row, fill): &(u64, u8)) {
        let fs = &mut self.fs;
        fs.write(m, tid, "/ibdata", row * ROW as u64, &[fill; ROW])
            .expect("update");
        fs.append(m, tid, "/binlog", &[fill; REC]).expect("binlog");
    }

    fn model(model: &mut MysqlModel, _seq: u64, &(row, fill): &(u64, u8)) {
        let at = row as usize * ROW;
        model.table[at..at + ROW].fill(fill);
        model.binlog.extend([fill; REC]);
    }

    fn recover(&self, m: &mut Machine) -> Result<MysqlModel, String> {
        let mut fs = mount(m, self.region)?;
        let mut read = |path: &str| {
            fs.read_file(m, Tid(0), path)
                .map_err(|e| format!("{} unreadable: {e:?}", &path[1..]))
        };
        Ok(MysqlModel {
            table: read("/ibdata")?,
            binlog: read("/binlog")?,
        })
    }

    /// PMFS journals metadata, not data: the in-flight row overwrite may
    /// tear, every byte of it old or new, while its binlog record is
    /// whole or absent (the file size is journaled metadata).
    fn accept(
        view: &MysqlModel,
        before: &MysqlModel,
        after: &MysqlModel,
        op: Option<&(u64, u8)>,
    ) -> bool {
        let Some(&(row, fill)) = op else {
            return false;
        };
        let torn = row as usize * ROW..(row as usize + 1) * ROW;
        let byte_ok = |(i, (got, old)): (usize, (&u8, &u8))| {
            got == old || (torn.contains(&i) && *got == fill)
        };
        (view.binlog == before.binlog || view.binlog == after.binlog)
            && view.table.len() == before.table.len()
            && view
                .table
                .iter()
                .zip(&before.table)
                .enumerate()
                .all(byte_ok)
    }
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
