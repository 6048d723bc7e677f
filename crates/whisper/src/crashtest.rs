//! Crash-injection campaign (`whisper-report --crash`).
//!
//! WHISPER's defining requirement is that every benchmark is
//! *crash-recoverable*: "each app includes the code necessary to
//! recover after a crash." This module turns that sentence into a
//! mechanical gate. For every Table 1 row it runs a dedicated crash
//! workload with a [`memsim::CrashPlan`] armed, capturing the machine's
//! full in-flight state at N crash points spread across the run; each
//! captured point is then materialized under the whole crash-spec
//! lattice — [`CrashSpec::DropVolatile`], [`CrashSpec::PersistAll`],
//! and M adversarial persist-subsets — and the application's *recovery
//! oracle* judges every resulting PM image (each distinct image once;
//! see below).
//!
//! # The oracle contract
//!
//! Each [`App`] row states its crash workload as a `Workload`: its
//! build, its seeded plan of operations (each on a planned [`Tid`]; the
//! scheduler-interleaved redis, memcached and vacation spread them over
//! `workers` logical clients), how to apply one operation, how to
//! replay one into a volatile *model* of the app's recoverable state,
//! and how to recover the app from an image and read that state back
//! into the model type. `run` owns everything else, once for every
//! row: the build on a fresh untraced machine, arming (with the
//! interleaved rows' per-worker fence prologue), the op loop that calls
//! [`memsim::Machine::note_progress`] after each *fully committed*
//! operation, and the oracle. The oracle receives a materialized image
//! and the progress value `p` at the capture point, reboots a machine
//! from the image, lets the app recover and read its state back
//! (recovery and structure invariants that fail are a rejection), and
//! replays the plan's first `p` operations into the model. It accepts
//! the recovered view when it equals
//!
//! * the committed-prefix model (every operation with index `< p`
//!   fully visible, nothing of operation `p`), or
//! * the prefix plus the in-flight operation `p`, applied in full;
//!
//! or when the row's `Workload::accept` rule names it as one of the
//! intermediate states that row's recovery legitimately exposes while
//! operation `p` is in flight. Every other row's in-flight operation is
//! never torn. The rules, each asserted by its row's `accept`:
//!
//! * **nfs** shows a whole-file replacement's unlink → create → write
//!   steps: the file absent or empty in between;
//! * **exim** delivers in stages (spool → mailbox → main log →
//!   unspool): the mailbox and the log each at the prefix or one
//!   delivery on, the in-flight spool file absent, empty or whole, and
//!   files of later messages unread;
//! * **mysql** tears the in-flight row byte by byte, every byte old or
//!   new — PMFS journals metadata, not data — while its binlog record is
//!   whole or absent (its size is journaled metadata);
//! * **memcached** shows its table phase before its LRU phase: each key
//!   at the prefix or the in-flight value, and the LRU length at the
//!   committed distinct-key count or one more;
//! * **vacation** rolls its journal tail forward separately from the
//!   reservation transaction: the tables, lists and counters at the
//!   prefix or prefix + in-flight, and the journal likewise, each on
//!   its own.
//!
//! An oracle is a deterministic function of `(image, progress)`: it
//! reboots a fresh machine from the image and holds no state across
//! calls. The campaign relies on this — specs whose
//! [`CrashState::landed`] sets are equal produce the same image, so
//! each distinct image at a point is rebooted and judged once and the
//! verdict is reported under every spec that produced it. At
//! fence-granular points most apps have nothing in flight and all ten
//! specs of a point share one image.
//!
//! # One campaign, three views
//!
//! Each row runs its crash workload as a **probe**, which counts the
//! run's fences and records its machine trace, and then as a
//! **capture** at `points` crash points spread across that fence range.
//! Arming crash points does not change what a run does, so the probe's
//! trace is the capture's. Three gates read the pair: `--crash` judges
//! the capture's images, `--crossval` ([`crate::crossval`]) checks them
//! against what the probe's trace proves durable, and `--optimize`
//! ([`crate::optimize`]) rewrites the probe's trace into an elision
//! plan, then probes and captures the row once more under it. The
//! driver runs the campaign once for all three; [`run_campaign`],
//! [`crate::crossval::run_crossval`] and
//! [`crate::optimize::optimize_results`] are the same campaign with one
//! view asked for.
//!
//! # Crash-point granularity
//!
//! Points are counted in **fence events** ([`CrashCounter::Fences`]),
//! not individual stores, because of the torn-record window stated on
//! [`pmtx::LogRing::append`] — the one log format under the PMFS
//! journal and the undo/redo logs. At fence boundaries the window is
//! closed by construction — every log record is complete before its
//! fence retires — while caches, pending flushes, and WCBs still hold
//! plenty of in-flight data for the crash specs to decide over, and
//! uncommitted transactions still exercise every rollback/replay path.
//! See DESIGN.md § Crash testing.

use crate::apps::{App, APPS};
use crate::crossval::{self, AppCrossval};
use crate::driver::Gate::{self, Crash, Crossval, Optimize};
use crate::pool::fan_out;
use crate::section::{arr, cell, count, plain, rows, Col, Section};
use crate::suite::{default_parallelism, SuiteConfig, DEFAULT_WORKER_THREADS};
use memsim::{
    CrashCounter, CrashPlan, CrashSpec, CrashState, ElidePlan, ElideStats, Machine, MachineConfig,
    PmWriter,
};
use pmem::{Addr, PmImage};
use pmobs::Json;
use pmtrace::{Category, Event, EventKind, Tid};
use std::fmt::Debug;

/// A recovery oracle: given a materialized crash image and the
/// `note_progress` value at the capture point, re-open the app's state
/// and verify the contract above. `Err` carries a human-readable
/// description of the violated invariant. Must be a pure function of
/// its arguments (see the module docs).
pub type Oracle = Box<dyn Fn(&PmImage, u64) -> Result<(), String> + Send + Sync>;

/// One app's crash workload outcome: the states captured at the swept
/// points plus the oracle that judges their images.
pub struct CrashRun {
    /// Total fence events the run produced (the sweepable range).
    pub total_events: u64,
    /// Logical operations the workload committed.
    pub ops: u64,
    /// One captured state per requested crash point.
    pub states: Vec<CrashState>,
    /// The machine trace of the measured interval (arm → harvest). The
    /// campaign reads a probe's: crossval proves durability from it,
    /// and the optimizer rewrites it into an elision plan.
    pub trace: Vec<Event>,
    /// What an armed elision plan did during the run (`None` in plain
    /// campaign runs).
    pub elide: Option<ElideStats>,
    /// The recovery oracle for this run's images.
    pub oracle: Oracle,
}

/// How a crash workload arms its machine, handed to every `crash_run`.
/// The default is the plain probe: count fences, capture nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Arm<'a> {
    /// Fence ordinals to capture the machine's in-flight state at;
    /// empty probes for the run's fence total instead.
    pub(crate) points: &'a [u64],
    /// Arm this elision plan alongside the crash plan.
    pub(crate) elide: Option<&'a ElidePlan>,
}

impl Arm<'_> {
    /// Arm `m` with the fence-counting crash plan and the elision plan
    /// if asked for, and record the trace from here on.
    fn apply(&self, m: &mut Machine) {
        let t = m.trace_mut();
        t.clear();
        t.set_enabled(true);
        if let Some(plan) = self.elide {
            // Armed here, not earlier: elision ordinals are counted
            // from the same instant the trace (and the checker's view)
            // starts, so finding ordinals and machine ordinals line up.
            m.set_elide_plan(plan.clone());
        }
        m.set_crash_plan(if self.points.is_empty() {
            CrashPlan::probe(CrashCounter::Fences)
        } else {
            CrashPlan::at_points(CrashCounter::Fences, self.points.to_vec())
        });
    }
}

/// One Table 1 row's crash workload, stated as data (see the module
/// docs): what it builds, what it runs, and what its recovery must show.
/// [`run`] drives and judges every row the same way.
pub(crate) trait Workload: Send + Sync + 'static {
    /// One planned operation.
    type Op: Send + Sync + 'static;
    /// The app's recoverable state: what recovery reads back from an
    /// image, and what replaying the plan's prefix builds. `Default` is
    /// the state [`Workload::build`] leaves.
    type Model: Clone + Default + PartialEq + Debug;

    /// The machine the row runs on, and reboots into, at `workers`
    /// logical clients.
    fn config(_workers: u32) -> MachineConfig {
        MachineConfig::asplos17()
    }

    /// Build the app's persistent state on a fresh machine (recording
    /// off) for an `ops`-operation plan at `workers` logical clients.
    fn build(m: &mut Machine, ops: usize, workers: u32) -> Self;

    /// The seeded plan: each operation and the thread it runs on.
    fn plan(ops: usize, workers: u32) -> Vec<(Tid, Self::Op)>;

    /// For the scheduler-interleaved rows (redis, memcached, vacation):
    /// one line per worker for the fence prologue [`run`] retires once
    /// armed. Untraced setup leaves in-flight entries the HB
    /// cross-validation cannot see; its durability proof stays vacuous
    /// until each thread appearing in the trace has fenced once.
    fn scratch(&self) -> Option<Addr> {
        None
    }

    /// Apply operation `seq` (1-based: the progress once it commits) on
    /// `tid`.
    fn apply(&mut self, m: &mut Machine, tid: Tid, seq: u64, op: &Self::Op);

    /// Replay operation `seq` into the model.
    fn model(model: &mut Self::Model, seq: u64, op: &Self::Op);

    /// Recover the app on a machine rebooted from an image — engine
    /// recovery, structure `open` and invariant checks — and read its
    /// state back. `self` is the app as its run left it: the handles
    /// and region addresses to re-open.
    fn recover(&self, m: &mut Machine) -> Result<Self::Model, String>;

    /// Whether `view` is an intermediate state this row's recovery may
    /// legitimately expose while `op` is in flight (`None` once every
    /// operation committed): `before` is the committed-prefix model,
    /// `after` the prefix plus `op` (`before` when there is none). Only
    /// consulted when `view` is neither; the default accepts nothing
    /// else.
    fn accept(
        _view: &Self::Model,
        _before: &Self::Model,
        _after: &Self::Model,
        _op: Option<&Self::Op>,
    ) -> bool {
        false
    }
}

/// Run `W`'s crash workload for `ops` operations at `workers` logical
/// clients, armed as `arm` says — every row's `crash_run`.
pub(crate) fn run<W: Workload>(ops: usize, workers: u32, arm: &Arm<'_>) -> CrashRun {
    let mut m = Machine::new(W::config(workers));
    m.trace_mut().set_enabled(false);
    let mut app = W::build(&mut m, ops, workers);
    let plan = W::plan(ops, workers);
    arm.apply(&mut m);
    if let Some(scratch) = app.scratch() {
        for worker in 0..workers {
            let line = scratch + u64::from(worker) * 64;
            let mut w = PmWriter::new(Tid(worker));
            w.write_u64(&mut m, line, 1, Category::AppMeta);
            w.durability_fence(&mut m);
        }
    }
    for (seq, (tid, op)) in (1..).zip(&plan) {
        app.apply(&mut m, *tid, seq, op);
        m.note_progress(seq);
    }
    let total = plan.len() as u64;
    let oracle = Box::new(move |img: &PmImage, progress: u64| {
        let mut m = Machine::from_image(W::config(workers), img);
        let view = app.recover(&mut m)?;
        let mut before = W::Model::default();
        for (seq, (_, op)) in (1..).zip(&plan[..progress as usize]) {
            W::model(&mut before, seq, op);
        }
        let op = plan.get(progress as usize).map(|(_, op)| op);
        let mut after = before.clone();
        if let Some(op) = op {
            W::model(&mut after, progress + 1, op);
        }
        if view == before || view == after || W::accept(&view, &before, &after, op) {
            return Ok(());
        }
        Err(format!(
            "recovered state is neither the {progress} committed op(s) nor them plus the \
             in-flight op; {}",
            first_difference(&view, &before)
        ))
    });
    harvest(m, total, oracle)
}

/// Where `got` first departs from `want`, shown as a short window of
/// each one's `Debug` rendering.
fn first_difference(got: &impl Debug, want: &impl Debug) -> String {
    let got: Vec<char> = format!("{got:?}").chars().collect();
    let want: Vec<char> = format!("{want:?}").chars().collect();
    let at = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
    let window = |s: &[char]| -> String {
        s[at.saturating_sub(24)..s.len().min(at + 40)]
            .iter()
            .collect()
    };
    format!(
        "recovered …{}… where the prefix has …{}…",
        window(&got),
        window(&want)
    )
}

/// Finish a crash workload: harvest the machine's event count and
/// captured states into a [`CrashRun`].
fn harvest(mut m: Machine, ops: u64, oracle: Oracle) -> CrashRun {
    CrashRun {
        total_events: m.crash_event_count(),
        ops,
        states: m.take_crash_states(),
        trace: std::mem::take(m.trace_mut()).into_events(),
        elide: m.elide_stats(),
        oracle,
    }
}

/// Campaign shape: how many points per app, how many adversarial seeds
/// per point, how wide to fan the apps out, and how many logical
/// clients the interleaved apps run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Crash points swept per application, spread evenly across the
    /// run's fence events.
    pub points: usize,
    /// Adversarial persist-subset seeds tried at every point, on top of
    /// the `DropVolatile`/`PersistAll` corners.
    pub adversarial_seeds: u64,
    /// Worker threads the eleven rows fan out across (1 = serial).
    pub parallelism: usize,
    /// Logical clients the seeded scheduler interleaves inside the
    /// redis, memcached and vacation crash workloads (`--threads`).
    pub worker_threads: u32,
}

impl CampaignConfig {
    /// The CI / test configuration: 4 points × (2 corners + 8 seeds)
    /// per app — 440 recovery runs across the suite.
    pub fn quick() -> CampaignConfig {
        CampaignConfig {
            points: 4,
            adversarial_seeds: 8,
            parallelism: default_parallelism(),
            worker_threads: DEFAULT_WORKER_THREADS,
        }
    }

    /// The [`quick`](CampaignConfig::quick) campaign, fanned out across
    /// the suite's worker count, at the suite's worker threads.
    pub fn from_suite(cfg: &SuiteConfig) -> CampaignConfig {
        CampaignConfig {
            parallelism: cfg.parallelism,
            worker_threads: cfg.worker_threads,
            ..CampaignConfig::quick()
        }
    }
}

/// One oracle rejection: which point, which spec, what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFailure {
    /// Fence ordinal of the crash point.
    pub at: u64,
    /// Committed-operation count at the point.
    pub progress: u64,
    /// The crash spec that produced the failing image.
    pub spec: String,
    /// The oracle's description of the violated invariant.
    pub error: String,
}

/// One Table 1 row's campaign outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCrashReport {
    /// Table 1 name.
    pub name: &'static str,
    /// Logical operations the crash workload committed.
    pub ops: u64,
    /// Fence events in the run (the range points were drawn from).
    pub fence_events: u64,
    /// The swept crash points (1-based fence ordinals).
    pub points: Vec<u64>,
    /// Images judged (`points × specs`, however many are distinct).
    pub images: usize,
    /// Every oracle rejection (empty on a clean row).
    pub failures: Vec<CrashFailure>,
}

/// Spread `k` crash points evenly across `1..=total` (sorted, deduped;
/// fewer than `k` only when `total` is smaller than `k`).
pub(crate) fn spread_points(total: u64, k: usize) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let mut points: Vec<u64> = (1..=k as u64)
        .map(|i| (total * i / (k as u64 + 1)).clamp(1, total))
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

/// The spec lattice every point is materialized under.
pub(crate) fn specs(adversarial_seeds: u64) -> Vec<CrashSpec> {
    let mut out = vec![CrashSpec::DropVolatile, CrashSpec::PersistAll];
    out.extend((1..=adversarial_seeds).map(|seed| CrashSpec::Adversarial { seed }));
    out
}

pub(crate) fn spec_name(spec: CrashSpec) -> String {
    match spec {
        CrashSpec::DropVolatile => "drop-volatile".into(),
        CrashSpec::PersistAll => "persist-all".into(),
        CrashSpec::Adversarial { seed } => format!("adversarial:{seed}"),
    }
}

/// Judge a captured run: every point × spec image, each distinct image
/// rebooted and run through the oracle once. Specs that land the same
/// lines produce the same image, and the oracle is a pure function of
/// `(image, progress)`, so a group's verdict is every member's.
fn judge(name: &'static str, run: &CrashRun, cfg: &CampaignConfig) -> AppCrashReport {
    let specs = specs(cfg.adversarial_seeds);
    let mut images = 0usize;
    let mut distinct = 0usize;
    let mut failures = Vec::new();
    for state in &run.states {
        let mut verdicts: Vec<(Vec<_>, Result<(), String>)> = Vec::new();
        for &spec in &specs {
            let landed = state.landed(spec);
            let i = match verdicts.iter().position(|(seen, _)| *seen == landed) {
                Some(i) => i,
                None => {
                    let verdict = (run.oracle)(&state.image_with(&landed), state.progress());
                    verdicts.push((landed, verdict));
                    verdicts.len() - 1
                }
            };
            images += 1;
            if let Err(error) = &verdicts[i].1 {
                failures.push(CrashFailure {
                    at: state.at(),
                    progress: state.progress(),
                    spec: spec_name(spec),
                    error: error.clone(),
                });
            }
        }
        distinct += verdicts.len();
    }
    pmobs::count!("crash.images", images as u64);
    pmobs::count!("crash.distinct_images", distinct as u64);
    pmobs::count!("crash.failures", failures.len() as u64);
    AppCrashReport {
        name,
        ops: run.ops,
        fence_events: run.total_events,
        points: run.states.iter().map(CrashState::at).collect(),
        images,
        failures,
    }
}

/// Re-run a row under `elide` with `cfg.points` crash points spread
/// across `probe`'s fence range, `probe` being the row's probe under
/// the same plan: the capture a campaign view judges, one state per
/// point.
pub(crate) fn capture(
    app: &App,
    cfg: &CampaignConfig,
    probe: &CrashRun,
    elide: Option<&ElidePlan>,
) -> CrashRun {
    let points = spread_points(probe.total_events, cfg.points);
    let arm = Arm {
        points: &points,
        elide,
    };
    app.crash(cfg.worker_threads, &arm)
}

/// The campaign's views, one per gate: each in Table 1 order, and
/// empty unless its gate was asked for.
#[derive(Default)]
pub(crate) struct Campaign {
    /// `--crash`: each row's capture, judged.
    pub(crate) crash: Vec<AppCrashReport>,
    /// `--crossval`: each row's capture against its probe's HB proof.
    pub(crate) crossval: Vec<AppCrossval>,
    /// `--optimize`: each row judged again under its elision plan.
    pub(crate) optimized: Vec<OptimizedCrashReport>,
}

/// Run one row for the gates `asked` for: its traced probe, one
/// capture if crash or crossval reads it, and the optimizer's elided
/// probe and capture.
fn run_row(app: &App, cfg: &CampaignConfig, asked: impl Fn(Gate) -> bool) -> Campaign {
    let _span = pmobs::span!("campaign.row", app.name);
    let probe = app.crash(cfg.worker_threads, &Arm::default());
    let mut row = Campaign::default();
    if asked(Crash) || asked(Crossval) {
        let run = capture(app, cfg, &probe, None);
        if asked(Crash) {
            row.crash.push(judge(app.name, &run, cfg));
        }
        if asked(Crossval) {
            row.crossval
                .push(crossval::check_row(app.name, &probe.trace, &run, cfg));
        }
    }
    if asked(Optimize) {
        row.optimized.push(optimized_row(app, cfg, &probe));
    }
    row
}

/// Run the campaign for the gates `asked` for (any of crash, crossval
/// and optimize) over every row across `cfg.parallelism` workers. Each
/// row is a self-contained seeded machine, so the views are identical
/// whatever the parallelism.
pub(crate) fn campaign(cfg: &CampaignConfig, asked: impl Fn(Gate) -> bool + Sync) -> Campaign {
    let run = |i| run_row(&APPS[i], cfg, &asked);
    let mut out = Campaign::default();
    for row in fan_out(cfg.parallelism, APPS.len(), run) {
        out.crash.extend(row.crash);
        out.crossval.extend(row.crossval);
        out.optimized.extend(row.optimized);
    }
    out
}

/// The crash view alone: every row's captured images judged, in
/// Table 1 order.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<AppCrashReport> {
    campaign(cfg, |gate| gate == Crash).crash
}

/// One row's outcome under the *optimized* schedule: the regular
/// point × spec judgement over a run whose checker-flagged flushes and
/// fences were machine-elided, plus the elision accounting.
#[derive(Debug, Clone)]
pub struct OptimizedCrashReport {
    /// The judged campaign row (points drawn from the *elided* run's
    /// fence range).
    pub report: AppCrashReport,
    /// Fence events in the unoptimized probe, for comparison with
    /// `report.fence_events`.
    pub baseline_fences: u64,
    /// Flush sites the rewrite pass planned to elide.
    pub planned_flushes: usize,
    /// Fence sites the rewrite pass planned to elide.
    pub planned_fences: usize,
    /// Check → elide rounds the rewrite took to converge.
    pub rewrite_rounds: usize,
    /// What the machine actually skipped / refused (from the capture
    /// run; the probe and capture runs execute identically).
    pub elide: ElideStats,
}

/// The per-kind 1-based ordinals — `[flushes, fences]` — of the events
/// of `trace` at the ascending indices `elided`: the sites an
/// [`ElidePlan`] names.
fn elided_ordinals(trace: &[Event], elided: &[usize]) -> [Vec<u64>; 2] {
    let (mut counts, mut ordinals) = ([0, 0], [Vec::new(), Vec::new()]);
    for (i, ev) in trace.iter().enumerate() {
        let kind = match ev.kind {
            EventKind::Flush { .. } => 0,
            EventKind::Fence | EventKind::DFence => 1,
            _ => continue,
        };
        counts[kind] += 1;
        if elided.binary_search(&i).is_ok() {
            ordinals[kind].push(counts[kind]);
        }
    }
    ordinals
}

/// The optimizer's view of a row: rewrite its `probe`'s trace, probe
/// and capture it again with the flagged flush/fence ordinals
/// machine-elided, and judge the elided run under the full spec
/// lattice.
fn optimized_row(app: &App, cfg: &CampaignConfig, probe: &CrashRun) -> OptimizedCrashReport {
    let rw = pmcheck::rewrite_events(&probe.trace);
    let [flushes, fences] = elided_ordinals(&probe.trace, &rw.elided);
    let plan = ElidePlan::new(flushes, fences);
    // The optimized run has fewer fences, so its own probe defines the
    // sweepable crash-point range; it is judged exactly like the plain
    // campaign — every recovery oracle must still pass on the
    // optimized schedule.
    let elided = Arm {
        elide: Some(&plan),
        ..Arm::default()
    };
    let elided_probe = app.crash(cfg.worker_threads, &elided);
    let run = capture(app, cfg, &elided_probe, Some(&plan));
    OptimizedCrashReport {
        report: judge(app.name, &run, cfg),
        baseline_fences: probe.total_events,
        planned_flushes: rw.elided_flushes,
        planned_fences: rw.elided_fences,
        rewrite_rounds: rw.rounds,
        elide: run.elide.unwrap_or_default(),
    }
}

/// Total oracle rejections across the campaign (the `--crash` gate).
pub fn total_failures(reports: &[AppCrashReport]) -> usize {
    reports.iter().map(|r| r.failures.len()).sum()
}

#[rustfmt::skip]
const FAILURE: [Col<CrashFailure>; 4] = [
    Col::json("at", |f| f.at.into()),
    Col::json("progress", |f| f.progress.into()),
    Col::json("spec", |f| f.spec.as_str().into()),
    Col::json("error", |f| f.error.as_str().into()),
];

#[rustfmt::skip]
const COLS: [Col<AppCrashReport>; 6] = [
    Col("name", "app", "<14", |r| r.name.into(), plain),
    Col("ops", "ops", " >6", |r| r.ops.into(), plain),
    Col("fence_events", "fences", " >8", |r| r.fence_events.into(), plain),
    Col("points", "points", " >7", |r| arr(&r.points), count),
    Col("images", "images", " >7", |r| r.images.into(), plain),
    Col("failures", "failures", " >9", |r| rows(&r.failures, &FAILURE).into(), count),
];

/// The `crash` section of the report and the table `--crash` prints,
/// one `FAIL` line under its row per oracle rejection.
pub fn section(reports: &[AppCrashReport], cfg: &CampaignConfig) -> Section {
    let images: usize = reports.iter().map(|r| r.images).sum();
    let failures = total_failures(reports);
    let title = format!(
        "Crash-recovery campaign ({} point(s) x [drop-volatile persist-all {} seed(s)])",
        cfg.points, cfg.adversarial_seeds
    );
    Section::new("crash", title)
        .table(reports, &COLS)
        .after(|row| {
            let failures = cell(row, "failures").as_arr().unwrap_or_default();
            let text = |f, key| plain(cell(f, key));
            let fail = |f| {
                let (at, spec) = (text(f, "at"), text(f, "spec"));
                let (progress, error) = (text(f, "progress"), text(f, "error"));
                format!("    FAIL at fence {at} ({spec}, progress {progress}): {error}")
            };
            failures.iter().map(fail).collect()
        })
        .footer(format!(
            "total: {failures} failure(s) across {images} image(s), {} app(s)",
            reports.len()
        ))
        .field("points_per_app", cfg.points)
        .field("adversarial_seeds", cfg.adversarial_seeds)
        .field("total_images", images)
        .field("total_failures", failures)
        .rows_in("apps")
}

/// The `--crash` table ([`section`]).
pub fn summary_table(reports: &[AppCrashReport], cfg: &CampaignConfig) -> String {
    section(reports, cfg).text()
}

/// The `crash` section of the JSON report and the standalone
/// `--crash-json` document ([`section`]).
pub fn crash_json(reports: &[AppCrashReport], cfg: &CampaignConfig) -> Json {
    section(reports, cfg).json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CRASH_RUNS, WORKERS};
    use pmem::Line;
    use pmtrace::TraceBuffer;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A row's plain probe and the capture the campaign judges.
    fn plain_capture(app: &App, cfg: &CampaignConfig) -> CrashRun {
        let probe = app.crash(cfg.worker_threads, &Arm::default());
        capture(app, cfg, &probe, None)
    }

    #[test]
    fn spread_points_covers_the_range() {
        assert_eq!(spread_points(1000, 4), vec![200, 400, 600, 800]);
        assert_eq!(spread_points(3, 4), vec![1, 2]);
        assert!(spread_points(0, 4).is_empty());
        assert!(spread_points(10_000, 4).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn specs_cover_corners_and_seeds() {
        let s = specs(8);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], CrashSpec::DropVolatile);
        assert_eq!(s[1], CrashSpec::PersistAll);
        assert_eq!(s[9], CrashSpec::Adversarial { seed: 8 });
    }

    #[test]
    fn adversarial_images_are_bit_identical_across_runs() {
        // Two independent executions of the same seeded crash workload
        // (as happens when rows land on different campaign workers)
        // must capture identical states and materialize identical
        // adversarial images.
        let arm = Arm {
            points: &[7, 19],
            ..Arm::default()
        };
        let hashmap = crate::apps::micro::HASHMAP.crash_run;
        let (a, b) = (hashmap(24, WORKERS, &arm), hashmap(24, WORKERS, &arm));
        assert_eq!(a.states.len(), 2);
        for (sa, sb) in a.states.iter().zip(&b.states) {
            assert_eq!(sa.digest(), sb.digest());
            for seed in 1..=4 {
                let spec = CrashSpec::Adversarial { seed };
                assert_eq!(sa.materialize(spec), sb.materialize(spec));
            }
        }
    }

    #[test]
    fn memcached_and_vacation_run_and_recover_at_64_workers() {
        // The documented `--threads` maximum: every worker's heap arena
        // must fit the PM range, for the run and the crash row alike.
        let cfg = CampaignConfig {
            points: 2,
            adversarial_seeds: 1,
            parallelism: 1,
            worker_threads: 64,
        };
        for app in [&crate::apps::memcached::APP, &crate::apps::vacation::APP] {
            let run = app.run(128, 1, 64);
            assert_eq!(run.threads, 64, "{}", app.name);
            let report = judge(app.name, &plain_capture(app, &cfg), &cfg);
            assert_eq!(report.points.len(), 2, "{}", app.name);
            assert!(report.failures.is_empty(), "{:?}", report.failures);
        }
    }

    #[test]
    fn oracles_reject_corrupted_images() {
        // Guard against vacuous oracles: for every row, a zeroed image
        // (bad engine log, bad structure headers) must be rejected.
        let cfg = CampaignConfig {
            points: 1,
            ..CampaignConfig::quick()
        };
        for app in &APPS {
            let run = plain_capture(app, &cfg);
            let state = &run.states[0];
            let mut img = state.materialize(CrashSpec::PersistAll);
            let lines: Vec<_> = img.lines().map(|(l, _)| l).collect();
            for l in lines {
                img.set_line(l, [0u8; 64]);
            }
            assert!(
                (run.oracle)(&img, state.progress()).is_err(),
                "{}: zeroed image accepted",
                app.name
            );
        }
    }

    #[test]
    fn optimized_row_elides_and_still_recovers() {
        // ctree drives the NVML-style undo engine whose commit path
        // double-fences, so the rewrite must find work here — and the
        // elided schedule must still pass every recovery oracle.
        let cfg = CampaignConfig {
            points: 2,
            adversarial_seeds: 2,
            parallelism: 1,
            worker_threads: WORKERS,
        };
        let ctree = &crate::apps::micro::CTREE;
        let probe = ctree.crash(cfg.worker_threads, &Arm::default());
        let opt = optimized_row(ctree, &cfg, &probe);
        assert!(opt.planned_fences > 0, "no fences planned: {opt:?}");
        assert!(opt.elide.elided_total() > 0, "nothing elided: {opt:?}");
        assert!(opt.report.failures.is_empty(), "{:?}", opt.report.failures);
        // Elided fences shrink the sweepable crash range.
        assert!(opt.report.fence_events < opt.baseline_fences);
    }

    /// Wrap `run`'s oracle in a call counter.
    fn counted(mut run: CrashRun) -> (CrashRun, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let inner = std::mem::replace(&mut run.oracle, Box::new(|_, _| Ok(())));
        run.oracle = Box::new(move |img, progress| {
            seen.fetch_add(1, Ordering::Relaxed);
            inner(img, progress)
        });
        (run, calls)
    }

    /// The judge without reuse: materialize every point × spec image
    /// and run the oracle on each.
    fn judge_every_image(
        name: &'static str,
        run: &CrashRun,
        cfg: &CampaignConfig,
    ) -> AppCrashReport {
        let mut images = 0;
        let mut failures = Vec::new();
        for state in &run.states {
            for spec in specs(cfg.adversarial_seeds) {
                images += 1;
                if let Err(error) = (run.oracle)(&state.materialize(spec), state.progress()) {
                    failures.push(CrashFailure {
                        at: state.at(),
                        progress: state.progress(),
                        spec: spec_name(spec),
                        error,
                    });
                }
            }
        }
        AppCrashReport {
            name,
            ops: run.ops,
            fence_events: run.total_events,
            points: run.states.iter().map(CrashState::at).collect(),
            images,
            failures,
        }
    }

    /// Distinct images per point, compared whole, summed over points.
    fn distinct_images(run: &CrashRun, cfg: &CampaignConfig) -> usize {
        run.states
            .iter()
            .map(|state| {
                let mut seen: Vec<PmImage> = Vec::new();
                for spec in specs(cfg.adversarial_seeds) {
                    let img = state.materialize(spec);
                    if !seen.contains(&img) {
                        seen.push(img);
                    }
                }
                seen.len()
            })
            .sum()
    }

    /// The distinct landed sets of `state` across the spec lattice.
    fn landed_sets(state: &CrashState, cfg: &CampaignConfig) -> Vec<Vec<(Line, [u8; 64])>> {
        let mut sets: Vec<_> = specs(cfg.adversarial_seeds)
            .into_iter()
            .map(|spec| state.landed(spec))
            .collect();
        sets.sort();
        sets.dedup();
        sets
    }

    #[test]
    fn echo_is_judged_once_per_distinct_landed_set() {
        // echo is the one row with lines in flight at its fence-granular
        // points, so its specs do not all share one image.
        let cfg = CampaignConfig::quick();
        let (run, calls) = counted(plain_capture(&crate::apps::echo::APP, &cfg));
        let distinct: usize = run.states.iter().map(|s| landed_sets(s, &cfg).len()).sum();
        let report = judge("echo", &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), distinct);
        assert!(distinct > run.states.len(), "nothing in flight: {distinct}");
        assert!(distinct < report.images, "no image was shared");

        calls.store(0, Ordering::Relaxed);
        let reference = judge_every_image("echo", &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), reference.images);
        assert_eq!(report, reference);
    }

    #[test]
    fn a_rejected_image_fails_every_spec_that_lands_it() {
        // An oracle that rejects one of echo's landed lines: the reused
        // verdicts must reproduce the per-image failures entry for
        // entry, in order.
        let cfg = CampaignConfig::quick();
        let mut run = plain_capture(&crate::apps::echo::APP, &cfg);
        let (line, data) = run
            .states
            .iter()
            .find_map(|state| state.landed(CrashSpec::PersistAll).first().copied())
            .expect("echo has a line in flight");
        run.oracle = Box::new(move |img, progress| {
            if img.line(line) == Some(&data) {
                Err(format!("line {} landed at progress {progress}", line.0))
            } else {
                Ok(())
            }
        });
        let report = judge("echo", &run, &cfg);
        let reference = judge_every_image("echo", &run, &cfg);
        assert!(!report.failures.is_empty());
        assert!(report.failures.len() < report.images);
        assert_eq!(report, reference);
    }

    #[test]
    fn specs_share_a_verdict_only_when_they_land_the_same_lines() {
        // Three lines in flight at one point: adversarial seeds land
        // different sets of the same size, which must not share a
        // verdict. The oracle rejects every image where line 0 landed.
        let mut m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        m.set_crash_plan(CrashPlan::at_points(CrashCounter::Stores, vec![3]));
        for i in 0..3u8 {
            m.store(
                Tid(0),
                base + u64::from(i) * 64,
                &[i + 1; 8],
                Category::UserData,
            );
        }
        let first = Line::containing(base);
        let oracle: Oracle = Box::new(move |img, _| match img.line(first) {
            Some(_) => Err("line 0 landed".into()),
            None => Ok(()),
        });
        let (run, calls) = counted(harvest(m, 3, oracle));
        let cfg = CampaignConfig::quick();
        let sets = landed_sets(&run.states[0], &cfg);
        let mut sizes: Vec<usize> = sets.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert!(sizes.len() < sets.len(), "no two landed sets of one size");

        let report = judge("three-lines", &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), sets.len());
        assert!(!report.failures.is_empty());
        assert!(report.failures.len() < report.images);
        assert_eq!(report, judge_every_image("three-lines", &run, &cfg));
    }

    #[test]
    fn every_row_runs_its_oracle_once_per_distinct_image() {
        let cfg = CampaignConfig::quick();
        for app in &APPS {
            let (run, calls) = counted(plain_capture(app, &cfg));
            let report = judge(app.name, &run, &cfg);
            assert!(
                report.failures.is_empty(),
                "{}: {:?}",
                app.name,
                report.failures
            );
            assert_eq!(
                calls.load(Ordering::Relaxed),
                distinct_images(&run, &cfg),
                "{}",
                app.name
            );
        }
    }

    #[test]
    fn every_rows_probe_records_its_captures_trace() {
        // The one invariant the shared campaign rests on: crossval
        // proves durability, and the optimizer plans elisions, from the
        // probe's trace, while both read the capture's states. Arming
        // crash points must not change what the run does.
        for workers in [1, WORKERS] {
            let cfg = CampaignConfig {
                worker_threads: workers,
                ..CampaignConfig::quick()
            };
            for app in &APPS {
                let probe = app.crash(workers, &Arm::default());
                assert!(!probe.trace.is_empty(), "{}: nothing traced", app.name);
                let points = spread_points(probe.total_events, cfg.points);
                let run = capture(app, &cfg, &probe, None);
                let captured: Vec<u64> = run.states.iter().map(CrashState::at).collect();
                assert_eq!(captured, points, "{}", app.name);
                assert_eq!(run.total_events, probe.total_events, "{}", app.name);
                assert!(
                    run.trace == probe.trace,
                    "{} at {workers} worker(s): capture trace ({} events) != probe trace ({})",
                    app.name,
                    run.trace.len(),
                    probe.trace.len()
                );
            }
        }
    }

    /// How often each row's crash workload ran during `f`.
    fn runs_per_row(f: impl FnOnce()) -> Vec<usize> {
        CRASH_RUNS.take();
        f();
        let runs = CRASH_RUNS.take();
        APPS.iter()
            .map(|app| runs.iter().filter(|&&name| name == app.name).count())
            .collect()
    }

    #[test]
    fn the_campaign_runs_each_row_once_for_all_its_views() {
        // One traced probe per row, one capture if crash or crossval
        // judges it, and the optimizer's elided probe and capture. Run
        // one by one, the three gates took 2, 2 and 3 runs per row.
        let cfg = CampaignConfig {
            points: 1,
            adversarial_seeds: 0,
            parallelism: 1,
            worker_threads: WORKERS,
        };
        let pinned: [(&[Gate], usize); 7] = [
            (&[Crash], 2),
            (&[Crossval], 2),
            (&[Optimize], 3),
            (&[Crash, Crossval], 2),
            (&[Crash, Optimize], 4),
            (&[Crossval, Optimize], 4),
            (&[Crash, Crossval, Optimize], 4),
        ];
        let separately = |gate: &Gate| if *gate == Optimize { 3 } else { 2 };
        for (gates, runs) in pinned {
            assert!(runs <= gates.iter().map(separately).sum(), "{gates:?}");
            let got = runs_per_row(|| {
                campaign(&cfg, |gate| gates.contains(&gate));
            });
            assert_eq!(got, [runs; 11], "{gates:?}");
        }
        // The one-view entry points are the same campaign.
        let got = runs_per_row(|| {
            run_campaign(&cfg);
        });
        assert_eq!(got, [2; 11], "run_campaign");
        let got = runs_per_row(|| {
            crossval::run_crossval(&cfg);
        });
        assert_eq!(got, [2; 11], "run_crossval");
        let got = runs_per_row(|| {
            crate::optimize::optimize_results(&[], &cfg, 1);
        });
        assert_eq!(got, [3; 11], "optimize_results");
    }

    #[test]
    fn flush_fence_ordinals_count_per_kind() {
        let mut buf = TraceBuffer::new();
        let t = Tid(0);
        buf.flush(t, 0x1000, 1);
        buf.fence(t, 2);
        buf.flush(t, 0x1040, 3);
        buf.pm_store(t, 0x1080, 8, false, Category::UserData, 4);
        buf.dfence(t, 5);
        let events = buf.into_events();
        assert_eq!(
            elided_ordinals(&events, &[0, 1, 2, 4]),
            [vec![1, 2], vec![1, 2]]
        );
        assert_eq!(elided_ordinals(&events, &[2, 4]), [vec![2], vec![2]]);
        assert_eq!(elided_ordinals(&events, &[1]), [vec![], vec![1]]);
        assert_eq!(elided_ordinals(&events, &[]), [vec![], vec![]]);
    }
}
