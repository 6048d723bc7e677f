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
//! Each [`App`] row carries `crash_run(ops, &Arm) -> CrashRun`: it
//! drives `ops` logical operations against a fresh machine (untraced
//! unless the `Arm` asks for the trace — the campaign measures
//! recoverability, not rates), arms it with `Arm::apply`, calls
//! [`memsim::Machine::note_progress`] after each *fully committed*
//! operation, and returns the captured states plus an oracle closure.
//! The oracle receives a materialized image and the progress value at
//! the capture point, re-opens the application's persistent state from
//! the image (engine recovery + structure `open`), and must verify:
//!
//! * every operation with index `< progress` is fully visible;
//! * the single in-flight operation (index `== progress`) is either
//!   wholly absent, wholly applied, or at a transaction boundary in
//!   between — never torn;
//! * structural invariants of the persistent data structures hold.
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
use crate::pool::fan_out;
use crate::suite::{default_parallelism, SuiteConfig};
use memsim::{
    CrashCounter, CrashPlan, CrashSpec, CrashState, ElidePlan, ElideStats, Machine, PmWriter,
};
use pmem::{Addr, PmImage};
use pmobs::Json;
use pmtrace::{Category, Event, EventKind, Tid, TraceBuffer};

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
    /// The machine trace of the measured interval (arm → harvest) —
    /// empty unless the run was armed with `trace` set. The optimizer
    /// checks this trace to decide which flush/fence ordinals its
    /// elision plan may skip.
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
    /// Record the machine trace from arm to harvest.
    pub(crate) trace: bool,
    /// Arm this elision plan alongside the crash plan.
    pub(crate) elide: Option<&'a ElidePlan>,
}

impl Arm<'_> {
    /// Arm `m` with the fence-counting crash plan, and start the trace
    /// and the elision plan if asked for.
    pub(crate) fn apply(&self, m: &mut Machine) {
        if self.trace {
            let t = m.trace_mut();
            t.clear();
            t.set_enabled(true);
        }
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

    /// [`apply`](Arm::apply) for the scheduler-interleaved apps: once
    /// armed, every worker retires one traced durable store to its own
    /// line of `scratch`, in fixed tid order. Untraced setup leaves
    /// in-flight entries the HB cross-validation cannot see; its
    /// durability proof stays vacuous until each thread appearing in
    /// the trace has fenced once.
    pub(crate) fn apply_to_workers(&self, m: &mut Machine, workers: u32, scratch: Addr) {
        self.apply(m);
        for worker in 0..workers {
            let mut w = PmWriter::new(Tid(worker));
            w.write_u64(m, scratch + u64::from(worker) * 64, 1, Category::AppMeta);
            w.durability_fence(m);
        }
    }
}

/// Finish a crash workload: harvest the machine's event count and
/// captured states into a [`CrashRun`].
pub(crate) fn harvest(mut m: Machine, ops: u64, oracle: Oracle) -> CrashRun {
    let elide = m.elide_stats();
    let trace = std::mem::replace(m.trace_mut(), TraceBuffer::disabled()).into_events();
    CrashRun {
        total_events: m.crash_event_count(),
        ops,
        states: m.take_crash_states(),
        trace,
        elide,
        oracle,
    }
}

/// Campaign shape: how many points per app, how many adversarial seeds
/// per point, and how wide to fan the apps out.
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
}

impl CampaignConfig {
    /// The CI / test configuration: 4 points × (2 corners + 8 seeds)
    /// per app — 440 recovery runs across the suite.
    pub fn quick() -> CampaignConfig {
        CampaignConfig {
            points: 4,
            adversarial_seeds: 8,
            parallelism: default_parallelism(),
        }
    }

    /// The [`quick`](CampaignConfig::quick) campaign, fanned out across
    /// the suite's worker count.
    pub fn from_suite(cfg: &SuiteConfig) -> CampaignConfig {
        CampaignConfig {
            parallelism: cfg.parallelism,
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
fn judge(
    name: &'static str,
    points: Vec<u64>,
    run: &CrashRun,
    cfg: &CampaignConfig,
) -> AppCrashReport {
    debug_assert_eq!(run.states.len(), points.len());
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
        points,
        images,
        failures,
    }
}

/// Probe a row for its fence total under `arm`'s elision plan (and
/// nothing else of `arm`), then re-run it under `arm` with `cfg.points`
/// crash points spread across that range — the one capture every
/// campaign (plain, cross-validated, optimized) judges.
pub(crate) fn capture(app: &App, cfg: &CampaignConfig, arm: &Arm<'_>) -> (Vec<u64>, CrashRun) {
    let probe = app.crash(&Arm {
        elide: arm.elide,
        ..Arm::default()
    });
    let points = spread_points(probe.total_events, cfg.points);
    let run = app.crash(&Arm {
        points: &points,
        ..*arm
    });
    (points, run)
}

/// Run one row: capture its crash points, then judge every point ×
/// spec image.
fn run_row(app: &App, cfg: &CampaignConfig) -> AppCrashReport {
    let _span = pmobs::span!("crash.row", app.name);
    let (points, run) = capture(app, cfg, &Arm::default());
    judge(app.name, points, &run, cfg)
}

/// Run the whole campaign across `cfg.parallelism` workers. Each row is
/// a self-contained seeded machine, so reports are identical whatever
/// the parallelism, and come back in Table 1 order.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<AppCrashReport> {
    fan_out(cfg.parallelism, APPS.len(), |i| run_row(&APPS[i], cfg))
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

/// Per-kind 1-based ordinal of every event in `trace` (0 for events
/// that are neither flushes nor fences).
fn flush_fence_ordinals(trace: &[Event]) -> Vec<u64> {
    let (mut flushes, mut fences) = (0u64, 0u64);
    trace
        .iter()
        .map(|ev| match ev.kind {
            EventKind::Flush { .. } => {
                flushes += 1;
                flushes
            }
            EventKind::Fence | EventKind::DFence => {
                fences += 1;
                fences
            }
            _ => 0,
        })
        .collect()
}

/// Run one row under the optimizer: trace a probe, rewrite its trace,
/// re-run with the flagged flush/fence ordinals machine-elided, and
/// judge the elided run under the full spec lattice.
fn run_optimized_row(app: &App, cfg: &CampaignConfig) -> OptimizedCrashReport {
    let _span = pmobs::span!("crash.optimized_row", app.name);
    // 1. Traced probe: what does the checker flag in this workload?
    let probe = app.crash(&Arm {
        trace: true,
        ..Arm::default()
    });
    let rw = pmcheck::rewrite_events(&probe.trace);
    let ords = flush_fence_ordinals(&probe.trace);
    let flush_ords: Vec<u64> = rw
        .elided
        .iter()
        .filter(|&&i| matches!(probe.trace[i].kind, EventKind::Flush { .. }))
        .map(|&i| ords[i])
        .collect();
    let fence_ords: Vec<u64> = rw
        .elided
        .iter()
        .filter(|&&i| matches!(probe.trace[i].kind, EventKind::Fence | EventKind::DFence))
        .map(|&i| ords[i])
        .collect();
    let plan = ElidePlan::new(flush_ords, fence_ords);

    // 2. Elided probe and capture (the optimized run has fewer fences,
    // so its own total defines the sweepable crash-point range), judged
    // exactly like the plain campaign — every recovery oracle must
    // still pass on the optimized schedule.
    let elided = Arm {
        elide: Some(&plan),
        ..Arm::default()
    };
    let (points, run) = capture(app, cfg, &elided);
    let elide = run.elide.unwrap_or_default();
    OptimizedCrashReport {
        report: judge(app.name, points, &run, cfg),
        baseline_fences: probe.total_events,
        planned_flushes: rw.elided_flushes,
        planned_fences: rw.elided_fences,
        rewrite_rounds: rw.rounds,
        elide,
    }
}

/// Re-run the whole campaign over optimizer-elided schedules — the
/// soundness gate for `whisper-report --optimize`. Reports come back
/// in Table 1 order.
pub fn run_optimized_campaign(cfg: &CampaignConfig) -> Vec<OptimizedCrashReport> {
    fan_out(cfg.parallelism, APPS.len(), |i| {
        run_optimized_row(&APPS[i], cfg)
    })
}

/// Total oracle rejections across the campaign (the `--crash` gate).
pub fn total_failures(reports: &[AppCrashReport]) -> usize {
    reports.iter().map(|r| r.failures.len()).sum()
}

/// The text summary appended to the report under `--crash`.
pub fn summary_table(reports: &[AppCrashReport], cfg: &CampaignConfig) -> String {
    let mut out = format!(
        "Crash-recovery campaign ({} point(s) x [drop-volatile persist-all {} seed(s)])\n\
         app               ops   fences  points  images  failures\n",
        cfg.points, cfg.adversarial_seeds
    );
    for r in reports {
        out.push_str(&format!(
            "{:<14} {:>6} {:>8} {:>7} {:>7} {:>9}\n",
            r.name,
            r.ops,
            r.fence_events,
            r.points.len(),
            r.images,
            r.failures.len()
        ));
        for f in &r.failures {
            out.push_str(&format!(
                "    FAIL at fence {} ({}, progress {}): {}\n",
                f.at, f.spec, f.progress, f.error
            ));
        }
    }
    out.push_str(&format!(
        "total: {} failure(s) across {} image(s), {} app(s)\n",
        total_failures(reports),
        reports.iter().map(|r| r.images).sum::<usize>(),
        reports.len()
    ));
    out
}

/// Serialize the campaign outcome — the `crash` section of the JSON
/// report (and the standalone `--crash-json` document).
pub fn crash_json(reports: &[AppCrashReport], cfg: &CampaignConfig) -> Json {
    let apps: Vec<Json> = reports
        .iter()
        .map(|r| {
            let failures: Vec<Json> = r
                .failures
                .iter()
                .map(|f| {
                    Json::obj()
                        .field("at", f.at)
                        .field("progress", f.progress)
                        .field("spec", f.spec.as_str())
                        .field("error", f.error.as_str())
                })
                .collect();
            Json::obj()
                .field("name", r.name)
                .field("ops", r.ops)
                .field("fence_events", r.fence_events)
                .field(
                    "points",
                    r.points.iter().map(|p| Json::from(*p)).collect::<Vec<_>>(),
                )
                .field("images", r.images as u64)
                .field("failures", failures)
        })
        .collect();
    Json::obj()
        .field("points_per_app", cfg.points as u64)
        .field("adversarial_seeds", cfg.adversarial_seeds)
        .field(
            "total_images",
            reports.iter().map(|r| r.images).sum::<usize>() as u64,
        )
        .field("total_failures", total_failures(reports) as u64)
        .field("apps", apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::Line;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        let (a, b) = (hashmap(24, &arm), hashmap(24, &arm));
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
    fn oracles_reject_corrupted_images() {
        // Guard against vacuous oracles: a zeroed image (bad engine
        // log, bad structure headers) must be rejected.
        let run = crate::apps::redis::crash_run(
            24,
            &Arm {
                points: &[9],
                ..Arm::default()
            },
        );
        let state = &run.states[0];
        let mut img = state.materialize(CrashSpec::PersistAll);
        let lines: Vec<_> = img.lines().map(|(l, _)| l).collect();
        for l in lines {
            img.set_line(l, [0u8; 64]);
        }
        assert!((run.oracle)(&img, state.progress()).is_err());
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
        };
        let opt = run_optimized_row(&crate::apps::micro::CTREE, &cfg);
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
        points: Vec<u64>,
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
            points,
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
        let (points, run) = capture(&crate::apps::echo::APP, &cfg, &Arm::default());
        let (run, calls) = counted(run);
        let distinct: usize = run.states.iter().map(|s| landed_sets(s, &cfg).len()).sum();
        let report = judge("echo", points.clone(), &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), distinct);
        assert!(distinct > run.states.len(), "nothing in flight: {distinct}");
        assert!(distinct < report.images, "no image was shared");

        calls.store(0, Ordering::Relaxed);
        let reference = judge_every_image("echo", points, &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), reference.images);
        assert_eq!(report, reference);
    }

    #[test]
    fn a_rejected_image_fails_every_spec_that_lands_it() {
        // An oracle that rejects one of echo's landed lines: the reused
        // verdicts must reproduce the per-image failures entry for
        // entry, in order.
        let cfg = CampaignConfig::quick();
        let (points, mut run) = capture(&crate::apps::echo::APP, &cfg, &Arm::default());
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
        let report = judge("echo", points.clone(), &run, &cfg);
        let reference = judge_every_image("echo", points, &run, &cfg);
        assert!(!report.failures.is_empty());
        assert!(report.failures.len() < report.images);
        assert_eq!(report, reference);
    }

    #[test]
    fn specs_share_a_verdict_only_when_they_land_the_same_lines() {
        // Three lines in flight at one point: adversarial seeds land
        // different sets of the same size, which must not share a
        // verdict. The oracle rejects every image where line 0 landed.
        let mut m = Machine::new(memsim::MachineConfig::tiny_for_tests());
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

        let report = judge("three-lines", vec![3], &run, &cfg);
        assert_eq!(calls.load(Ordering::Relaxed), sets.len());
        assert!(!report.failures.is_empty());
        assert!(report.failures.len() < report.images);
        assert_eq!(
            report,
            judge_every_image("three-lines", vec![3], &run, &cfg)
        );
    }

    #[test]
    fn every_row_runs_its_oracle_once_per_distinct_image() {
        let cfg = CampaignConfig::quick();
        for app in &APPS {
            let (points, run) = capture(app, &cfg, &Arm::default());
            let (run, calls) = counted(run);
            let report = judge(app.name, points, &run, &cfg);
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
    fn flush_fence_ordinals_count_per_kind() {
        let mut buf = TraceBuffer::new();
        let t = Tid(0);
        buf.flush(t, 0x1000, 1);
        buf.fence(t, 2);
        buf.flush(t, 0x1040, 3);
        buf.pm_store(t, 0x1080, 8, false, Category::UserData, 4);
        buf.dfence(t, 5);
        let events = buf.into_events();
        assert_eq!(flush_fence_ordinals(&events), vec![1, 1, 2, 0, 2]);
    }
}
