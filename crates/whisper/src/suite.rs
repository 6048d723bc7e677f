//! Suite driver: run applications, analyze traces, bundle results.
//!
//! Table 1 is a *throughput* table, so the driver itself is built for
//! throughput: applications run in parallel across a scoped thread
//! pool (each run is seeded and fully self-contained, so results are
//! bit-identical to the serial order), and each trace is analyzed in a
//! single streaming pass ([`pmtrace::analysis::Analyzer`]) instead of
//! one walk per statistic.

use crate::apps::{self, App, AppRun, APPS};
use crate::pool::fan_out;
use hops::{figure10_bars, HopsConfig, PersistModel, TimingConfig};
use pmtrace::analysis::{
    self, AmplificationReport, Analyzer, DepStats, EpochSizeHistogram, TxStats,
};
use pmtrace::Event;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The names of the [`APPS`] rows, or of those with an unpaced run, in
/// Table 1 order; `N` must be their count.
const fn names<const N: usize>(unpaced_only: bool) -> [&'static str; N] {
    let mut names = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < APPS.len() {
        if !unpaced_only || APPS[i].unpaced {
            names[n] = APPS[i].name;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N);
    names
}

/// The names of the eleven Table 1 rows, in [`APPS`] order.
pub const APP_NAMES: [&str; APPS.len()] = names(false);

/// The six applications the paper runs under gem5 for Figures 6 and 10:
/// the [`APPS`] rows with an unpaced run.
pub const SIM_APPS: [&str; 6] = names(true);

/// Suite-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Multiplier on each workload's base operation count. The paper's
    /// full counts (e.g. 8 M transactions) are scaled so the whole
    /// suite runs in seconds; every reported metric is a rate or a
    /// distribution, insensitive to duration.
    pub scale: f64,
    /// Master seed for workloads and interleavings.
    pub seed: u64,
    /// Worker threads [`run_suite`] fans applications out across.
    /// `1` (or `0`) runs serially on the caller's thread. Parallelism
    /// never changes results: every application run is seeded and
    /// self-contained, and results come back in Table 1 order.
    pub parallelism: usize,
    /// Logical worker threads *inside* the scheduler-interleaved
    /// applications (redis, memcached, vacation): the seeded
    /// [`memsim::Scheduler`] interleaves this many clients over one
    /// shared machine. Unlike `parallelism` (a host knob), this is a
    /// workload parameter — it changes the trace, so it is part of the
    /// deterministic config the JSON report echoes back.
    pub worker_threads: u32,
}

/// Default scheduler-worker count for the interleaved applications —
/// the paper's Table 1 runs them with 4 client threads.
pub const DEFAULT_WORKER_THREADS: u32 = 4;

/// Most scheduler workers a run may ask for: [`memsim::Scheduler`]
/// supports 1..=64 (the machine's dirty-index mask is 64 bits wide).
pub const MAX_WORKER_THREADS: u32 = 64;

impl SuiteConfig {
    /// Fast configuration for unit tests and smoke runs.
    pub fn quick() -> SuiteConfig {
        SuiteConfig {
            scale: 0.05,
            ..SuiteConfig::standard()
        }
    }

    /// The default, statistically stable configuration: full scale,
    /// one suite worker per available core.
    pub fn standard() -> SuiteConfig {
        SuiteConfig {
            scale: 1.0,
            seed: 42,
            parallelism: default_parallelism(),
            worker_threads: DEFAULT_WORKER_THREADS,
        }
    }

    /// Reject configurations under which any Table 1 row would scale to
    /// zero effective operations, or to more than `u32::MAX` (a finite
    /// scale is required too: `inf` would saturate every count and never
    /// finish). A zero-op run would silently report rates for work that
    /// never happened, so this is a hard config error (the CLI maps it to
    /// exit code 2) rather than a warning.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale.is_finite() {
            return Err(format!("--scale {} is not a finite number", self.scale));
        }
        for App { name, base_ops, .. } in &APPS {
            let ops = *base_ops as f64 * self.scale;
            if ops as usize == 0 {
                return Err(format!(
                    "--scale {} yields 0 effective ops for {name} (base {base_ops}); \
                     use at least {} so every app runs ≥ 1 op",
                    self.scale,
                    1.0 / MIN_OP_BASE as f64
                ));
            }
            if ops > f64::from(u32::MAX) {
                return Err(format!(
                    "--scale {} yields more than {} ops for {name} (base {base_ops})",
                    self.scale,
                    u32::MAX
                ));
            }
        }
        if !(1..=MAX_WORKER_THREADS).contains(&self.worker_threads) {
            return Err(format!(
                "--threads {} out of range; the scheduler supports 1..={MAX_WORKER_THREADS} workers",
                self.worker_threads
            ));
        }
        Ok(())
    }

    /// The operation count [`run_app`] actually runs for `name` at this
    /// scale — the row's [`App::base_ops`] scaled and clamped to the
    /// [`MIN_OPS`] floor. `None` for names outside [`APP_NAMES`].
    pub fn effective_ops(&self, name: &str) -> Option<usize> {
        apps::by_name(name)
            .ok()
            .map(|app| scaled_ops(self.scale, app.base_ops))
    }
}

/// Floor under every scaled op count: a workload below this never
/// exercises its steady state, so tiny `--scale` values clamp here (and
/// warn once — the reported rates then describe the floored count, not
/// the requested one). Scales that truncate to **zero** ops are a hard
/// error instead — see [`SuiteConfig::validate`].
pub const MIN_OPS: usize = 20;

/// The smallest [`App::base_ops`] in the table; `1 / MIN_OP_BASE` is
/// the smallest scale at which every app still runs at least one op.
pub const MIN_OP_BASE: usize = {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < APPS.len() {
        if APPS[i].base_ops < min {
            min = APPS[i].base_ops;
        }
        i += 1;
    }
    min
};

/// `base` operations at `scale`, clamped to the [`MIN_OPS`] floor (with
/// a one-time warning).
///
/// # Panics
///
/// Panics if the count truncates to zero; [`SuiteConfig::validate`]
/// rejects such a scale up front.
pub(crate) fn scaled_ops(scale: f64, base: usize) -> usize {
    let requested = (base as f64 * scale) as usize;
    assert!(
        requested > 0,
        "scale {scale} yields 0 effective ops for base {base}; \
         the smallest usable scale is {} (1 op of the smallest base)",
        1.0 / MIN_OP_BASE as f64
    );
    if requested < MIN_OPS && !OPS_FLOOR_WARNED.swap(true, Ordering::Relaxed) {
        OPS_FLOOR_WARN_COUNT.fetch_add(1, Ordering::Relaxed);
        pmobs::warn!(
            "scale {scale} floors op counts at {MIN_OPS} (requested {requested} \
             of base {base}); reported rates use the floored count"
        );
    }
    requested.max(MIN_OPS)
}

/// One-shot latch for the op-count floor warning.
static OPS_FLOOR_WARNED: AtomicBool = AtomicBool::new(false);

/// How many times the floor warning has actually been emitted — the
/// swap on [`OPS_FLOOR_WARNED`] is the only way in, so this can never
/// pass 1 in a process, however many workers race into
/// [`scaled_ops`]. Exposed for the once-under-parallelism test.
static OPS_FLOOR_WARN_COUNT: AtomicUsize = AtomicUsize::new(0);

/// How many times the op-count floor warning has been emitted (0 or 1).
pub fn ops_floor_warnings() -> u64 {
    OPS_FLOOR_WARN_COUNT.load(Ordering::Relaxed) as u64
}

/// One suite worker per available core (1 if the count is unknown).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig::standard()
    }
}

/// Everything computed from one application's trace — the inputs to
/// every table and figure.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Total epochs in the trace.
    pub epoch_count: usize,
    /// Table 1's rightmost column.
    pub epochs_per_sec: f64,
    /// Figure 3's statistic.
    pub tx_stats: TxStats,
    /// Figure 4.
    pub size_hist: EpochSizeHistogram,
    /// Figure 5.
    pub deps: DepStats,
    /// Section 5.2 write amplification.
    pub amplification: AmplificationReport,
    /// Consequence 10's NT-store byte fraction.
    pub nt_fraction: Option<f64>,
    /// Section 5.1: singletons under 10 bytes.
    pub small_singleton_fraction: Option<f64>,
    /// Figure 6: PM share of all memory accesses.
    pub pm_fraction: f64,
    /// Figure 10: normalized runtime per persistence model.
    pub fig10: Vec<(PersistModel, f64)>,
    /// Consequence 1: ordering fences in the trace.
    pub fences: u64,
    /// Consequence 1: durability fences in the trace.
    pub dfences: u64,
}

/// One suite row: the raw run plus its analysis.
#[derive(Debug)]
pub struct AppResult {
    /// The application run.
    pub run: AppRun,
    /// Its analysis.
    pub analysis: Analysis,
}

impl AppResult {
    /// The Table 1 row this result is a run of; `None` for an archived
    /// trace, which is named after its file.
    pub(crate) fn app(&self) -> Option<&'static App> {
        apps::by_name(&self.run.name).ok()
    }

    /// Is this one of the gem5-subset apps Figures 6 and 10 show?
    pub(crate) fn is_sim(&self) -> bool {
        self.app().is_some_and(|app| app.unpaced)
    }
}

/// Analyze a finished run in a single streaming pass over its trace.
///
/// The Figure 10 timing replay is **not** performed here: it is by far
/// the most expensive analysis step (five full-trace replays), and the
/// right trace to replay depends on the application — the six gem5
/// subset apps replay a second *unpaced* run, everything else replays
/// the paced trace. [`run_app`] attaches it via [`fig10_for`];
/// `Analysis::fig10` stays empty until someone does.
pub fn analyze(run: &AppRun) -> Analysis {
    let report = Analyzer::analyze_events(&run.events);
    Analysis {
        epoch_count: report.epoch_count,
        epochs_per_sec: analysis::epochs_per_second(report.epoch_count, run.duration_ns),
        tx_stats: report.tx_stats,
        size_hist: report.size_hist,
        deps: report.deps,
        amplification: report.amplification,
        nt_fraction: report.nt_fraction,
        small_singleton_fraction: report.small_singleton_fraction,
        pm_fraction: run.stats.pm_fraction(),
        fig10: Vec::new(),
        fences: report.fences[0],
        dfences: report.fences[1],
    }
}

/// A result for an archived trace (`whisper-report --from-trace`),
/// named `name`. An archive holds events alone: the row has no memory
/// counters and no Figure 10 replay, so Figures 6 and 10 leave it out
/// even when `name` is a gem5-subset app's.
pub(crate) fn archived(name: &str, events: Vec<Event>) -> AppResult {
    let run = AppRun {
        name: name.to_string(),
        workload: "archived trace".into(),
        duration_ns: events.last().map_or(0, |e| e.at_ns),
        events,
        stats: memsim::MemStats::default(),
        threads: 4,
    };
    let analysis = analyze(&run);
    AppResult { run, analysis }
}

/// One Figure 10 replay of a trace under all five persistence models,
/// with the suite's default timing. Each trace should pass through
/// here exactly once — the replay dominates analysis cost.
pub fn fig10_for(events: &[Event]) -> Vec<(PersistModel, f64)> {
    figure10_bars(events, &TimingConfig::default(), &HopsConfig::default())
}

/// Run one application by Table 1 name.
///
/// For the six gem5-subset applications, Figure 10 is replayed from a
/// second, *unpaced* run — mirroring the paper's methodology, where
/// Table 1 rates come from real-hardware runs with full client stacks
/// while Figures 6 and 10 come from trimmed full-system simulations.
/// Every trace gets exactly one Figure 10 replay: the paced trace for
/// regular apps, the unpaced trace for sim apps (the paced trace is
/// never replayed just to be discarded).
///
/// # Panics
///
/// Panics on an unknown name; the valid names are [`APP_NAMES`].
pub fn run_app(name: &str, cfg: &SuiteConfig) -> AppResult {
    let app = apps::named(name);
    // Host wall-clock for the whole run+replay of this app; the
    // simulated duration goes to the deterministic `sim.*` namespace.
    let _span = pmobs::span!("suite.run", name);
    // Trace tracks created under this app (machines, replays) get
    // deterministic `<name>/<kind>/<seq>` names, whichever worker
    // thread runs it.
    let _ctx = pmobs::trace::context(name);
    let ops = scaled_ops(cfg.scale, app.base_ops);
    let run = app.run(ops, cfg.seed, cfg.worker_threads);
    let mut analysis = analyze(&run);
    analysis.fig10 = if app.unpaced {
        fig10_for(&app.run_unpaced(ops / 2, cfg.seed).events)
    } else {
        fig10_for(&run.events)
    };
    pmobs::count!("suite.apps_run");
    if pmobs::enabled() {
        pmobs::record_sim_ns(&format!("app_duration/{name}"), run.duration_ns);
    }
    AppResult { run, analysis }
}

/// Run one application by Table 1 name with an explicit op count, seed
/// and scheduler-worker count, without analysis: [`App::run`] by name.
/// Only the scheduler-interleaved applications (redis, memcached,
/// vacation) respond to `workers`; the rest model their Table 1 thread
/// counts internally and ignore it.
///
/// # Panics
///
/// Panics on an unknown name; the valid names are [`APP_NAMES`].
pub fn run_named_threads(name: &str, ops: usize, seed: u64, workers: u32) -> AppRun {
    apps::named(name).run(ops, seed, workers)
}

/// Run the whole suite in Table 1 order, fanned out across
/// `cfg.parallelism` scoped worker threads (serially when it is 1).
pub fn run_suite(cfg: &SuiteConfig) -> Vec<AppResult> {
    run_apps(&APP_NAMES, cfg)
}

/// Run a chosen set of applications, in the given order.
///
/// Applications fan out across `cfg.parallelism` pool workers, so a
/// slow app (echo, nstore) does not serialize the rest behind it;
/// results come back in input order. Each [`run_app`] call builds its
/// own machine, trace, and RNG from `cfg.seed`, so the result is
/// identical — event-for-event — whatever the parallelism.
pub fn run_apps(names: &[&str], cfg: &SuiteConfig) -> Vec<AppResult> {
    // Queue wait = time from suite dispatch until a worker claims the
    // app, recorded as `suite.queue_wait_ns/<app>`; host wall-clock, so
    // only sampled when recording is on.
    let dispatched = pmobs::enabled().then(std::time::Instant::now);
    fan_out(cfg.parallelism, names.len(), |i| {
        if let Some(t0) = dispatched {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            pmobs::global()
                .histogram(
                    &format!("suite.queue_wait_ns/{}", names[i]),
                    pmobs::Unit::Nanos,
                )
                .record(ns);
        }
        run_app(names[i], cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(scale: f64, seed: u64) -> SuiteConfig {
        SuiteConfig {
            scale,
            seed,
            parallelism: 1,
            worker_threads: DEFAULT_WORKER_THREADS,
        }
    }

    #[test]
    fn run_app_dispatches_every_name() {
        let cfg = test_cfg(0.008, 1);
        for name in APP_NAMES {
            let r = run_app(name, &cfg);
            assert_eq!(r.run.name, name, "name round-trips");
            assert!(r.analysis.epoch_count > 0, "{name}: no epochs recorded");
            assert!(r.analysis.epochs_per_sec > 0.0, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown app \"nope\"")]
    fn unknown_app_panics() {
        run_app("nope", &SuiteConfig::quick());
    }

    #[test]
    fn effective_ops_matches_bases_and_floors() {
        let cfg = test_cfg(1.0, 1);
        assert_eq!(cfg.effective_ops("echo"), Some(20_000));
        assert_eq!(cfg.effective_ops("nope"), None);
        // The smallest valid scale: every app runs ≥ 1 op, and the
        // small-base apps floor up to MIN_OPS.
        let tiny = test_cfg(1.0 / MIN_OP_BASE as f64, 1);
        tiny.validate().expect("smallest valid scale validates");
        for name in ["exim", "mysql", "nstore-tpcc", "nfs"] {
            assert_eq!(tiny.effective_ops(name), Some(MIN_OPS), "{name}");
        }
    }

    #[test]
    fn zero_effective_ops_is_a_hard_config_error() {
        // Below 1/MIN_OP_BASE some app truncates to 0 ops; that must be
        // rejected up front, not silently floored into fake rates.
        let bad = test_cfg(0.000_01, 1);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("0 effective ops"), "unhelpful error: {err}");
        assert!(err.contains("echo"), "names the offending app: {err}");
        assert!(test_cfg(0.05, 1).validate().is_ok());
    }

    #[test]
    fn non_finite_and_oversized_scales_are_config_errors() {
        // `inf` and `1e30` used to saturate every op count to
        // `usize::MAX` and run forever.
        for scale in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e30] {
            assert!(test_cfg(scale, 1).validate().is_err(), "scale {scale}");
        }
        // The bound is the largest row's count reaching `u32::MAX`.
        let largest = APPS.iter().map(|app| app.base_ops).max().unwrap() as f64;
        let edge = f64::from(u32::MAX) / largest;
        assert!(test_cfg(edge * 0.999, 1).validate().is_ok());
        let err = test_cfg(edge * 1.001, 1).validate().unwrap_err();
        assert!(err.contains("4294967295"), "names the bound: {err}");
    }

    #[test]
    #[should_panic(expected = "0 effective ops")]
    fn zero_effective_ops_panics_if_run_anyway() {
        test_cfg(0.000_01, 1).effective_ops("echo");
    }

    #[test]
    fn analysis_fig10_has_five_bars() {
        let r = run_app("hashmap", &test_cfg(0.01, 2));
        assert_eq!(r.analysis.fig10.len(), 5);
        let base = r.analysis.fig10[0];
        assert_eq!(base.0, PersistModel::X86Nvm);
        assert!((base.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig10_replayed_exactly_once_per_run_app() {
        // The Figure 10 replay is the expensive step; the old driver
        // replayed the paced trace, threw the result away, and replayed
        // the unpaced trace for every sim app. The counter is
        // per-thread, so parallel sibling tests cannot perturb it.
        let cfg = test_cfg(0.008, 1);

        let before = hops::fig10_invocations();
        run_app("hashmap", &cfg); // gem5-subset app: unpaced replay only
        assert_eq!(hops::fig10_invocations() - before, 1);

        let before = hops::fig10_invocations();
        run_app("memcached", &cfg); // regular app: paced replay only
        assert_eq!(hops::fig10_invocations() - before, 1);
    }

    #[test]
    fn analyze_leaves_fig10_to_the_caller() {
        let r = run_named_threads("hashmap", 50, 3, DEFAULT_WORKER_THREADS);
        let a = analyze(&r);
        assert!(a.fig10.is_empty(), "analyze() must not pay for a replay");
        assert!(a.epoch_count > 0);
    }

    #[test]
    fn parallel_suite_matches_serial() {
        let serial = SuiteConfig {
            scale: 0.004,
            seed: 11,
            parallelism: 1,
            worker_threads: DEFAULT_WORKER_THREADS,
        };
        let parallel = SuiteConfig {
            parallelism: 4,
            ..serial
        };
        let a = run_apps(&["hashmap", "ctree", "nfs", "exim", "redis"], &serial);
        let b = run_apps(&["hashmap", "ctree", "nfs", "exim", "redis"], &parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.run.name, y.run.name, "Table 1 order preserved");
            assert_eq!(x.run.events, y.run.events, "{}: traces differ", x.run.name);
            assert_eq!(x.run.stats, y.run.stats);
            assert_eq!(x.run.duration_ns, y.run.duration_ns);
            assert_eq!(x.analysis.fig10, y.analysis.fig10);
        }
    }

    #[test]
    fn worker_threads_are_a_workload_knob_not_a_host_knob() {
        // `parallelism` is a host knob: fanning the interleaved apps
        // out across 8 suite workers must reproduce the serial traces
        // bit-identically. `worker_threads` is a workload knob: it
        // feeds the in-app scheduler, so changing it changes the trace
        // — and at 1 worker the cross-thread epoch dependencies vanish.
        let base = SuiteConfig {
            scale: 0.004,
            seed: 9,
            parallelism: 1,
            worker_threads: DEFAULT_WORKER_THREADS,
        };
        let wide = SuiteConfig {
            parallelism: 8,
            ..base
        };
        let names = ["redis", "memcached", "vacation"];
        let a = run_apps(&names, &base);
        let b = run_apps(&names, &wide);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.run.events, y.run.events,
                "{}: host knob leaked",
                x.run.name
            );
        }
        let single = SuiteConfig {
            worker_threads: 1,
            ..base
        };
        let c = run_apps(&names, &single);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(
                x.run.events, y.run.events,
                "{}: worker count must change the trace",
                x.run.name
            );
            assert!(
                x.analysis.deps.cross_dep_epochs > 0,
                "{}: 4 workers share structures",
                x.run.name
            );
            assert_eq!(
                y.analysis.deps.cross_dep_epochs, 0,
                "{}: a single worker cannot cross-depend",
                y.run.name
            );
        }
    }

    #[test]
    fn floor_warning_fires_at_most_once_across_threads() {
        // Many threads racing into ops() on a flooring scale must
        // advance the emission count by at most one, process-wide: the
        // swap latch admits a single winner. (Another test may have
        // latched the warning already, in which case the count stays
        // put — "at most once" is exactly the satellite's contract.)
        let before = ops_floor_warnings();
        let tiny = test_cfg(1.0 / MIN_OP_BASE as f64, 1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        tiny.effective_ops("exim");
                    }
                });
            }
        });
        let after = ops_floor_warnings();
        assert!(after <= 1, "warning emitted {after} times");
        assert!(after >= before, "count never goes backwards");
    }

    #[test]
    fn oversized_parallelism_is_clamped() {
        let cfg = SuiteConfig {
            scale: 0.004,
            seed: 5,
            parallelism: 64,
            worker_threads: DEFAULT_WORKER_THREADS,
        };
        let r = run_apps(&["hashmap", "exim"], &cfg);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].run.name, "hashmap");
        assert_eq!(r[1].run.name, "exim");
    }
}
