//! The four workloads and what they share.
//!
//! A workload is set up once per process, then iterated. `iterate` is
//! the timed region: nothing but calls into the layers' public
//! functions, each wrapped in a runner span. `verify` runs outside the
//! timed region: it folds the iteration's deterministic output into a
//! `stats_digest`, pulls out the identity counts, and judges the gate
//! outcomes.

pub mod ci_gates;
pub mod suite_default;
pub mod trace_consumers;
pub mod trace_export;

use crate::spans::Spans;
use crate::stats::Fnv;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use whisper::apps::{self, AppRun};
use whisper::suite::{
    analyze, fig10_for, run_named_threads, AppResult, SuiteConfig, DEFAULT_WORKER_THREADS, SIM_APPS,
};

/// What one verified iteration produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The workload's deterministic event count — the numerator of
    /// `events_per_s`.
    pub events: u64,
    /// FNV-1a over the iteration's deterministic output.
    pub digest: u64,
    /// Deterministic counts: the exported identity witnesses plus the
    /// denominators the per-layer rates need.
    pub counts: BTreeMap<String, u64>,
    /// Model accuracy and other deterministic non-integer results.
    pub values: BTreeMap<String, f64>,
    /// Correctness checks attempted in this iteration, beyond the
    /// digest comparison the runner adds.
    pub checks: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set a deterministic count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.counts.insert(name.to_string(), v);
    }
}

/// One workload: set up once, iterated many times.
pub trait Workload {
    /// What the timed region hands to [`Workload::verify`].
    type Output;

    /// The timed region. With `spans` off this is the end-to-end
    /// measurement; with `spans` on, the same work with every layer
    /// call recorded.
    fn iterate(&mut self, spans: &mut Spans) -> Self::Output;

    /// Untimed: digest, counts and gate verdicts for one iteration.
    fn verify(&self, out: Self::Output) -> Outcome;

    /// Extra measurements a traced run takes after its rounds (up to
    /// three times), as `(name, seconds)`; the runner reports their
    /// medians.
    fn aux(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The scale the smoke run and the self-tests shrink every workload
/// to. A measurement never scales: it cuts iterations instead.
pub const TINY_SCALE: f64 = 0.01;

/// The suite configuration every workload derives from: one host
/// thread, four simulated workers.
pub fn suite_cfg(scale: f64, seed: u64) -> SuiteConfig {
    SuiteConfig {
        scale,
        seed,
        parallelism: 1,
        worker_threads: DEFAULT_WORKER_THREADS,
    }
}

/// `whisper::suite::run_app` re-composed from its public pieces, so
/// that run, analysis, unpaced run and Figure 10 replay each get a
/// span instead of being one lump. Also hands back the unpaced run
/// that `run_app` drops, for `trace-consumers` to read.
pub fn run_app_parts(
    name: &'static str,
    cfg: &SuiteConfig,
    spans: &mut Spans,
) -> (AppResult, Option<AppRun>) {
    let _ctx = pmobs::trace::context(name);
    let seed = cfg.seed;
    let ops = cfg
        .effective_ops(name)
        .unwrap_or_else(|| panic!("unknown application {name:?}"));
    let run = spans.scope("apps.run", name, |_| {
        run_named_threads(name, ops, seed, cfg.worker_threads)
    });
    let mut analysis = spans.scope("pmtrace.analyze", name, |_| analyze(&run));
    let unpaced = SIM_APPS.contains(&name).then(|| {
        let sim_ops = ops / 2;
        spans.scope("apps.unpaced_run", name, |_| match name {
            "echo" => apps::echo::run_unpaced(sim_ops, seed),
            "nstore-ycsb" => apps::nstore::run_ycsb_unpaced(sim_ops, seed),
            "redis" => apps::redis::run_unpaced(sim_ops, seed),
            "ctree" => apps::micro::ctree_unpaced(sim_ops, seed),
            "hashmap" => apps::micro::hashmap_unpaced(sim_ops, seed),
            "vacation" => apps::vacation::run_unpaced(sim_ops, seed),
            _ => unreachable!("SIM_APPS covered above"),
        })
    });
    let replayed = unpaced.as_ref().unwrap_or(&run);
    analysis.fig10 = spans.scope("hops.fig10", name, |_| fig10_for(&replayed.events));
    (AppResult { run, analysis }, unpaced)
}

/// Fold the deterministic statistics of suite results into `h`:
/// per-app event, access and epoch counts, simulated duration, and the
/// Figure 10 bars bit for bit.
pub fn digest_results(h: &mut Fnv, results: &[AppResult]) {
    for r in results {
        h.str(&r.run.name)
            .u64(r.run.events.len() as u64)
            .u64(r.run.stats.dram_accesses)
            .u64(r.run.stats.pm_reads)
            .u64(r.run.stats.pm_writes)
            .u64(r.run.duration_ns)
            .u64(r.analysis.epoch_count as u64)
            .f64(r.analysis.epochs_per_sec)
            .f64(r.analysis.pm_fraction);
        for (_, bar) in &r.analysis.fig10 {
            h.f64(*bar);
        }
    }
}

/// The `suite.*` identity counts of a result set.
pub fn count_results(out: &mut Outcome, results: &[AppResult]) {
    let sum = |f: fn(&AppResult) -> u64| results.iter().map(f).sum::<u64>();
    out.count("suite.trace_events", sum(|r| r.run.events.len() as u64));
    out.count("suite.mem_accesses", sum(|r| r.run.stats.total()));
    out.count("suite.epochs", sum(|r| r.analysis.epoch_count as u64));
}

/// A scratch directory beside the running executable — inside the
/// build directory, so inside the checkout and ignored by git — that
/// is removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<exe dir>/whisper-perf-tmp/<pid>-<tag>`.
    pub fn create(tag: &str) -> std::io::Result<ScratchDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base
            .join("whisper-perf-tmp")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits in the build directory
        // and is harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
