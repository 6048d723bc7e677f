//! Ordering optimizer (`whisper-report --optimize`).
//!
//! The checker's P-REDUNDANT-FLUSH and P-DOUBLE-FENCE findings are not
//! just diagnostics — each one is a persistence instruction the
//! application paid for and did not need. This module turns those
//! findings into measured speedup: every Table 1 trace is rewritten by
//! [`pmcheck::rewrite_events`] (flagged flushes and fences elided to a
//! fixpoint), and both the original and optimized traces are replayed
//! under the Figure 10 timing models to price the earned improvement.
//!
//! Two gates keep the rewrite honest:
//!
//! * **Re-check** — the optimized trace must carry zero remaining
//!   elidable findings and no new errors ([`AppOptimize::is_clean`]).
//! * **Crash campaign** — the crash campaign's optimize view
//!   ([`crate::crashtest`]) rewrites each row's traced probe, probes and
//!   captures the row again with the flagged instructions
//!   machine-elided, and every recovery oracle must still pass on every
//!   crash image. An optimization that only survives replay is a guess;
//!   one that survives the full point × spec crash lattice has been
//!   tested where it matters.

use crate::crashtest::{campaign, CampaignConfig, OptimizedCrashReport};
use crate::driver::Gate::Optimize;
use crate::pool::fan_out;
use crate::section::{cell, int, plain, Col, Section};
use crate::serve::SERVE_MODELS;
use crate::suite::AppResult;
use hops::{replay, HopsConfig, PersistModel, TimingConfig};
use pmcheck::rewrite::is_elidable;
use pmobs::Json;
use pmtrace::analysis::for_each_epoch;
use pmtrace::Event;

/// Original vs optimized simulated runtime under one persistence model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpeedup {
    /// The replayed mechanism.
    pub model: PersistModel,
    /// Simulated runtime of the original trace (ns).
    pub base_ns: u64,
    /// Simulated runtime of the optimized trace (ns).
    pub optimized_ns: u64,
}

impl ModelSpeedup {
    /// Earned speedup (> 1.0 means the optimized trace is faster).
    pub fn speedup(&self) -> f64 {
        if self.optimized_ns == 0 {
            1.0
        } else {
            self.base_ns as f64 / self.optimized_ns as f64
        }
    }
}

/// One application's optimize outcome.
#[derive(Debug, Clone)]
pub struct AppOptimize {
    /// Table 1 application name.
    pub name: String,
    /// Trace events before the rewrite.
    pub events_before: usize,
    /// Trace events after the rewrite.
    pub events_after: usize,
    /// Redundant flushes elided.
    pub elided_flushes: usize,
    /// No-work fences elided.
    pub elided_fences: usize,
    /// Check → elide rounds to converge (≥ 1; the last is clean).
    pub rewrite_rounds: usize,
    /// Epochs in the original trace.
    pub epochs_before: usize,
    /// Epochs in the optimized trace (eliding fences merges epochs).
    pub epochs_after: usize,
    /// Mean epoch size (unique lines) before.
    pub mean_epoch_lines_before: f64,
    /// Mean epoch size (unique lines) after.
    pub mean_epoch_lines_after: f64,
    /// Error-severity findings in the original trace.
    pub errors_before: usize,
    /// Error-severity findings in the optimized trace (gate: no new).
    pub errors_after: usize,
    /// Elidable findings still present after the rewrite (gate: 0).
    pub residual_flagged: usize,
    /// Original vs optimized runtime per mechanism, [`SERVE_MODELS`] order.
    pub speedups: Vec<ModelSpeedup>,
}

impl AppOptimize {
    /// Total instructions elided from this app's trace.
    pub fn elided_total(&self) -> usize {
        self.elided_flushes + self.elided_fences
    }

    /// The re-check gate: the optimized trace has no leftover elidable
    /// findings and no errors the original trace didn't have.
    pub fn is_clean(&self) -> bool {
        self.residual_flagged == 0 && self.errors_after <= self.errors_before
    }
}

/// The whole `--optimize` section: per-app rewrite results plus the
/// crash-campaign soundness gate.
#[derive(Debug)]
pub struct OptimizeReport {
    /// Per-app rewrite + replay outcomes, Table 1 order.
    pub apps: Vec<AppOptimize>,
    /// The optimized crash campaign, Table 1 order.
    pub crash: Vec<OptimizedCrashReport>,
}

impl OptimizeReport {
    /// Total instructions elided across the suite's traces.
    pub fn total_elided(&self) -> usize {
        self.apps.iter().map(AppOptimize::elided_total).sum()
    }

    /// Oracle rejections across the optimized crash campaign.
    pub fn crash_failures(&self) -> usize {
        self.crash.iter().map(|r| r.report.failures.len()).sum()
    }

    /// Every gate violation, as human-readable lines (empty = pass).
    pub fn gate_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.apps {
            if a.residual_flagged > 0 {
                out.push(format!(
                    "{}: {} elidable finding(s) remain after rewrite",
                    a.name, a.residual_flagged
                ));
            }
            if a.errors_after > a.errors_before {
                out.push(format!(
                    "{}: rewrite introduced errors ({} -> {})",
                    a.name, a.errors_before, a.errors_after
                ));
            }
        }
        for r in &self.crash {
            if !r.report.failures.is_empty() {
                out.push(format!(
                    "{}: {} recovery failure(s) on the optimized schedule",
                    r.report.name,
                    r.report.failures.len()
                ));
            }
        }
        out
    }
}

/// Epoch count and mean epoch size (unique lines), in one walk.
fn mean_epoch_lines(events: &[Event]) -> (usize, f64) {
    let (mut n, mut lines) = (0usize, 0usize);
    for_each_epoch(events, |e| {
        n += 1;
        lines += e.unique_lines();
    });
    if n == 0 {
        return (0, 0.0);
    }
    (n, lines as f64 / n as f64)
}

/// Rewrite one app's trace and price the difference.
fn optimize_app(result: &AppResult) -> AppOptimize {
    let _span = pmobs::span!("optimize.app", result.run.name.as_str());
    let events = &result.run.events;
    let before = pmcheck::check_events(events);
    let rw = pmcheck::rewrite_events(events);
    // Nothing elided: the rewritten trace *is* the input, and so is
    // its report.
    let rechecked = (rw.elided_total() > 0).then(|| pmcheck::check_events(&rw.events));
    let after = rechecked.as_ref().unwrap_or(&before);
    let residual_flagged = after
        .findings
        .iter()
        .filter(|f| is_elidable(f.rule))
        .count();
    let (epochs_before, mean_before) = mean_epoch_lines(events);
    let (epochs_after, mean_after) = mean_epoch_lines(&rw.events);
    let timing = TimingConfig::default();
    let hops_cfg = HopsConfig::default();
    let speedups = SERVE_MODELS
        .iter()
        .map(|&model| ModelSpeedup {
            model,
            base_ns: replay(events, &timing, &hops_cfg, model).runtime_ns,
            optimized_ns: replay(&rw.events, &timing, &hops_cfg, model).runtime_ns,
        })
        .collect();
    pmobs::count!("optimize.elided", rw.elided_total() as u64);
    AppOptimize {
        name: result.run.name.clone(),
        events_before: events.len(),
        events_after: rw.events.len(),
        elided_flushes: rw.elided_flushes,
        elided_fences: rw.elided_fences,
        rewrite_rounds: rw.rounds,
        epochs_before,
        epochs_after,
        mean_epoch_lines_before: mean_before,
        mean_epoch_lines_after: mean_after,
        errors_before: before.errors(),
        errors_after: after.errors(),
        residual_flagged,
        speedups,
    }
}

/// Rewrite, re-check, and price every suite trace (fanned out across
/// `parallelism` workers — each app is independent, so results are
/// identical to the serial order), next to the campaign's optimize
/// view `crash`.
pub(crate) fn report(
    results: &[AppResult],
    crash: Vec<OptimizedCrashReport>,
    parallelism: usize,
) -> OptimizeReport {
    let _span = pmobs::span!("optimize.suite");
    let apps = fan_out(parallelism, results.len(), |i| optimize_app(&results[i]));
    OptimizeReport { apps, crash }
}

/// The optimize view alone: every suite trace rewritten and priced,
/// and the crash campaign re-run over the elided schedules.
pub fn optimize_results(
    results: &[AppResult],
    cfg: &CampaignConfig,
    parallelism: usize,
) -> OptimizeReport {
    let crash = campaign(cfg, |gate| gate == Optimize).optimized;
    report(results, crash, parallelism)
}

/// `{before, after}`.
fn before_after(before: usize, after: usize) -> Json {
    Json::obj().field("before", before).field("after", after)
}

fn elided(a: &AppOptimize) -> Json {
    Json::obj()
        .field("flushes", a.elided_flushes)
        .field("fences", a.elided_fences)
        .field("rounds", a.rewrite_rounds)
}

fn epochs(a: &AppOptimize) -> Json {
    before_after(a.epochs_before, a.epochs_after)
        .field("mean_lines_before", a.mean_epoch_lines_before)
        .field("mean_lines_after", a.mean_epoch_lines_after)
}

fn check(a: &AppOptimize) -> Json {
    Json::obj()
        .field("errors_before", a.errors_before)
        .field("errors_after", a.errors_after)
        .field("residual_flagged", a.residual_flagged)
}

/// `{<model>: {base_ns, optimized_ns, speedup}, ...}`.
fn speedups(a: &AppOptimize) -> Json {
    a.speedups.iter().fold(Json::obj(), |obj, s| {
        let speedup = Json::obj()
            .field("base_ns", s.base_ns)
            .field("optimized_ns", s.optimized_ns)
            .field("speedup", s.speedup());
        obj.field(&s.model.to_string(), speedup)
    })
}

/// The speedup columns: one `{:>9.4}x` per model.
fn speedup_cells(c: &Json) -> String {
    let Json::Obj(models) = c else {
        return String::new();
    };
    let speedup = |s: &Json| cell(s, "speedup").as_f64().unwrap_or(0.0);
    models
        .iter()
        .map(|(_, s)| format!("{:>9.4}x", speedup(s)))
        .collect()
}

/// A sum of two integer cells of a row.
fn sum2(r: &Json, a: &str, b: &str) -> String {
    (int(r, a) + int(r, b)).to_string()
}

#[rustfmt::skip]
const APPS: [Col<AppOptimize>; 8] = [
    Col("name", "app", "<14", |a| a.name.as_str().into(), plain),
    Col::json("events", |a| before_after(a.events_before, a.events_after)),
    Col("elided", "elided-fl", " >9", elided, |c| int(c, "flushes").to_string()),
    Col::text("elided-fe", " >10", |r| int(r, "elided.fences").to_string()),
    Col::text("rounds", " >7", |r| int(r, "elided.rounds").to_string()),
    Col("epochs", "epochs before->after", "   <0", epochs, |c| format!("{:>8} -> {:<8}", int(c, "before"), int(c, "after"))),
    Col::json("check", check),
    Col("speedup", " x86(NVM)  HOPS(NVM)  x86(PWQ)", " <0", speedups, speedup_cells),
];

#[rustfmt::skip]
const CRASH: [Col<OptimizedCrashReport>; 15] = [
    Col("name", "app", "<14", |r| r.report.name.into(), plain),
    Col::json("planned_flushes", |r| r.planned_flushes.into()),
    Col::json("planned_fences", |r| r.planned_fences.into()),
    Col::text("planned", " >7", |r| sum2(r, "planned_flushes", "planned_fences")),
    Col::json("elided_flushes", |r| r.elide.flushes_elided.into()),
    Col::json("elided_fences", |r| r.elide.fences_elided.into()),
    Col::text("elided", " >7", |r| sum2(r, "elided_flushes", "elided_fences")),
    Col::json("flush_vetoes", |r| r.elide.flush_vetoes.into()),
    Col::json("fence_vetoes", |r| r.elide.fence_vetoes.into()),
    Col::text("vetoed", " >7", |r| sum2(r, "flush_vetoes", "fence_vetoes")),
    Col::json("baseline_fences", |r| r.baseline_fences.into()),
    Col::json("fence_events", |r| r.report.fence_events.into()),
    Col::text("fences before->after ", "  <0", |r| format!("{:>9} -> {:<8}", int(r, "baseline_fences"), int(r, "fence_events"))),
    Col("images", "images", " >6", |r| r.report.images.into(), plain),
    Col("failures", "failures", " >9", |r| r.report.failures.len().into(), plain),
];

/// The `optimize` section of the report and the tables `--optimize`
/// prints: the rewrite per app, then the crash campaign over the
/// optimized schedules and the gate verdict.
pub fn section(report: &OptimizeReport) -> Section {
    let crash = Section::new("crash", "Crash campaign over optimized schedules")
        .table(&report.crash, &CRASH);
    let violations = report.gate_violations();
    let mut section = Section::new("optimize", "Ordering optimizer (pmcheck rewrite)")
        .table(&report.apps, &APPS)
        .footer(format!(
            "total elided: {} instruction(s) across {} app(s)",
            report.total_elided(),
            report.apps.len()
        ))
        .footer("");
    for line in crash.text().lines() {
        section = section.footer(line);
    }
    if violations.is_empty() {
        let images: usize = report.crash.iter().map(|r| r.report.images).sum();
        section = section.footer(format!(
            "gates: PASS — optimized traces check clean, {images} crash image(s) all recovered"
        ));
    } else {
        section = section.footer("gates: FAIL");
        for v in &violations {
            section = section.footer(format!("  {v}"));
        }
    }
    let gates = Json::obj()
        .field("check_clean", report.apps.iter().all(AppOptimize::is_clean))
        .field("crash_ok", report.crash_failures() == 0)
        .field(
            "violations",
            violations.into_iter().map(Json::from).collect::<Vec<_>>(),
        );
    section
        .field("total_elided", report.total_elided())
        .field("crash_failures", report.crash_failures())
        .field("gates", gates)
        .rows_in("apps")
        .field("crash", crash.json())
}

/// The `optimize` section of the JSON report ([`section`]).
pub fn optimize_json(report: &OptimizeReport) -> Json {
    section(report).json()
}

/// The `--optimize` tables ([`section`]).
pub fn summary_table(report: &OptimizeReport) -> String {
    section(report).text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_app, SuiteConfig};

    fn tiny_cfg() -> SuiteConfig {
        SuiteConfig {
            scale: 0.008,
            seed: 7,
            parallelism: 1,
            worker_threads: 4,
        }
    }

    #[test]
    fn hashmap_trace_earns_a_speedup() {
        // The NVML-style undo engine double-fences on commit, so the
        // rewrite must elide fences and the x86 replay must get faster.
        let r = run_app("hashmap", &tiny_cfg());
        let a = optimize_app(&r);
        assert!(a.elided_fences > 0, "{a:?}");
        assert!(a.is_clean(), "{a:?}");
        assert_eq!(a.events_before, a.events_after + a.elided_total());
        let x86 = &a.speedups[0];
        assert_eq!(x86.model, PersistModel::X86Nvm);
        assert!(x86.base_ns > x86.optimized_ns, "{a:?}");
        // Fewer fences, fewer (or equal) epochs.
        assert!(a.epochs_after <= a.epochs_before);
    }

    #[test]
    fn optimize_json_round_trips() {
        let r = run_app("ctree", &tiny_cfg());
        let report = OptimizeReport {
            apps: vec![optimize_app(&r)],
            crash: Vec::new(),
        };
        let doc = optimize_json(&report);
        let parsed = pmobs::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("total_elided").and_then(Json::as_f64),
            Some(report.total_elided() as f64)
        );
        let gates = parsed.get("gates").unwrap();
        assert_eq!(gates.get("check_clean"), Some(&Json::Bool(true)));
        let apps = parsed.get("apps").and_then(|a| a.as_arr()).unwrap();
        let speedup = apps[0].get("speedup").unwrap();
        for model in SERVE_MODELS {
            let s = speedup.get(&model.to_string()).unwrap();
            assert!(s.get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn summary_table_mentions_gates() {
        let r = run_app("hashmap", &tiny_cfg());
        let report = OptimizeReport {
            apps: vec![optimize_app(&r)],
            crash: Vec::new(),
        };
        let table = summary_table(&report);
        assert!(table.contains("hashmap"), "{table}");
        assert!(table.contains("gates: PASS"), "{table}");
    }

    #[test]
    fn gate_violations_flag_regressions() {
        let r = run_app("exim", &tiny_cfg());
        let mut a = optimize_app(&r);
        a.errors_after = a.errors_before + 1;
        a.residual_flagged = 2;
        let report = OptimizeReport {
            apps: vec![a],
            crash: Vec::new(),
        };
        let v = report.gate_violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(summary_table(&report).contains("gates: FAIL"));
    }
}
