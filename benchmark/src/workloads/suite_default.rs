//! `suite-default`: what `whisper-report` with no flags costs.
//!
//! One iteration is `whisper::suite::run_suite` at scale 1.0 — the
//! eleven paced runs, their single-pass analysis, the six unpaced runs
//! and the Figure 10 replays. Application execution on `memsim` /
//! `pmem` / `pmtx` / `pmds` / `pmfs` / `pmalloc` does about three
//! quarters of the work; `pmcheck`, the crash campaign, `serve` and
//! `pmobs::trace` do none. The traced run re-composes `run_app` from
//! its public pieces so run, analysis and replay stop being one lump;
//! the digest proves both compositions compute the same thing.

use super::{
    count_results, digest_results, run_app_parts, suite_cfg, Outcome, Workload, TINY_SCALE,
};
use crate::spans::Spans;
use crate::stats::{median, Fnv};
use hops::PersistModel;
use std::time::Instant;
use whisper::report::{PAPER, PAPER_FIG10_AVG};
use whisper::suite::{run_suite, AppResult, SuiteConfig, APP_NAMES, SIM_APPS};

/// The workload's state: just its configuration.
#[derive(Debug)]
pub struct SuiteDefault {
    cfg: SuiteConfig,
}

impl SuiteDefault {
    /// Scale 1.0 (the smoke run shrinks it).
    pub fn setup(seed: u64, tiny: bool) -> SuiteDefault {
        SuiteDefault {
            cfg: suite_cfg(if tiny { TINY_SCALE } else { 1.0 }, seed),
        }
    }
}

/// What one iteration hands to `verify`.
#[derive(Debug)]
pub struct SuiteOutput {
    results: Vec<AppResult>,
    /// Events the unpaced runs recorded (replayed, never kept).
    unpaced_events: Option<u64>,
}

impl Workload for SuiteDefault {
    type Output = SuiteOutput;

    fn iterate(&mut self, spans: &mut Spans) -> SuiteOutput {
        if !spans.is_on() {
            return SuiteOutput {
                results: run_suite(&self.cfg),
                unpaced_events: None,
            };
        }
        let mut unpaced_events = 0u64;
        let results = APP_NAMES
            .iter()
            .map(|name| {
                let (result, unpaced) = run_app_parts(name, &self.cfg, spans);
                unpaced_events += unpaced.map_or(0, |u| u.events.len() as u64);
                result
            })
            .collect();
        SuiteOutput {
            results,
            unpaced_events: Some(unpaced_events),
        }
    }

    fn verify(&self, out: SuiteOutput) -> Outcome {
        let results = &out.results;
        let mut o = Outcome::default();
        let mut h = Fnv::default();
        digest_results(&mut h, results);
        o.digest = h.finish();
        count_results(&mut o, results);
        o.events = o.counts["suite.trace_events"];
        o.check(results.len() == APP_NAMES.len(), || {
            format!("suite returned {} of 11 rows", results.len())
        });

        // Denominators of the per-layer rates.
        o.count("analyzed_events", o.events);
        if let Some(unpaced) = out.unpaced_events {
            let paced_replayed: u64 = results
                .iter()
                .filter(|r| !SIM_APPS.contains(&r.run.name.as_str()))
                .map(|r| r.run.events.len() as u64)
                .sum();
            o.count("replayed_events", paced_replayed + unpaced);
        }
        for r in results {
            o.count(&format!("sim_ns.{}", r.run.name), r.run.duration_ns);
        }

        // Accuracy against the paper's numbers the repo holds.
        let log_errs: Vec<f64> = results
            .iter()
            .zip(&PAPER)
            .map(|(r, p)| (r.analysis.epochs_per_sec / p.epochs_per_sec).log10().abs())
            .collect();
        let hops_nvm = |bars: &[(PersistModel, f64)]| {
            bars.iter()
                .find(|(m, _)| *m == PersistModel::HopsNvm)
                .map_or(0.0, |(_, v)| *v)
        };
        let sim_bars: Vec<f64> = results
            .iter()
            .filter(|r| SIM_APPS.contains(&r.run.name.as_str()))
            .map(|r| hops_nvm(&r.analysis.fig10))
            .collect();
        let measured_avg = sim_bars.iter().sum::<f64>() / sim_bars.len().max(1) as f64;
        o.values.insert(
            "model.table1_log10_err".into(),
            median(&log_errs).unwrap_or(0.0),
        );
        o.values.insert(
            "model.fig10_hops_nvm_err".into(),
            (measured_avg - hops_nvm(&PAPER_FIG10_AVG)).abs(),
        );
        o.values.insert(
            "model.sim_ms_total".into(),
            results.iter().map(|r| r.run.duration_ns).sum::<u64>() as f64 / 1e6,
        );
        o
    }

    /// One plain iteration with `pmobs` metric recording on: ROADMAP
    /// item 2's "metrics on vs off" budget row.
    fn aux(&mut self) -> Vec<(&'static str, f64)> {
        pmobs::set_enabled(true);
        let t0 = Instant::now();
        let results = run_suite(&self.cfg);
        let wall = t0.elapsed().as_secs_f64();
        pmobs::set_enabled(false);
        drop(results);
        vec![("suite.metrics_on_wall_s", wall)]
    }
}
