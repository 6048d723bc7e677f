//! `ci-gates`: the CI invocation of `whisper-report` minus `--trace`.
//!
//! One iteration calls, in `whisper_report.rs`'s order and at quick
//! scale, everything `.github/workflows/ci.yml` asks for with
//! `--json --json-det --check --check-graph --crossval --crash
//! --optimize --serve --profile`: the suite, the profiled serving
//! sweep, the checker, the dependency graphs, the crash campaign, the
//! cross-validation, the optimizer, and every JSON document and table,
//! written to a scratch directory. `pmobs` metric recording is on, as
//! `--json` turns it on. The same layers as `suite-default`, used
//! differently: `memsim` under crash-plan and elide-plan snapshotting
//! instead of a plain run, `hops::Replayer::step` incrementally instead
//! of batch replay — a fast path that helps there but taxes crash
//! materialisation shows here.

use super::{count_results, digest_results, suite_cfg, Outcome, ScratchDir, Workload, TINY_SCALE};
use crate::spans::Spans;
use crate::stats::Fnv;
use pmcheck::RuleSet;
use pmobs::Json;
use std::path::Path;
use whisper::check::{self, AppCheck};
use whisper::crashtest::{self, AppCrashReport, CampaignConfig};
use whisper::crossval::{self, CrossvalReport};
use whisper::hbgraph::{self, AppGraph};
use whisper::optimize::{self, OptimizeReport};
use whisper::profile::{profile_json, profile_table};
use whisper::serve::{self, AppServe, ServeConfig};
use whisper::suite::{run_suite, AppResult, SuiteConfig};
use whisper::{json_report, report};

/// The committed deterministic report CI compares against.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../ci/golden_quick_report.json"
);

/// The workload's state.
#[derive(Debug)]
pub struct CiGates {
    cfg: SuiteConfig,
    scfg: ServeConfig,
    ccfg: CampaignConfig,
    dir: ScratchDir,
    /// `ci/golden_quick_report.json`, when this run is the
    /// configuration the golden is keyed on (quick scale, seed 42).
    golden: Option<std::io::Result<String>>,
}

impl CiGates {
    /// Quick scale (0.05) and CI's campaign shape. The smoke run
    /// shrinks the scale and sweeps one crash point per application
    /// instead of four (campaign op counts are fixed, not scaled).
    pub fn setup(seed: u64, tiny: bool) -> CiGates {
        let cfg = suite_cfg(if tiny { TINY_SCALE } else { 0.05 }, seed);
        let quick = CampaignConfig::quick();
        pmobs::set_enabled(true);
        CiGates {
            cfg,
            scfg: ServeConfig::from_suite(&cfg),
            ccfg: CampaignConfig {
                points: if tiny { 1 } else { quick.points },
                parallelism: 1,
                ..quick
            },
            dir: ScratchDir::create("ci-gates").expect("scratch directory beside the executable"),
            golden: (seed == 42 && !tiny).then(|| std::fs::read_to_string(GOLDEN)),
        }
    }
}

impl Drop for CiGates {
    fn drop(&mut self) {
        pmobs::set_enabled(false);
    }
}

/// What one iteration hands to `verify`.
pub struct GatesOutput {
    results: Vec<AppResult>,
    served: Vec<AppServe>,
    checks: Vec<AppCheck>,
    graphs: Vec<AppGraph>,
    crash: Vec<AppCrashReport>,
    crossval: CrossvalReport,
    optimized: OptimizeReport,
    /// Every deterministic document and table, as written.
    written: Vec<String>,
    det_subset: String,
}

fn write(dir: &Path, file: &str, contents: &str) {
    std::fs::write(dir.join(file), contents)
        .unwrap_or_else(|e| panic!("cannot write {file} in {}: {e}", dir.display()));
}

impl Workload for CiGates {
    type Output = GatesOutput;

    fn iterate(&mut self, spans: &mut Spans) -> GatesOutput {
        let (cfg, scfg, ccfg) = (&self.cfg, &self.scfg, &self.ccfg);
        let dir = self.dir.path();
        let rules = RuleSet::all();

        let results = spans.scope("gate.suite", "", |_| run_suite(cfg));
        let (served, profiles) = spans.scope("gate.serve", "", |_| serve::run_serve_profiled(scfg));
        let checks = spans.scope("gate.check", "", |_| {
            check::check_results_with(&results, rules)
        });
        let graphs = spans.scope("gate.hbgraph", "", |_| {
            let graphs = hbgraph::build_graphs(&results);
            hbgraph::write_graphs(&graphs, &dir.join("graphs")).expect("graphs written");
            graphs
        });
        let crash = spans.scope("gate.crash", "", |_| crashtest::run_campaign(ccfg));
        let crossval = spans.scope("gate.crossval", "", |_| crossval::run_crossval(ccfg));
        let optimized = spans.scope("gate.optimize", "", |_| {
            optimize::optimize_results(&results, ccfg, cfg.parallelism)
        });

        // The CLI serializes each section twice — once for its
        // standalone `--*-json` file, once inside the full report — and
        // so does this.
        let (written, det_subset) = spans.scope("gate.report", "", |_| {
            let standalone = [
                ("serve.json", serve::serve_json(&served, scfg)),
                ("profile.json", profile_json(&profiles, scfg)),
                ("violations.json", check::violations_json(&checks, rules)),
                ("crash.json", crashtest::crash_json(&crash, ccfg)),
                ("crossval.json", crossval.to_json()),
                ("optimize.json", optimize::optimize_json(&optimized)),
            ];
            let mut written: Vec<String> = standalone
                .iter()
                .map(|(file, doc)| {
                    let text = doc.to_pretty();
                    write(dir, file, &text);
                    text
                })
                .collect();

            let snap = pmobs::global().snapshot();
            let doc = json_report::build_checked(&results, cfg, &snap, Some(&checks), rules)
                .field("crash", crashtest::crash_json(&crash, ccfg))
                .field(
                    "hb",
                    Json::obj()
                        .field("graph", hbgraph::stats_json(&graphs))
                        .field("crossval", crossval.to_json()),
                )
                .field("serve", serve::serve_json(&served, scfg))
                .field("profile", profile_json(&profiles, scfg))
                .field("optimize", optimize::optimize_json(&optimized));
            write(dir, "report.json", &doc.to_pretty());
            let det_subset = json_report::deterministic_subset(&doc).to_pretty();
            write(dir, "report.det.json", &det_subset);

            let text = [
                report::all(&results),
                check::summary_table(&checks),
                hbgraph::summary_table(&graphs),
                crashtest::summary_table(&crash, ccfg),
                crossval.summary_table(),
                optimize::summary_table(&optimized),
                report::serve_table(&served, scfg.arrival),
                profile_table(&profiles),
            ]
            .join("\n");
            write(dir, "report.txt", &text);
            written.push(text);
            (written, det_subset)
        });

        GatesOutput {
            results,
            served,
            checks,
            graphs,
            crash,
            crossval,
            optimized,
            written,
            det_subset,
        }
    }

    fn verify(&self, out: GatesOutput) -> Outcome {
        let mut o = Outcome::default();
        let mut h = Fnv::default();
        digest_results(&mut h, &out.results);
        for text in &out.written {
            h.str(text);
        }
        h.str(&hbgraph::stats_json(&out.graphs).to_pretty())
            .str(&out.det_subset);
        o.digest = h.finish();

        count_results(&mut o, &out.results);
        o.events = o.counts["suite.trace_events"];
        let errors = check::total_errors(&out.checks);
        let warnings: usize = out.checks.iter().map(|c| c.report.warnings()).sum();
        let crash_failures = crashtest::total_failures(&out.crash);
        let requests: u64 = out
            .served
            .iter()
            .flat_map(|a| &a.curves)
            .flat_map(|c| &c.points)
            .map(|p| p.requests)
            .sum();
        o.count("pmcheck.errors", errors as u64);
        o.count("pmcheck.warnings", warnings as u64);
        o.count(
            "pmcheck.rewrite_rounds",
            out.optimized
                .apps
                .iter()
                .map(|a| a.rewrite_rounds as u64)
                .sum(),
        );
        o.count(
            "pmcheck.graph_epochs",
            out.graphs.iter().map(|g| g.graph.nodes.len() as u64).sum(),
        );
        o.count(
            "pmcheck.graph_cross_edges",
            out.graphs
                .iter()
                .map(|g| g.graph.cross_edges.len() as u64)
                .sum(),
        );
        o.count(
            "crash.images",
            out.crash.iter().map(|r| r.images as u64).sum(),
        );
        o.count("crash.failures", crash_failures as u64);
        o.count("crossval.proven_lines", out.crossval.total_proven() as u64);
        o.count(
            "crossval.violations",
            out.crossval.total_violations() as u64,
        );
        o.count("optimize.elided", out.optimized.total_elided() as u64);
        o.count("serve.requests", requests);

        // The CLI's exit-code gates (3, 4, 6, 5).
        o.check(errors == 0, || format!("--check: {errors} error(s)"));
        o.check(crash_failures == 0, || {
            format!("--crash: {crash_failures} recovery failure(s)")
        });
        o.check(out.crossval.passed(), || "--crossval: gate failed".into());
        let violations = out.optimized.gate_violations();
        o.check(violations.is_empty(), || {
            format!("--optimize: {}", violations.join("; "))
        });
        if let Some(golden) = &self.golden {
            o.check(
                golden.as_ref().is_ok_and(|g| *g == out.det_subset),
                || match golden {
                    Ok(_) => "deterministic report differs from ci/golden_quick_report.json".into(),
                    Err(e) => format!("cannot read ci/golden_quick_report.json: {e}"),
                },
            );
        }
        o
    }
}
