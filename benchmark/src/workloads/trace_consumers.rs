//! `trace-consumers`: the recorded traces pushed through every reader.
//!
//! Set-up records the eleven paced and six unpaced traces at scale 0.3
//! once; each iteration then reads every trace with the single-pass
//! analyzer, the Figure 10 batch replay, the persistency checker, the
//! happens-before graph builder, the fixpoint rewriter, the binary
//! codec, the incremental replayer (serve's calibration path) and the
//! report writers. These are the same `Event` vectors `suite-default`
//! writes, read instead of written: `pmcheck` does over four fifths of
//! the work here and none there, application execution none here.

use super::{
    count_results, digest_results, run_app_parts, suite_cfg, Outcome, Workload, TINY_SCALE,
};
use crate::spans::Spans;
use crate::stats::Fnv;
use hops::{figure10_bars, HopsConfig, TimingConfig};
use pmobs::MetricsSnapshot;
use whisper::serve::{request_bounds, service_times_with_stalls, SERVE_MODELS};
use whisper::suite::{analyze, AppResult, SuiteConfig, APP_NAMES, SIM_APPS};
use whisper::{check, hbgraph, json_report, report};

/// One group of recorded traces, as the `AppResult`s the readers take.
#[derive(Debug)]
struct TraceSet {
    /// The applications, in `results` order (span labels).
    names: &'static [&'static str],
    /// `effective_ops ÷ this` operations recorded each trace.
    ops_divisor: usize,
    results: Vec<AppResult>,
}

/// The recorded traces.
#[derive(Debug)]
pub struct TraceConsumers {
    cfg: SuiteConfig,
    /// `[paced (11), unpaced (6)]`.
    sets: [TraceSet; 2],
}

impl TraceConsumers {
    /// Record every trace at scale 0.3 (the smoke run shrinks it).
    pub fn setup(seed: u64, tiny: bool) -> TraceConsumers {
        let cfg = suite_cfg(if tiny { TINY_SCALE } else { 0.3 }, seed);
        let mut spans = Spans::off();
        let mut paced = Vec::new();
        let mut unpaced = Vec::new();
        for name in APP_NAMES {
            let (result, sim) = run_app_parts(name, &cfg, &mut spans);
            paced.push(result);
            if let Some(run) = sim {
                let analysis = analyze(&run);
                unpaced.push(AppResult { run, analysis });
            }
        }
        TraceConsumers {
            cfg,
            sets: [
                TraceSet {
                    names: &APP_NAMES,
                    ops_divisor: 1,
                    results: paced,
                },
                TraceSet {
                    names: &SIM_APPS,
                    ops_divisor: 2,
                    results: unpaced,
                },
            ],
        }
    }
}

/// What the readers said about one trace.
#[derive(Debug, Default)]
pub struct TraceFacts {
    errors: u64,
    warnings: u64,
    graph_epochs: u64,
    graph_cross_edges: u64,
    rewrite_rounds: u64,
    elided: u64,
    codec_bytes: u64,
    codec_round_trips: bool,
    /// `(service ns, stall ns)` summed per serve model.
    service: Vec<(u64, u64)>,
}

/// What one iteration hands to `verify`.
#[derive(Debug)]
pub struct ConsumersOutput {
    /// One entry per trace, paced first.
    facts: Vec<TraceFacts>,
    report_json: String,
    report_text: String,
}

impl Workload for TraceConsumers {
    type Output = ConsumersOutput;

    fn iterate(&mut self, spans: &mut Spans) -> ConsumersOutput {
        let timing = TimingConfig::default();
        let hops_cfg = HopsConfig::default();
        let mut facts: Vec<TraceFacts> = Vec::new();
        let TraceConsumers { cfg, sets } = self;
        for set in sets.iter_mut() {
            let first = facts.len();
            for (r, name) in set.results.iter_mut().zip(set.names) {
                let run = &r.run;
                let mut analysis = spans.scope("pmtrace.analyze", name, |_| analyze(run));
                analysis.fig10 = spans.scope("hops.fig10", name, |_| {
                    figure10_bars(&run.events, &timing, &hops_cfg)
                });
                r.analysis = analysis;
                facts.push(TraceFacts::default());
            }
            let results = &set.results;
            let checks = spans.scope("pmcheck.check", "", |_| check::check_results(results));
            let graphs = spans.scope("pmcheck.hbgraph", "", |_| hbgraph::build_graphs(results));
            for (f, (c, g)) in facts[first..].iter_mut().zip(checks.iter().zip(&graphs)) {
                f.errors = c.report.errors() as u64;
                f.warnings = c.report.warnings() as u64;
                f.graph_epochs = g.graph.nodes.len() as u64;
                f.graph_cross_edges = g.graph.cross_edges.len() as u64;
            }
            for ((f, r), name) in facts[first..].iter_mut().zip(results).zip(set.names) {
                let events = &r.run.events;
                let rewritten =
                    spans.scope("pmcheck.rewrite", name, |_| pmcheck::rewrite_events(events));
                f.rewrite_rounds = rewritten.rounds as u64;
                f.elided = rewritten.elided_total() as u64;
                (f.codec_bytes, f.codec_round_trips) = spans.scope("pmtrace.codec", name, |_| {
                    let bytes = pmtrace::encode_events(events);
                    let back = pmtrace::decode_events(&bytes);
                    (bytes.len() as u64, back.as_deref() == Ok(events))
                });
                // As many requests as operations recorded the trace, as
                // serve's calibration cuts it.
                let ops = cfg.effective_ops(name).expect("Table 1 name") / set.ops_divisor;
                let bounds = request_bounds(events, ops);
                f.service = spans.scope("hops.replayer_step", name, |_| {
                    SERVE_MODELS
                        .iter()
                        .map(|&model| {
                            service_times_with_stalls(events, &bounds, model)
                                .iter()
                                .fold((0, 0), |(svc, stall), &(s, t)| (svc + s, stall + t))
                        })
                        .collect()
                });
            }
        }
        let paced = &sets[0].results;
        let (report_json, report_text) = spans.scope("whisper.report", "", |_| {
            let doc = json_report::build(paced, cfg, &MetricsSnapshot::default());
            (doc.to_pretty(), report::all(paced))
        });
        ConsumersOutput {
            facts,
            report_json,
            report_text,
        }
    }

    fn verify(&self, out: ConsumersOutput) -> Outcome {
        let mut o = Outcome::default();
        let mut h = Fnv::default();
        for set in &self.sets {
            digest_results(&mut h, &set.results);
        }
        for f in &out.facts {
            h.u64(f.errors)
                .u64(f.warnings)
                .u64(f.graph_epochs)
                .u64(f.graph_cross_edges)
                .u64(f.rewrite_rounds)
                .u64(f.elided)
                .u64(f.codec_bytes);
            for &(svc, stall) in &f.service {
                h.u64(svc).u64(stall);
            }
        }
        h.str(&out.report_json).str(&out.report_text);
        o.digest = h.finish();

        count_results(&mut o, &self.sets[0].results);
        o.events = o.counts["suite.trace_events"];
        let sum = |f: fn(&TraceFacts) -> u64| out.facts.iter().map(f).sum::<u64>();
        o.count("pmcheck.errors", sum(|f| f.errors));
        o.count("pmcheck.warnings", sum(|f| f.warnings));
        o.count("pmcheck.rewrite_rounds", sum(|f| f.rewrite_rounds));
        o.count("pmcheck.graph_epochs", sum(|f| f.graph_epochs));
        o.count("pmcheck.graph_cross_edges", sum(|f| f.graph_cross_edges));
        o.count("pmtrace.codec_bytes", sum(|f| f.codec_bytes));
        let all_events: u64 = self
            .sets
            .iter()
            .flat_map(|set| &set.results)
            .map(|r| r.run.events.len() as u64)
            .sum();
        for reader in ["analyzed_events", "replayed_events", "checked_events"] {
            o.count(reader, all_events);
        }

        o.check(out.facts.len() == 17, || {
            format!("{} of 17 traces were read", out.facts.len())
        });
        o.check(out.facts.iter().all(|f| f.codec_round_trips), || {
            "a trace did not survive encode → decode".into()
        });
        let errors = o.counts["pmcheck.errors"];
        o.check(errors == 0, || {
            format!("pmcheck found {errors} error(s) in correct programs")
        });
        o
    }
}
