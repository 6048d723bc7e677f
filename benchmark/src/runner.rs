//! Runs one workload in this process and turns what it measured into
//! the metrics of `catalog`.
//!
//! A plain run (`--trace 0`) times iterations with the span recorder
//! off and reports the end-to-end metrics. A traced run (`--trace 1`)
//! alternates plain and recorded iterations in the same process, so
//! the per-layer self times come with their own overhead figure, and
//! refuses to report anything if a recorded iteration computed
//! something else than a plain one.

use crate::catalog::{self, END_TO_END, WORKLOADS};
use crate::host;
use crate::spans::Spans;
use crate::stats::{median, spread};
use crate::workloads::ci_gates::CiGates;
use crate::workloads::suite_default::SuiteDefault;
use crate::workloads::trace_consumers::TraceConsumers;
use crate::workloads::trace_export::TraceExport;
use crate::workloads::{Outcome, Workload};
use pmobs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Params {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Keep iterating until this much time has been measured.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// The smoke run and the self-tests shrink the workloads
    /// ([`crate::workloads::TINY_SCALE`]) and are content with one
    /// timed iteration; a measurement never scales and takes at least
    /// three (rounds, when traced), whatever `seconds` says.
    pub tiny: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// The parameters it ran with.
    pub params: Params,
    /// The warm-up iteration's outcome: the digest, counts and values
    /// every later iteration had to reproduce.
    pub reference: Outcome,
    /// Wall time of each plain timed iteration, seconds.
    pub samples: Vec<f64>,
    /// Wall time of each recorded iteration (traced runs only).
    pub traced_samples: Vec<f64>,
    /// Process start → first timed iteration, warm-up included.
    pub setup_s: f64,
    /// Correctness checks attempted, digest comparisons included.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The metrics this run reports, in catalog order: end-to-end for a
    /// plain run, per-layer for a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The recorder (empty for a plain run).
    pub spans: Spans,
    /// `/proc/loadavg` when the run started.
    pub loadavg_at_start: String,
}

/// Run `p.workload`. `started` is when the process started, so that
/// `setup_s` covers everything before the first timed iteration.
pub fn run(p: &Params, started: Instant) -> Result<RunResult, String> {
    // The layers log findings and progress through the pmobs logger;
    // formatting them is not part of any workload.
    pmobs::logger::set_level(pmobs::Level::Error);
    let loadavg = host::loadavg();
    match p.workload.as_str() {
        "suite-default" => measure(SuiteDefault::setup(p.seed, p.tiny), p, started, loadavg),
        "trace-consumers" => measure(TraceConsumers::setup(p.seed, p.tiny), p, started, loadavg),
        "ci-gates" => measure(CiGates::setup(p.seed, p.tiny), p, started, loadavg),
        "trace-export" => measure(TraceExport::setup(p.seed, p.tiny), p, started, loadavg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn measure<W: Workload>(
    mut w: W,
    p: &Params,
    started: Instant,
    loadavg_at_start: String,
) -> Result<RunResult, String> {
    let mut off = Spans::off();
    let mut spans = Spans::on();

    // Warm-up: lets the allocator, page cache and lazy statics settle,
    // and fixes the reference every timed iteration must reproduce.
    let warm = w.iterate(&mut off);
    let reference = w.verify(warm);
    let mut attempted = reference.checks;
    let mut failures = reference.failures.clone();
    let setup_s = started.elapsed().as_secs_f64();

    let mut samples = Vec::with_capacity(256);
    let mut traced_samples = Vec::with_capacity(256);
    let mut aux: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut traced_outcome = None;
    let mut judge = |o: &Outcome, which: &str| {
        attempted += 1 + o.checks;
        failures.extend(o.failures.iter().cloned());
        if o.digest != reference.digest {
            failures.push(format!(
                "{which}: stats_digest {:016x} differs from the first iteration's {:016x}",
                o.digest, reference.digest
            ));
        }
    };
    let min_iterations = if p.tiny { 1 } else { 3 };
    let timed = Instant::now();
    while samples.len() < min_iterations || timed.elapsed().as_secs_f64() < p.seconds {
        let t0 = Instant::now();
        let out = w.iterate(&mut off);
        samples.push(t0.elapsed().as_secs_f64());
        judge(&w.verify(out), &format!("iteration {}", samples.len()));
        if !p.traced {
            continue;
        }
        spans.set_iteration(traced_samples.len() as u32);
        let t0 = Instant::now();
        let out = spans.scope("iteration", "", |s| w.iterate(s));
        traced_samples.push(t0.elapsed().as_secs_f64());
        let o = w.verify(out);
        if o.digest != reference.digest {
            return Err(format!(
                "{}: the traced iteration computed something else \
                 (stats_digest {:016x}, plain {:016x}); no numbers reported",
                p.workload, o.digest, reference.digest
            ));
        }
        judge(&o, "traced iteration");
        traced_outcome = Some(o);
    }
    // After the rounds, not between them: an extra run in between
    // leaves the allocator in another state than a plain iteration
    // does, and the next iteration's page faults would differ.
    for _ in 0..traced_samples.len().min(3) {
        for (name, seconds) in w.aux() {
            aux.entry(name).or_default().push(seconds);
        }
    }
    drop(w);

    let wall_s = median(&samples).unwrap_or(0.0);
    let metrics = match &traced_outcome {
        None => {
            let passed = 1.0 - failures.len() as f64 / attempted.max(1) as f64;
            let values = [
                wall_s,
                reference.events as f64 / wall_s,
                host::peak_rss_mb(),
                setup_s,
                passed,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), v, m.unit))
                .collect()
        }
        Some(traced) => {
            let layers = per_layer(&spans, &samples, &traced_samples, &aux, &reference, traced);
            catalog::per_layer()
                .into_iter()
                .map(|m| {
                    let v = layers.get(&m.name).copied().unwrap_or(0.0);
                    (m.name, v, m.unit)
                })
                .collect()
        }
    };
    Ok(RunResult {
        params: p.clone(),
        reference,
        samples,
        traced_samples,
        setup_s,
        attempted,
        failures,
        metrics,
        spans,
        loadavg_at_start,
    })
}

/// Derive the per-layer metrics of a traced run. Anything not set here
/// reads 0: that layer did no work on this workload.
fn per_layer(
    spans: &Spans,
    samples: &[f64],
    traced_samples: &[f64],
    aux: &BTreeMap<&'static str, Vec<f64>>,
    reference: &Outcome,
    traced: &Outcome,
) -> BTreeMap<String, f64> {
    // Per iteration: self time per span name, and per (name, label)
    // for the per-application rows.
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..traced_samples.len() {
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for ((name, label), own) in spans.self_times(i as u32) {
            *totals.entry(format!("{name}_s")).or_default() += own;
            if name == "apps.run" {
                *totals.entry(format!("{name}_s.{label}")).or_default() += own;
            }
        }
        for (name, own) in totals {
            by_name.entry(name).or_default().push(own);
        }
    }
    let mut m: BTreeMap<String, f64> = by_name
        .into_iter()
        .filter_map(|(name, v)| Some((name, median(&v)?)))
        .collect();
    if let Some(own) = m.remove("iteration_s") {
        m.insert("runner.self_s".into(), own);
    }
    for (name, v) in aux {
        m.insert((*name).to_string(), median(v).unwrap_or(0.0));
    }

    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |k: &str| {
        traced
            .counts
            .get(k)
            .or_else(|| reference.counts.get(k))
            .map_or(0.0, |&v| v as f64)
    };

    let plain = median(samples).unwrap_or(0.0);
    let recorded = median(traced_samples).unwrap_or(0.0);
    m.insert(
        "runner.span_overhead_pct".into(),
        100.0 * ratio(recorded - plain, plain),
    );
    if let Some(on) = m.remove("suite.metrics_on_wall_s") {
        m.insert(
            "pmobs.metrics_overhead_pct".into(),
            100.0 * ratio(on - plain, plain),
        );
    }
    for (rate, events, seconds) in [
        ("memsim.accesses_per_s", "suite.mem_accesses", "apps.run_s"),
        (
            "pmtrace.analyze_events_per_s",
            "analyzed_events",
            "pmtrace.analyze_s",
        ),
        (
            "hops.replay_events_per_s",
            "replayed_events",
            "hops.fig10_s",
        ),
        (
            "pmcheck.check_events_per_s",
            "checked_events",
            "pmcheck.check_s",
        ),
        ("crash.images_per_s", "crash.images", "gate.crash_s"),
        ("serve.requests_per_s", "serve.requests", "gate.serve_s"),
    ] {
        let v = ratio(count(events), get(&m, seconds));
        m.insert(rate.into(), v);
    }
    for app in whisper::suite::APP_NAMES {
        let host_ns = 1e9 * get(&m, &format!("apps.run_s.{app}"));
        let v = ratio(host_ns, count(&format!("sim_ns.{app}")));
        m.insert(format!("apps.slowdown_x.{app}"), v);
    }
    let export_s = get(&m, "pmobs.export_dom_s") + get(&m, "pmobs.serialize_s");
    m.insert(
        "pmobs.export_bytes_per_s".into(),
        ratio(count("pmobs.trace_bytes"), export_s),
    );
    m.insert(
        "pmobs.record_overhead_x".into(),
        ratio(get(&m, "trace.traced_run_s"), get(&m, "trace.plain_run_s")),
    );

    for name in catalog::COUNTS {
        m.insert(name.to_string(), count(name));
    }
    for (name, v) in &reference.values {
        m.insert(name.clone(), *v);
    }
    m
}

impl RunResult {
    /// Failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Did the plain iterations spread wider than `wall_s` may move?
    pub fn noisy(&self) -> bool {
        spread(&self.samples) > END_TO_END[0].bound
    }

    fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics = metrics.field(
                name,
                Json::obj().field("value", *value).field("unit", *unit),
            );
        }
        metrics
    }

    /// The line the driver reads: the last line of standard output.
    pub fn result_line(&self) -> String {
        Json::obj()
            .field("correct", self.failures.is_empty())
            .field("attempted", self.attempted)
            .field("failed", self.failed())
            .field("metrics", self.metrics_json())
            .to_compact()
    }

    /// Every metric by name with its unit, then the run's identity.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let p = &self.params;
        let mut out = format!(
            "workload {} seed {} trace {}\n",
            p.workload,
            p.seed,
            u8::from(p.traced)
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<34} {value:>18.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  wall_s samples {} (median of; warm-up discarded), IQR/median {:.4}{}",
            self.samples.len(),
            spread(&self.samples),
            if self.noisy() { "  ** noisy **" } else { "" }
        );
        let _ = writeln!(
            out,
            "  stats_digest {:016x}  events {}  checks {} attempted, {} failed",
            self.reference.digest,
            self.reference.events,
            self.attempted,
            self.failed()
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The result document `--out` writes.
    pub fn to_json(&self) -> Json {
        let p = &self.params;
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        let mut counts = Json::obj();
        for (k, v) in &self.reference.counts {
            counts = counts.field(k, *v);
        }
        let mut values = Json::obj();
        for (k, v) in &self.reference.values {
            values = values.field(k, *v);
        }
        let spans: Vec<Json> = self
            .spans
            .finished()
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", s.name)
                    .field("label", s.label)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("parent", s.parent.map(|p| p as u64))
                    .field("iteration", s.iteration)
            })
            .collect();
        Json::obj()
            .field("workload", p.workload.as_str())
            .field("seed", p.seed)
            .field("traced", p.traced)
            .field("seconds", p.seconds)
            .field("tiny", p.tiny)
            .field("host", host::record(&self.loadavg_at_start))
            .field("stats_digest", format!("{:016x}", self.reference.digest))
            .field("events", self.reference.events)
            .field("counts", counts)
            .field("values", values)
            .field("wall_s_samples", floats(&self.samples))
            .field("traced_wall_s_samples", floats(&self.traced_samples))
            .field("wall_s_iqr_share", spread(&self.samples))
            .field("noisy", self.noisy())
            .field("setup_s", self.setup_s)
            .field("attempted", self.attempted)
            .field("failed", self.failed())
            .field(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            )
            .field("metrics", self.metrics_json())
            .field("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose digest the test controls.
    struct Fake {
        iterations: u64,
        drifts: bool,
        traced_differs: bool,
    }

    impl Workload for Fake {
        type Output = u64;

        fn iterate(&mut self, spans: &mut Spans) -> u64 {
            self.iterations += 1;
            spans.scope("apps.run", "echo", |_| ());
            if self.drifts {
                self.iterations
            } else {
                u64::from(self.traced_differs && spans.is_on())
            }
        }

        fn verify(&self, digest: u64) -> Outcome {
            let mut o = Outcome {
                digest,
                events: 1000,
                ..Outcome::default()
            };
            o.check(true, String::new);
            o.count("suite.epochs", 5);
            o
        }
    }

    fn fake(drifts: bool, traced_differs: bool, traced: bool) -> Result<RunResult, String> {
        let w = Fake {
            iterations: 0,
            drifts,
            traced_differs,
        };
        let p = Params {
            workload: "fake".into(),
            seed: 1,
            seconds: 0.0,
            traced,
            tiny: false,
        };
        measure(w, &p, Instant::now(), String::new())
    }

    #[test]
    fn a_steady_workload_passes_every_check() {
        let r = fake(false, false, false).unwrap();
        // Warm-up: its own check. Each timed iteration: that plus the digest.
        assert_eq!((r.attempted, r.failed()), (1 + 3 * 2, 0));
        assert_eq!(r.samples.len(), 3);
        let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        assert!(r
            .result_line()
            .starts_with(r#"{"correct":true,"attempted":7,"failed":0,"#));
    }

    #[test]
    fn a_drifting_digest_fails_every_timed_iteration() {
        let r = fake(true, false, false).unwrap();
        assert_eq!(r.failed(), 3);
        let passed = r.metrics.iter().find(|m| m.0 == "passed_share").unwrap().1;
        assert!((passed - 4.0 / 7.0).abs() < 1e-12, "{passed}");
        assert!(r
            .result_line()
            .starts_with(r#"{"correct":false,"attempted":7,"failed":3,"#));
        assert!(r.human().contains("FAILED: iteration 1: stats_digest"));
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric() {
        let r = fake(false, false, true).unwrap();
        assert_eq!(r.failed(), 0);
        assert_eq!((r.samples.len(), r.traced_samples.len()), (3, 3));
        let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let catalog = catalog::per_layer();
        assert_eq!(
            names,
            catalog.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
        );
        let value = |k: &str| r.metrics.iter().find(|m| m.0 == k).unwrap().1;
        assert_eq!(value("suite.epochs"), 5.0);
        assert_eq!(
            value("pmcheck.check_s"),
            0.0,
            "no such span: the layer did no work"
        );
        assert_eq!(
            r.spans.finished().len(),
            3 * 2,
            "root + one layer call per round"
        );
    }

    #[test]
    fn a_traced_iteration_that_computes_something_else_fails_the_run() {
        let err = fake(false, true, true).unwrap_err();
        assert!(err.contains("computed something else"), "{err}");
    }
}
