//! Machine-readable suite report (`whisper-report --json`).
//!
//! One versioned JSON document bundling everything the text report
//! shows — Table 1, Figures 3–6 and 10, the Section 5.2 byte
//! accounting — plus the suite-wide [`MemStats`] totals, a dump of the
//! [`pmobs`] metrics registry, and one section per report gate. The
//! figures and gates are [`Section`]s, each rendered once as text and
//! once as JSON; [`SECTIONS`] lists every key of the document in order,
//! and [`REQUIRED_KEYS`], [`DETERMINISTIC_KEYS`] and the gate each
//! `--<gate>-json` flag writes all come from it. The encoder is
//! [`pmobs::json`]; no external serialization crate is involved.
//!
//! # Schema (version 8)
//!
//! This is the one field list of the report; the gate modules and
//! DESIGN.md point here. Version 8 added `config.worker_threads`;
//! versions 2–7 added, in turn, `violations`, `crash` with
//! `config.effective_ops`, `serve` with `p999` in every histogram,
//! `profile`, `optimize`, and `hb` with `violations.rules_enabled`.
//!
//! ```text
//! schema_version   u64     always 8 for this layout
//! config           obj     {scale, seed, parallelism, worker_threads,
//!                           effective_ops: {app: ops}}
//! table1           arr     one obj per app, Table 1 order:
//!                          {name, workload, threads, epochs,
//!                           duration_ns, epochs_per_sec,
//!                           paper_epochs_per_sec}
//! fig3             arr     {name, median, mean, max, tx_count,
//!                           paper_median} — nulls when no transactions
//! fig4             obj     {bucket_labels, apps: [{name, fractions}]}
//! fig5             arr     {name, self_pct, cross_pct,
//!                           paper_self_pct, paper_cross_pct}
//! fig6             obj     {apps: [{name, pm_pct, paper_pm_pct}],
//!                           average_pm_pct, paper_average_pm_pct}
//!                          (gem5-subset apps with memory counters)
//! fig10            obj     {models, apps: [{name, normalized}],
//!                           average, paper_average}
//!                          (gem5-subset apps with a Figure 10 replay)
//! amplification    arr     {name, amplification, user_bytes,
//!                           overhead_bytes, bytes_by_category}
//! nt_fraction      arr     {name, fraction} — null when no PM bytes
//! small_writes     arr     {name, fraction} — null when no singletons
//! totals           obj     merged MemStats: {dram_accesses, pm_reads,
//!                           pm_writes, pm_fraction, pm_read_fraction,
//!                           pm_write_fraction}
//! metrics          obj     {counters, gauges, histograms} from the
//!                          pmobs registry; histograms carry
//!                          {unit, count, sum, min, max, mean,
//!                           p50, p90, p99, p999}. Empty objects when
//!                          recording was off.
//! violations       obj?    `--check` ([`crate::check`]):
//!                          {checked_apps, rules_enabled,
//!                           total_errors, total_warnings, by_rule,
//!                           apps: [{name, events, errors, warnings,
//!                           by_rule, findings (first 25),
//!                           findings_truncated}]}; `by_rule` maps a
//!                          rule id to {errors, warnings};
//!                          `rules_enabled` is the `--check-rules`
//!                          selection (every rule id by default)
//! crash            obj?    `--crash` ([`crate::crashtest`]):
//!                          {points_per_app, adversarial_seeds,
//!                           total_images, total_failures,
//!                           apps: [{name, ops, fence_events, points,
//!                           images, failures: [{at, progress, spec,
//!                           error}]}]}
//! serve            obj?    `--serve` ([`crate::serve`]):
//!                          {shards, arrival, load_fractions, models,
//!                           apps: [{name, shards, requests,
//!                           offered_rps, curves: [{model,
//!                           mean_service_ns, capacity_rps,
//!                           points: [{offered_rps, achieved_rps,
//!                           requests, p50_ns, p90_ns, p99_ns,
//!                           p999_ns, mean_wait_ns}]}]}]}
//! profile          obj?    `--profile` ([`crate::profile`]):
//!                          {shards, arrival, load_fractions, models,
//!                           apps: [{name, mechanisms: [{model,
//!                           queue_ns, replay_ns, fence_stall_ns,
//!                           service_ns, total_ns,
//!                           tail: [{load_fraction, offered_rps,
//!                           p99_ns, tail_requests, tail_total_ns,
//!                           queue_pct, replay_pct,
//!                           fence_stall_pct}]}]}]}
//! optimize         obj?    `--optimize` ([`crate::optimize`]):
//!                          {total_elided, crash_failures,
//!                           gates: {check_clean, crash_ok, violations},
//!                           apps: [{name, events: {before, after},
//!                           elided: {flushes, fences, rounds},
//!                           epochs: {before, after, mean_lines_before,
//!                           mean_lines_after}, check: {errors_before,
//!                           errors_after, residual_flagged},
//!                           speedup: {<model>: {base_ns, optimized_ns,
//!                           speedup}}}],
//!                           crash: [{name, planned_flushes,
//!                           planned_fences, elided_flushes,
//!                           elided_fences, flush_vetoes, fence_vetoes,
//!                           baseline_fences, fence_events, images,
//!                           failures}]}
//! hb               obj?    {graph: obj?, crossval: obj?}; `null` when
//!                          neither gate ran, and a gate that did not
//!                          run leaves its half `null`.
//!   hb.graph               `--check-graph` ([`crate::hbgraph`]):
//!                          {apps: [{name, threads, epochs, po_edges,
//!                           cross_edges, epochs_with_cross_dep,
//!                           max_antichain}], total_epochs,
//!                           total_cross_edges}
//!   hb.crossval            `--crossval` ([`crate::crossval`]):
//!                          {apps: [{name, points, images,
//!                           proven_lines, violations: [{at, spec,
//!                           lines}]}], control: {epoch_race_errors,
//!                           distinct_images, seeds, passed},
//!                           total_images, total_violations,
//!                           total_proven_lines, passed}
//! ```
//!
//! `obj?` is `null` unless its gate ran. The gate sections are
//! deterministic per run shape (serve, profile and optimize are on the
//! simulated clock), but only the [`DETERMINISTIC_KEYS`] — those that
//! depend on `(scale, seed)` alone — form the golden subset.
//!
//! Clock-domain rule (see `pmobs::span`): metric names under `sim.*`
//! are measured on the deterministic simulated clock and reproduce
//! bit-for-bit for a fixed seed; `span.*` and `suite.queue_wait_ns/*`
//! are host wall-clock and vary run to run.

use crate::driver::Gate::{self, Check, Crash, Crossval, Graph, Optimize, Profile, Serve};
use crate::report;
use crate::section::Section;
use crate::suite::{AppResult, SuiteConfig};
use memsim::MemStats;
use pmobs::metrics::HistogramSnapshot;
use pmobs::{Json, MetricsSnapshot};

/// Version stamp of the report layout documented above.
pub const SCHEMA_VERSION: u64 = 8;

/// A report value computed from the run.
pub type Value = fn(&[AppResult], &SuiteConfig, &MetricsSnapshot) -> Json;

/// What fills one key of the report.
#[derive(Clone, Copy)]
pub enum Fill {
    /// A paper figure: deterministic, and a table of the text report.
    Figure(fn(&[AppResult]) -> Section),
    /// A deterministic value that is not a figure.
    Det(Value),
    /// A value that depends on the host or the invocation.
    Run(Value),
    /// A gate's section: `null` until the gate fills it.
    Gate(Gate),
    /// The parent of the `key.*` sections: `null` until a gate fills one.
    Nest,
}

/// Every section of the report, in document order; `a.b` nests under
/// `a`. The text report prints the figures in this order too.
pub const SECTIONS: [(&str, Fill); 21] = [
    ("schema_version", Fill::Det(|_, _, _| SCHEMA_VERSION.into())),
    ("config", Fill::Run(config)),
    ("table1", Fill::Figure(report::table1)),
    ("fig3", Fill::Figure(report::fig3)),
    ("fig4", Fill::Figure(report::fig4)),
    ("fig5", Fill::Figure(report::fig5)),
    ("fig6", Fill::Figure(report::fig6)),
    ("fig10", Fill::Figure(report::fig10)),
    ("amplification", Fill::Figure(report::amplification)),
    ("nt_fraction", Fill::Figure(report::nt_fraction)),
    ("small_writes", Fill::Figure(report::small_writes)),
    ("totals", Fill::Det(totals)),
    ("metrics", Fill::Run(|_, _, metrics| metrics_json(metrics))),
    ("violations", Fill::Gate(Check)),
    ("crash", Fill::Gate(Crash)),
    ("serve", Fill::Gate(Serve)),
    ("profile", Fill::Gate(Profile)),
    ("optimize", Fill::Gate(Optimize)),
    ("hb", Fill::Nest),
    ("hb.graph", Fill::Gate(Graph)),
    ("hb.crossval", Fill::Gate(Crossval)),
];

/// Whether a section nests under another (`hb.graph`).
const fn nested(path: &str) -> bool {
    let mut i = 0;
    while i < path.len() && path.as_bytes()[i] != b'.' {
        i += 1;
    }
    i < path.len()
}

/// The top-level keys of [`SECTIONS`], in order — only the
/// deterministic ones if `det_only`.
const fn keys<const N: usize>(det_only: bool) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < SECTIONS.len() {
        let (key, fill) = SECTIONS[i];
        let det = matches!(fill, Fill::Figure(_) | Fill::Det(_));
        if !nested(key) && (det || !det_only) {
            out[n] = key;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "key count");
    out
}

/// The top-level keys every version-8 document carries, in order.
pub const REQUIRED_KEYS: [&str; 19] = keys(false);

/// The keys of the *deterministic* sections of the report: everything
/// that depends only on `(scale, seed)` and therefore reproduces
/// byte-for-byte across runs, hosts, and parallelism settings. Left out
/// are `config` (the host-dependent worker count), `metrics` (host
/// wall-clock histograms), and the gate sections (deterministic but
/// sweep-dependent, with their own gates). The golden-report
/// equivalence gate (`tests/golden_report.rs`, CI) compares exactly
/// these sections.
pub const DETERMINISTIC_KEYS: [&str; 11] = keys(true);

/// The paper figures, in report order.
pub(crate) fn figures() -> impl Iterator<Item = fn(&[AppResult]) -> Section> {
    SECTIONS.iter().filter_map(|(_, fill)| match fill {
        Fill::Figure(figure) => Some(*figure),
        _ => None,
    })
}

/// The section `gate` fills.
pub(crate) fn gate_section(gate: Gate) -> &'static str {
    SECTIONS
        .iter()
        .find(|(_, fill)| matches!(fill, Fill::Gate(g) if *g == gate))
        .map(|(key, _)| *key)
        .expect("every gate fills a section")
}

fn config(results: &[AppResult], cfg: &SuiteConfig, _: &MetricsSnapshot) -> Json {
    let mut effective_ops = Json::obj();
    for r in results {
        // Archive replays and other synthetic rows have no op base.
        if let Some(ops) = cfg.effective_ops(&r.run.name) {
            effective_ops = effective_ops.field(&r.run.name, ops as u64);
        }
    }
    Json::obj()
        .field("scale", cfg.scale)
        .field("seed", cfg.seed)
        .field("parallelism", cfg.parallelism as u64)
        .field("worker_threads", u64::from(cfg.worker_threads))
        .field("effective_ops", effective_ops)
}

fn totals(results: &[AppResult], _: &SuiteConfig, _: &MetricsSnapshot) -> Json {
    let mut t = MemStats::default();
    for r in results {
        t.merge(&r.run.stats);
    }
    Json::obj()
        .field("dram_accesses", t.dram_accesses)
        .field("pm_reads", t.pm_reads)
        .field("pm_writes", t.pm_writes)
        .field("pm_fraction", t.pm_fraction())
        .field("pm_read_fraction", t.pm_read_fraction())
        .field("pm_write_fraction", t.pm_write_fraction())
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::obj()
        .field("unit", h.unit.as_str())
        .field("count", h.count)
        .field("sum", h.sum)
        .field("min", h.min)
        .field("max", h.max)
        .field("mean", h.mean())
        .field("p50", h.percentile(50.0))
        .field("p90", h.percentile(90.0))
        .field("p99", h.percentile(99.0))
        .field("p999", h.percentile(99.9))
}

/// Serialize a [`MetricsSnapshot`]; empty objects when nothing was
/// recorded (recording off).
pub fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let mut counters = Json::obj();
    for (name, v) in &snap.counters {
        counters = counters.field(name, *v);
    }
    let mut gauges = Json::obj();
    for (name, v) in &snap.gauges {
        gauges = gauges.field(name, *v);
    }
    let mut histograms = Json::obj();
    for (name, h) in &snap.histograms {
        histograms = histograms.field(name, histogram_json(h));
    }
    Json::obj()
        .field("counters", counters)
        .field("gauges", gauges)
        .field("histograms", histograms)
}

/// The report document with every gate section `null` (the plain-run
/// shape).
pub fn build(results: &[AppResult], cfg: &SuiteConfig, metrics: &MetricsSnapshot) -> Json {
    SECTIONS
        .iter()
        .fold(Json::obj(), |doc, (key, fill)| match fill {
            Fill::Figure(figure) => doc.field(key, figure(results).json()),
            Fill::Det(value) | Fill::Run(value) => doc.field(key, value(results, cfg, metrics)),
            Fill::Gate(_) | Fill::Nest if nested(key) => doc,
            Fill::Gate(_) | Fill::Nest => doc.field(key, Json::Null),
        })
}

/// [`build`] with the `violations` section filled when the run was
/// checked (`--check`): `checks` is the per-app pmcheck outcome, under
/// the rule selection `rules`.
pub fn build_checked(
    results: &[AppResult],
    cfg: &SuiteConfig,
    metrics: &MetricsSnapshot,
    checks: Option<&[crate::check::AppCheck]>,
    rules: pmcheck::RuleSet,
) -> Json {
    let doc = build(results, cfg, metrics);
    match checks {
        Some(c) => place(doc, &crate::check::section(c, rules)),
        None => doc,
    }
}

/// Place a gate's section in the report. Every section already exists
/// as `null` in [`build`]'s document (which owns the key order); a
/// nested section's parent lists all its siblings, `null` until their
/// gates fill them.
pub(crate) fn place(doc: Json, section: &Section) -> Json {
    let json = section.json();
    let Some((parent, child)) = section.id.split_once('.') else {
        return doc.field(section.id, json);
    };
    let siblings = match doc.get(parent) {
        Some(filled @ Json::Obj(_)) => filled.clone(),
        _ => SECTIONS
            .iter()
            .filter_map(|(key, _)| key.strip_prefix(parent)?.strip_prefix('.'))
            .fold(Json::obj(), |obj, key| obj.field(key, Json::Null)),
    };
    doc.field(parent, siblings.field(child, json))
}

/// Project the deterministic sections ([`DETERMINISTIC_KEYS`]) out of a
/// full report document, preserving key order.
pub fn deterministic_subset(doc: &Json) -> Json {
    let mut out = Json::obj();
    for key in DETERMINISTIC_KEYS {
        if let Some(v) = doc.get(key) {
            out = out.field(key, v.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_apps, SuiteConfig};

    #[test]
    fn report_round_trips_and_has_every_key() {
        let cfg = SuiteConfig {
            scale: 0.008,
            seed: 7,
            parallelism: 1,
            worker_threads: 4,
        };
        let results = run_apps(&["hashmap", "nfs"], &cfg);
        let doc = build(&results, &cfg, &MetricsSnapshot::default());
        for key in REQUIRED_KEYS {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let parsed = pmobs::json::parse(&doc.to_pretty()).expect("pretty output parses");
        // Integral floats normalize to integers on parse, so compare
        // the re-encoded parsed form with itself round-tripped.
        let again = pmobs::json::parse(&parsed.to_compact()).expect("compact output parses");
        assert_eq!(again, parsed);
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(
            doc.get("violations"),
            Some(&Json::Null),
            "unchecked runs carry violations: null"
        );
        assert_eq!(
            doc.get("crash"),
            Some(&Json::Null),
            "non-campaign runs carry crash: null"
        );
        assert_eq!(
            doc.get("serve"),
            Some(&Json::Null),
            "non-serving runs carry serve: null"
        );
        assert_eq!(
            doc.get("profile"),
            Some(&Json::Null),
            "unprofiled runs carry profile: null"
        );
        assert_eq!(
            doc.get("optimize"),
            Some(&Json::Null),
            "unoptimized runs carry optimize: null"
        );
        assert_eq!(
            doc.get("hb"),
            Some(&Json::Null),
            "runs without --check-graph/--crossval carry hb: null"
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("effective_ops"))
                .and_then(|e| e.get("nfs"))
                .and_then(Json::as_f64),
            Some(32.0),
            "nfs base 4000 at scale 0.008 = 32 effective ops"
        );
        assert_eq!(
            parsed
                .get("table1")
                .and_then(|t| t.as_arr())
                .map(<[Json]>::len),
            Some(2)
        );
        // hashmap is a gem5-subset app, so fig6/fig10 have one row each.
        let fig6_apps = parsed.get("fig6").and_then(|f| f.get("apps")).unwrap();
        assert_eq!(fig6_apps.as_arr().unwrap().len(), 1);
        let fig10_apps = parsed.get("fig10").and_then(|f| f.get("apps")).unwrap();
        assert_eq!(fig10_apps.as_arr().unwrap().len(), 1);
    }

    #[test]
    fn nested_sections_list_their_siblings() {
        let section = |id| Section::new(id, "").rows_in("apps");
        let doc = Json::obj()
            .field("hb", Json::Null)
            .field("crash", Json::Null);
        let doc = place(doc, &section("hb.crossval"));
        assert_eq!(
            doc.to_compact(),
            r#"{"hb":{"graph":null,"crossval":{"apps":[]}},"crash":null}"#
        );
        let doc = place(doc, &section("hb.graph"));
        let doc = place(doc, &Section::new("crash", ""));
        assert_eq!(
            doc.to_compact(),
            r#"{"hb":{"graph":{"apps":[]},"crossval":{"apps":[]}},"crash":[]}"#
        );
    }

    #[test]
    fn every_gate_fills_one_section() {
        let gates = [
            (Serve, "serve"),
            (Profile, "profile"),
            (Check, "violations"),
            (Graph, "hb.graph"),
            (Crash, "crash"),
            (Crossval, "hb.crossval"),
            (Optimize, "optimize"),
        ];
        for (gate, section) in gates {
            assert_eq!(gate_section(gate), section);
        }
        assert_eq!(REQUIRED_KEYS.len(), 19);
        assert_eq!(DETERMINISTIC_KEYS[0], "schema_version");
        assert_eq!(DETERMINISTIC_KEYS[10], "totals");
    }

    #[test]
    fn checked_build_fills_violations() {
        let cfg = SuiteConfig {
            scale: 0.008,
            seed: 7,
            parallelism: 1,
            worker_threads: 4,
        };
        let results = run_apps(&["exim"], &cfg);
        let checks = crate::check::check_results(&results);
        let doc = build_checked(
            &results,
            &cfg,
            &MetricsSnapshot::default(),
            Some(&checks),
            pmcheck::RuleSet::all(),
        );
        let v = doc.get("violations").expect("violations present");
        assert_eq!(v.get("checked_apps").and_then(Json::as_f64), Some(1.0));
        assert!(v.get("apps").and_then(|a| a.as_arr()).is_some());
        // The deterministic subset ignores checking and crash sweeps
        // entirely, so the golden gate is unaffected by --check/--crash.
        assert!(deterministic_subset(&doc).get("violations").is_none());
        assert!(deterministic_subset(&doc).get("crash").is_none());
        assert!(deterministic_subset(&doc).get("serve").is_none());
        assert!(deterministic_subset(&doc).get("profile").is_none());
        assert!(deterministic_subset(&doc).get("optimize").is_none());
        assert!(deterministic_subset(&doc).get("hb").is_none());
        assert!(deterministic_subset(&doc).get("config").is_none());
    }

    #[test]
    fn metrics_json_reflects_snapshot() {
        let reg = pmobs::Registry::new();
        reg.counter("a.count").add(3);
        reg.gauge("a.high").observe(9);
        reg.histogram("a.hist", pmobs::Unit::Nanos).record(100);
        let doc = metrics_json(&reg.snapshot());
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("a.high"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
        let h = doc.get("histograms").and_then(|h| h.get("a.hist")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(h.get("unit").and_then(|v| v.as_str()), Some("ns"));
    }

    #[test]
    fn metrics_dump_keys_are_sorted() {
        let reg = pmobs::Registry::new();
        // Insert in deliberately unsorted order; the snapshot's BTreeMaps
        // must pin the dump to lexicographic key order regardless.
        for name in ["z.last", "a.first", "m.middle"] {
            reg.counter(name).add(1);
            reg.gauge(name).observe(1);
            reg.histogram(name, pmobs::Unit::Nanos).record(1);
        }
        let doc = metrics_json(&reg.snapshot());
        for section in ["counters", "gauges", "histograms"] {
            let Some(Json::Obj(fields)) = doc.get(section) else {
                panic!("{section} missing or not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{section} keys not sorted");
        }
    }

    /// Every object that reports a p50 percentile must also report p999
    /// (same suffix convention: `p50` pairs with `p999`, `p50_ns` with
    /// `p999_ns`) — pins the "p999 everywhere p50/p90/p99 appear" rule.
    fn assert_p999_accompanies_p50(doc: &Json, path: &str) {
        if let Json::Obj(fields) = doc {
            for suffix in ["", "_ns"] {
                let p50 = format!("p50{suffix}");
                let p999 = format!("p999{suffix}");
                if fields.iter().any(|(k, _)| *k == p50) {
                    assert!(
                        fields.iter().any(|(k, _)| *k == p999),
                        "{path}: has {p50} but no {p999}"
                    );
                }
            }
        }
        match doc {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    assert_p999_accompanies_p50(v, &format!("{path}.{k}"));
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    assert_p999_accompanies_p50(v, &format!("{path}[{i}]"));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn p999_emitted_wherever_p50_appears() {
        let cfg = SuiteConfig {
            scale: 0.008,
            seed: 7,
            parallelism: 1,
            worker_threads: 4,
        };
        let results = run_apps(&["hashmap"], &cfg);
        let reg = pmobs::Registry::new();
        reg.histogram("walk.hist", pmobs::Unit::Nanos).record(42);
        let doc = build(&results, &cfg, &reg.snapshot());
        assert_p999_accompanies_p50(&doc, "report");
        // And the rule holds vacuously only if p50 appears at all.
        assert!(
            doc.to_compact().contains("\"p50\""),
            "test lost its teeth: no p50 in the document"
        );
    }

    #[test]
    fn empty_snapshot_serializes_to_empty_objects() {
        let doc = metrics_json(&MetricsSnapshot::default());
        assert_eq!(
            doc.to_compact(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }
}
