//! Machine-readable suite report (`whisper-report --json`).
//!
//! One versioned JSON document bundling everything the text report
//! shows — Table 1, Figures 3–6 and 10, the Section 5.2 byte
//! accounting — plus the suite-wide [`MemStats`] totals and a dump of
//! the [`pmobs`] metrics registry. The encoder is
//! [`pmobs::json`]; no external serialization crate is involved.
//!
//! # Schema (version 8)
//!
//! Version 8 = version 7 plus `config.worker_threads` (the scheduler
//! client count inside the interleaved applications, the `--threads`
//! flag). Version 7 = version 6 plus the `hb` section (`null` unless the run
//! built epoch dependency graphs with `--check-graph` or
//! cross-validated the HB analysis with `--crossval`) and
//! `rules_enabled` inside `violations`; every v6 key is otherwise
//! unchanged. Version 6 = version 5 plus the `optimize` section
//! (`null` unless the run swept the ordering optimizer with
//! `whisper-report --optimize`); every v5 key is otherwise unchanged.
//! Version 5 =
//! version 4 plus the `profile` section (`null` unless the
//! run profiled the serving sweep with `whisper-report --profile`);
//! every v4 key is otherwise unchanged. Version 4 = version 3 plus the
//! `serve` section (`null` unless the run swept the open-loop serving
//! engine with `whisper-report --serve`) and `p999` in every metrics
//! histogram. Version 3 = version 2 plus the `crash` section and
//! `config.effective_ops`. Version 2 = version 1 plus `violations`.
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
//!                          (gem5-subset apps only)
//! fig10            obj     {models, apps: [{name, normalized}],
//!                           average, paper_average}
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
//! violations       obj?    pmcheck results (`crate::check`):
//!                          {checked_apps, rules_enabled,
//!                           total_errors, total_warnings, by_rule,
//!                           apps: [{name, events,
//!                           errors, warnings, by_rule, findings,
//!                           findings_truncated}]}. `null` when the
//!                          run was not checked. `rules_enabled` lists
//!                          the `--check-rules` selection the check
//!                          ran under (all rule ids by default).
//! crash            obj?    crash-campaign results
//!                          (`crate::crashtest::crash_json`):
//!                          {points_per_app, adversarial_seeds,
//!                           total_images, total_failures,
//!                           apps: [{name, ops, fence_events, points,
//!                           images, failures}]}. `null` when the run
//!                          did not sweep the campaign.
//! serve            obj?    open-loop serving sweep
//!                          (`crate::serve::serve_json`):
//!                          {shards, arrival, load_fractions, models,
//!                           apps: [{name, shards, requests,
//!                           offered_rps, curves: [{model,
//!                           mean_service_ns, capacity_rps,
//!                           points: [{offered_rps, achieved_rps,
//!                           requests, p50_ns, p90_ns, p99_ns,
//!                           p999_ns, mean_wait_ns}]}]}]}. All on the
//!                          simulated clock — deterministic per
//!                          (scale, seed, shards, arrival), but
//!                          outside the golden deterministic subset,
//!                          like `crash`. `null` when the run did not
//!                          sweep the serving engine.
//! profile          obj?    phase profile of the serving sweep
//!                          (`crate::profile::profile_json`):
//!                          {shards, arrival, load_fractions, models,
//!                           apps: [{name, mechanisms: [{model,
//!                           queue_ns, replay_ns, fence_stall_ns,
//!                           service_ns, total_ns,
//!                           tail: [{load_fraction, offered_rps,
//!                           p99_ns, tail_requests, tail_total_ns,
//!                           queue_pct, replay_pct,
//!                           fence_stall_pct}]}]}]}. Simulated clock
//!                          only, deterministic like `serve`; `null`
//!                          when the run was not profiled.
//! optimize         obj?    ordering-optimizer results
//!                          (`crate::optimize::optimize_json`):
//!                          {total_elided, crash_failures,
//!                           gates: {check_clean, crash_ok, violations},
//!                           apps: [{name, events, elided, epochs,
//!                           check, speedup}],
//!                           crash: [{name, planned_flushes,
//!                           planned_fences, elided_flushes,
//!                           elided_fences, flush_vetoes, fence_vetoes,
//!                           baseline_fences, fence_events, images,
//!                           failures}]}. Simulated clock only,
//!                          deterministic like `serve`; `null` when the
//!                          run did not sweep the optimizer.
//! hb               obj?    happens-before analysis artifacts:
//!                          {graph: obj?, crossval: obj?}. `graph`
//!                          (`crate::hbgraph::stats_json`) carries the
//!                          per-app epoch dependency statistics
//!                          {apps: [{name, threads, epochs, po_edges,
//!                           cross_edges, epochs_with_cross_dep,
//!                           max_antichain}], total_epochs,
//!                           total_cross_edges} when the run passed
//!                          `--check-graph`, else `null`. `crossval`
//!                          (`crate::crossval`) carries the
//!                          HB-vs-crash-image gate {apps: [{name,
//!                           points, images, proven_lines,
//!                           violations}], control, total_images,
//!                           total_violations, total_proven_lines,
//!                           passed} when the run passed `--crossval`,
//!                          else `null`. The whole section is `null`
//!                          when neither flag was given.
//! ```
//!
//! Clock-domain rule (see `pmobs::span`): metric names under `sim.*`
//! are measured on the deterministic simulated clock and reproduce
//! bit-for-bit for a fixed seed; `span.*` and `suite.queue_wait_ns/*`
//! are host wall-clock and vary run to run.

use crate::report::{PAPER_FIG10_AVG, PAPER_FIG6_AVG_PCT};
use crate::suite::{AppResult, SuiteConfig};
use memsim::MemStats;
use pmobs::metrics::HistogramSnapshot;
use pmobs::{Json, MetricsSnapshot};
use pmtrace::analysis::SIZE_BUCKET_LABELS;
use pmtrace::Category;

/// Version stamp of the report layout documented above.
pub const SCHEMA_VERSION: u64 = 8;

fn f64s(values: impl IntoIterator<Item = f64>) -> Vec<Json> {
    values.into_iter().map(Json::from).collect()
}

fn table1(results: &[AppResult]) -> Json {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("workload", r.run.workload.as_str())
                .field("threads", r.run.threads)
                .field("epochs", r.analysis.epoch_count as u64)
                .field("duration_ns", r.run.duration_ns)
                .field("epochs_per_sec", r.analysis.epochs_per_sec)
                .field(
                    "paper_epochs_per_sec",
                    r.app().map(|app| app.paper.epochs_per_sec),
                )
        })
        .collect();
    Json::from(rows)
}

fn fig3(results: &[AppResult]) -> Json {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            let t = &r.analysis.tx_stats;
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("median", t.median())
                .field("mean", t.mean())
                .field("max", t.max())
                .field("tx_count", t.tx_count() as u64)
                .field("paper_median", r.app().map(|app| app.paper.fig3_median))
        })
        .collect();
    Json::from(rows)
}

fn fig4(results: &[AppResult]) -> Json {
    let labels: Vec<Json> = SIZE_BUCKET_LABELS.iter().map(|l| Json::from(*l)).collect();
    let apps: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("fractions", f64s(r.analysis.size_hist.fractions()))
        })
        .collect();
    Json::obj()
        .field("bucket_labels", labels)
        .field("apps", apps)
}

fn fig5(results: &[AppResult]) -> Json {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            let p = r.app().map(|app| app.paper);
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("self_pct", r.analysis.deps.self_fraction() * 100.0)
                .field("cross_pct", r.analysis.deps.cross_fraction() * 100.0)
                .field("paper_self_pct", p.map(|p| p.fig5_self_pct))
                .field("paper_cross_pct", p.map(|p| p.fig5_cross_pct))
        })
        .collect();
    Json::from(rows)
}

fn fig6(results: &[AppResult]) -> Json {
    let sim: Vec<&AppResult> = results.iter().filter(|r| r.is_sim()).collect();
    let apps: Vec<Json> = sim
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("pm_pct", r.analysis.pm_fraction * 100.0)
                .field(
                    "paper_pm_pct",
                    r.app().and_then(|app| app.paper.fig6_pm_pct),
                )
        })
        .collect();
    let average = if sim.is_empty() {
        Json::Null
    } else {
        Json::from(
            sim.iter()
                .map(|r| r.analysis.pm_fraction * 100.0)
                .sum::<f64>()
                / sim.len() as f64,
        )
    };
    Json::obj()
        .field("apps", apps)
        .field("average_pm_pct", average)
        .field("paper_average_pm_pct", PAPER_FIG6_AVG_PCT)
}

fn fig10(results: &[AppResult]) -> Json {
    let models: Vec<Json> = PAPER_FIG10_AVG
        .iter()
        .map(|(m, _)| Json::from(m.to_string()))
        .collect();
    let sim: Vec<&AppResult> = results
        .iter()
        .filter(|r| r.is_sim() && !r.analysis.fig10.is_empty())
        .collect();
    let apps: Vec<Json> = sim
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("normalized", f64s(r.analysis.fig10.iter().map(|(_, v)| *v)))
        })
        .collect();
    let average = if sim.is_empty() {
        Json::from(Vec::new())
    } else {
        f64s(
            (0..PAPER_FIG10_AVG.len())
                .map(|i| sim.iter().map(|r| r.analysis.fig10[i].1).sum::<f64>() / sim.len() as f64),
        )
        .into()
    };
    Json::obj()
        .field("models", models)
        .field("apps", apps)
        .field("average", average)
        .field(
            "paper_average",
            f64s(PAPER_FIG10_AVG.iter().map(|(_, v)| *v)),
        )
}

fn amplification(results: &[AppResult]) -> Json {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            let a = &r.analysis.amplification;
            let mut by_cat = Json::obj();
            for cat in Category::ALL {
                by_cat = by_cat.field(&cat.to_string(), a.bytes(cat));
            }
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("amplification", a.amplification())
                .field("user_bytes", a.user_bytes())
                .field("overhead_bytes", a.overhead_bytes())
                .field("bytes_by_category", by_cat)
        })
        .collect();
    Json::from(rows)
}

fn fraction_rows(results: &[AppResult], pick: impl Fn(&AppResult) -> Option<f64>) -> Json {
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.run.name.as_str())
                .field("fraction", pick(r))
        })
        .collect();
    Json::from(rows)
}

fn totals(results: &[AppResult]) -> Json {
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

/// Assemble the full schema-version-8 report document. `checks` is the
/// per-app pmcheck outcome when the run was checked (`--check`), with
/// the rule selection it ran under; the `violations` key serializes as
/// `null` otherwise.
pub fn build_checked(
    results: &[AppResult],
    cfg: &SuiteConfig,
    metrics: &MetricsSnapshot,
    checks: Option<&[crate::check::AppCheck]>,
    rules: pmcheck::RuleSet,
) -> Json {
    build(results, cfg, metrics).field(
        "violations",
        match checks {
            Some(c) => crate::check::violations_json(c, rules),
            None => Json::Null,
        },
    )
}

/// Assemble the report document without the optional
/// `violations`/`crash`/`serve`/`profile`/`optimize`/`hb` sections
/// (the plain-run shape: all six `null`).
pub fn build(results: &[AppResult], cfg: &SuiteConfig, metrics: &MetricsSnapshot) -> Json {
    let mut effective_ops = Json::obj();
    for r in results {
        // Archive replays and other synthetic rows have no op base.
        if let Some(ops) = cfg.effective_ops(&r.run.name) {
            effective_ops = effective_ops.field(&r.run.name, ops as u64);
        }
    }
    Json::obj()
        .field("schema_version", SCHEMA_VERSION)
        .field(
            "config",
            Json::obj()
                .field("scale", cfg.scale)
                .field("seed", cfg.seed)
                .field("parallelism", cfg.parallelism as u64)
                .field("worker_threads", u64::from(cfg.worker_threads))
                .field("effective_ops", effective_ops),
        )
        .field("table1", table1(results))
        .field("fig3", fig3(results))
        .field("fig4", fig4(results))
        .field("fig5", fig5(results))
        .field("fig6", fig6(results))
        .field("fig10", fig10(results))
        .field("amplification", amplification(results))
        .field(
            "nt_fraction",
            fraction_rows(results, |r| r.analysis.nt_fraction),
        )
        .field(
            "small_writes",
            fraction_rows(results, |r| r.analysis.small_singleton_fraction),
        )
        .field("totals", totals(results))
        .field("metrics", metrics_json(metrics))
        .field("violations", Json::Null)
        .field("crash", Json::Null)
        .field("serve", Json::Null)
        .field("profile", Json::Null)
        .field("optimize", Json::Null)
        .field("hb", Json::Null)
}

/// The keys of the *deterministic* sections of the report: everything
/// that depends only on `(scale, seed)` and therefore reproduces
/// byte-for-byte across runs, hosts, and parallelism settings. Excluded
/// are `config` (carries the host-dependent worker count), `metrics`
/// (host wall-clock histograms), and the optional `violations`/`crash`/
/// `serve`/`profile`/`optimize` sections (deterministic but
/// sweep-dependent — they have their own gates). The golden-report equivalence gate
/// (`tests/golden_report.rs`, CI) compares exactly these sections, so
/// any hot-path change to the simulator that perturbs results is caught
/// mechanically.
pub const DETERMINISTIC_KEYS: [&str; 11] = [
    "schema_version",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig10",
    "amplification",
    "nt_fraction",
    "small_writes",
    "totals",
];

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

/// The top-level keys every version-8 document carries, in order —
/// shared between [`build`], the tests, and CI validation.
pub const REQUIRED_KEYS: [&str; 19] = [
    "schema_version",
    "config",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig10",
    "amplification",
    "nt_fraction",
    "small_writes",
    "totals",
    "metrics",
    "violations",
    "crash",
    "serve",
    "profile",
    "optimize",
    "hb",
];

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
