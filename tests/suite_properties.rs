//! Cross-application properties: the paper's headline observations
//! must hold on the suite as a whole, not just per module.
//!
//! These run every application at a reduced scale, so this file is the
//! slowest in the test suite — but it is the one that checks WHISPER's
//! abstract (a)–(d) claims end to end.

use pmtrace::analysis;
use whisper::suite::{run_app, AppResult, SuiteConfig, APP_NAMES, SIM_APPS};

fn results() -> Vec<AppResult> {
    let cfg = SuiteConfig {
        scale: 0.02,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    APP_NAMES.iter().map(|n| run_app(n, &cfg)).collect()
}

/// Redis's workers share one hash table and backlog queue, so its
/// cross-dependencies are common by construction (EXPERIMENTS.md
/// deviation 6) from the second worker on; at one worker the paper's
/// single-threaded redis, and its zero cross share, return.
#[test]
fn redis_cross_deps_follow_worker_count() {
    let cross_dep_epochs = |worker_threads| {
        let cfg = SuiteConfig {
            scale: 0.02,
            seed: 42,
            parallelism: 1,
            worker_threads,
        };
        run_app("redis", &cfg).analysis.deps.cross_dep_epochs
    };
    assert_eq!(cross_dep_epochs(1), 0, "one worker");
    for workers in [2, 4] {
        assert!(cross_dep_epochs(workers) > 0, "{workers} workers");
    }
}

#[test]
fn suite_wide_paper_claims() {
    let results = results();

    // Abstract (a): "only 4% of writes in PM-aware applications are to
    // PM and the rest are to volatile memory" — over the simulated
    // subset, PM is a small minority of traffic.
    let sim: Vec<&AppResult> = results
        .iter()
        .filter(|r| SIM_APPS.contains(&r.run.name.as_str()))
        .collect();
    let avg_pm: f64 = sim.iter().map(|r| r.analysis.pm_fraction).sum::<f64>() / sim.len() as f64;
    assert!(
        avg_pm > 0.005 && avg_pm < 0.12,
        "average PM share {avg_pm} should be a few percent"
    );

    // Abstract (b): "software transactions are often implemented with
    // 5 to 50 ordering points" — the cross-suite median of medians
    // falls in that band, with echo/TPC-C "well over a hundred".
    let mut medians: Vec<u64> = results
        .iter()
        .filter_map(|r| r.analysis.tx_stats.median())
        .collect();
    medians.sort_unstable();
    let mid = medians[medians.len() / 2];
    assert!((5..=50).contains(&mid), "median tx size {mid} outside 5-50");
    let echo = results
        .iter()
        .find(|r| r.run.name == "echo")
        .expect("echo ran");
    let tpcc = results
        .iter()
        .find(|r| r.run.name == "nstore-tpcc")
        .expect("tpcc ran");
    assert!(
        echo.analysis.tx_stats.median().unwrap() > 100,
        "echo well over a hundred"
    );
    assert!(
        tpcc.analysis.tx_stats.median().unwrap() > 100,
        "tpcc well over a hundred"
    );

    // Abstract (c): "75% of epochs update exactly one 64B cache line"
    // — the native+library average is singleton-dominated.
    let native_lib: Vec<&AppResult> = results
        .iter()
        .filter(|r| !matches!(r.run.name.as_str(), "nfs" | "exim" | "mysql"))
        .collect();
    let avg_singleton: f64 = native_lib
        .iter()
        .map(|r| r.analysis.size_hist.singleton_fraction())
        .sum::<f64>()
        / native_lib.len() as f64;
    assert!(
        avg_singleton > 0.55,
        "native/library singleton average {avg_singleton} too low"
    );

    // Abstract (d): self-dependencies abundant, cross-dependencies
    // rare. The deliberate exception is the interleaved redis port,
    // whose cross-dependencies follow the worker count
    // (`redis_cross_deps_follow_worker_count`).
    for r in results.iter().filter(|r| r.run.name != "redis") {
        assert!(
            r.analysis.deps.cross_fraction() < 0.25,
            "{}: cross-deps {} should be rare",
            r.run.name,
            r.analysis.deps.cross_fraction()
        );
    }
    let paper_faithful: Vec<&AppResult> =
        results.iter().filter(|r| r.run.name != "redis").collect();
    let avg_self: f64 = paper_faithful
        .iter()
        .map(|r| r.analysis.deps.self_fraction())
        .sum::<f64>()
        / paper_faithful.len() as f64;
    let avg_cross: f64 = paper_faithful
        .iter()
        .map(|r| r.analysis.deps.cross_fraction())
        .sum::<f64>()
        / paper_faithful.len() as f64;
    assert!(
        avg_self > 10.0 * avg_cross,
        "self-deps ({avg_self}) should dominate cross-deps ({avg_cross})"
    );

    // MySQL has the suite's lowest self-dependency share (Figure 5).
    let mysql_self = results
        .iter()
        .find(|r| r.run.name == "mysql")
        .expect("mysql ran")
        .analysis
        .deps
        .self_fraction();
    for r in &results {
        if r.run.name != "mysql" {
            assert!(
                r.analysis.deps.self_fraction() >= mysql_self * 0.9,
                "{} self-deps below mysql's",
                r.run.name
            );
        }
    }

    // Table 1's rate spread: native/library apps are orders of
    // magnitude faster than Exim.
    let exim = results
        .iter()
        .find(|r| r.run.name == "exim")
        .expect("exim ran");
    for r in &results {
        if matches!(
            r.run.name.as_str(),
            "echo" | "nstore-ycsb" | "redis" | "hashmap"
        ) {
            assert!(
                r.analysis.epochs_per_sec > 50.0 * exim.analysis.epochs_per_sec,
                "{} vs exim rate spread collapsed",
                r.run.name
            );
        }
    }

    // Figure 10, per application: IDEAL is the floor, and HOPS(NVM)
    // beats x86(NVM) on every row but redis, whose interleaved
    // log-free dict leaves almost no persistence cost on the trace
    // (EXPERIMENTS.md deviation 6; 1.016 here, 1.0152 in the golden).
    // On the others x86(PWQ) beats x86(NVM) and HOPS(NVM) beats
    // x86(PWQ) — "more importantly, outperforms the x86-64
    // implementation with PWQ".
    let mut not_faster = Vec::new();
    for r in &sim {
        let get = |idx: usize| r.analysis.fig10[idx].1;
        let (x86, pwq, hops, hops_pwq, ideal) = (get(0), get(1), get(2), get(3), get(4));
        assert!((x86 - 1.0).abs() < 1e-9, "{}", r.run.name);
        let floor = pwq.min(hops).min(hops_pwq);
        assert!(ideal <= floor + 1e-9, "{}: IDEAL is the floor", r.run.name);
        if hops >= x86 {
            not_faster.push(r.run.name.as_str());
            continue;
        }
        assert!(pwq < x86, "{}: PWQ should help x86", r.run.name);
        assert!(hops < pwq, "{}: HOPS(NVM) should beat x86(PWQ)", r.run.name);
        assert!(hops_pwq <= hops, "{}", r.run.name);
    }
    assert_eq!(
        not_faster,
        ["redis"],
        "redis alone is not faster under HOPS(NVM)"
    );

    // Consequence 10 shape: PMFS apps are NT-dominated; Mnemosyne apps
    // substantially NT; NVML/undo apps are cacheable.
    let nt = |name: &str| {
        results
            .iter()
            .find(|r| r.run.name == name)
            .and_then(|r| r.analysis.nt_fraction)
            .unwrap_or(0.0)
    };
    assert!(nt("nfs") > 0.8, "PMFS is NT-dominated: {}", nt("nfs"));
    assert!(nt("vacation") > 0.4, "Mnemosyne uses NTIs for its redo log");
    assert!(nt("redis") < 0.05, "NVML-style undo logging is cacheable");
}

#[test]
fn deterministic_across_runs() {
    let cfg = SuiteConfig {
        scale: 0.01,
        seed: 7,
        parallelism: 1,
        worker_threads: 4,
    };
    let a = run_app("hashmap", &cfg);
    let b = run_app("hashmap", &cfg);
    assert_eq!(a.run.events.len(), b.run.events.len());
    assert_eq!(a.run.stats, b.run.stats);
    assert_eq!(a.run.duration_ns, b.run.duration_ns);
}

#[test]
fn different_seeds_differ() {
    // Two seeds can legitimately produce the same *number* of events;
    // what must differ is the event stream itself (and, with it, the
    // access statistics).
    let a = run_app(
        "hashmap",
        &SuiteConfig {
            scale: 0.01,
            seed: 1,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    let b = run_app(
        "hashmap",
        &SuiteConfig {
            scale: 0.01,
            seed: 2,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    assert_ne!(
        a.run.events, b.run.events,
        "seeds 1 and 2 produced identical traces"
    );
    assert!(
        a.run.stats != b.run.stats || a.run.duration_ns != b.run.duration_ns,
        "seeds 1 and 2 produced identical run statistics"
    );
}

#[test]
fn parallel_suite_matches_serial_runner() {
    // The parallel runner must be a pure wall-clock optimization:
    // per-app traces, access statistics, and simulated durations all
    // bit-identical to the serial runner, in the same (Table 1) order.
    let serial_cfg = SuiteConfig {
        scale: 0.008,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    let parallel_cfg = SuiteConfig {
        parallelism: 4,
        worker_threads: 4,
        ..serial_cfg
    };
    let serial = whisper::suite::run_suite(&serial_cfg);
    let parallel = whisper::suite::run_suite(&parallel_cfg);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.run.name, p.run.name, "result order must be Table 1 order");
        assert_eq!(s.run.events.len(), p.run.events.len(), "{}", s.run.name);
        assert_eq!(s.run.stats, p.run.stats, "{}", s.run.name);
        assert_eq!(s.run.duration_ns, p.run.duration_ns, "{}", s.run.name);
        assert_eq!(s.run.events, p.run.events, "{}", s.run.name);
        assert_eq!(
            s.analysis.epoch_count, p.analysis.epoch_count,
            "{}",
            s.run.name
        );
        assert_eq!(s.analysis.fig10, p.analysis.fig10, "{}", s.run.name);
    }
}

#[test]
fn streaming_analyzer_matches_legacy_functions_on_real_trace() {
    // On every real application trace, not just synthetic streams: the
    // streaming Analyzer must agree field by field with a fold over the
    // collected epochs, and with the independent NT and small-singleton
    // fractions; and every epoch it is lent must hold its lines in
    // strictly ascending order (sorted, no duplicate).
    let cfg = SuiteConfig {
        scale: 0.01,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    for name in APP_NAMES {
        let r = run_app(name, &cfg);
        let epochs = analysis::split_epochs(&r.run.events);
        for e in &epochs {
            assert!(
                e.lines.windows(2).all(|w| w[0] < w[1]),
                "{name}: epoch {}/{} lines out of order",
                e.tid,
                e.index
            );
        }
        let report = analysis::Analyzer::analyze_events(&r.run.events);
        let folded = analysis::Analyzer::analyze_epochs(&epochs);
        assert_eq!(report.epoch_count, epochs.len(), "{name}");
        assert_eq!(report.epoch_count, folded.epoch_count, "{name}");
        assert_eq!(
            report.tx_stats.epochs_per_tx, folded.tx_stats.epochs_per_tx,
            "{name}"
        );
        assert_eq!(report.size_hist, folded.size_hist, "{name}");
        assert_eq!(report.deps, folded.deps, "{name}");
        assert_eq!(report.amplification, folded.amplification, "{name}");
        assert_eq!(report.nt_fraction, folded.nt_fraction, "{name}");
        assert_eq!(report.nt_fraction, analysis::nt_fraction(&epochs), "{name}");
        assert_eq!(
            report.small_singleton_fraction, folded.small_singleton_fraction,
            "{name}"
        );
        assert_eq!(
            report.small_singleton_fraction,
            analysis::small_singleton_fraction(&epochs),
            "{name}"
        );
    }
}

#[test]
fn reports_cover_every_app() {
    let cfg = SuiteConfig {
        scale: 0.008,
        seed: 3,
        parallelism: 1,
        worker_threads: 4,
    };
    let results: Vec<AppResult> = APP_NAMES.iter().map(|n| run_app(n, &cfg)).collect();
    let all = whisper::report::all(&results);
    for name in APP_NAMES {
        assert!(all.contains(name), "report missing {name}");
    }
    for heading in [
        "Table 1",
        "Figure 3",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "Figure 10",
    ] {
        assert!(all.contains(heading), "report missing {heading}");
    }
}

#[test]
fn epoch_rate_is_scale_invariant() {
    // Table 1 reports a *rate*; halving the workload should not move it
    // much (the paper's full-scale runs are reproducible at any scale).
    let small = run_app(
        "ctree",
        &SuiteConfig {
            scale: 0.01,
            seed: 9,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    let large = run_app(
        "ctree",
        &SuiteConfig {
            scale: 0.04,
            seed: 9,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    let ratio = small.analysis.epochs_per_sec / large.analysis.epochs_per_sec;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "epoch rate should be duration-insensitive, got ratio {ratio}"
    );
}

#[test]
fn analysis_pipeline_consistency() {
    // The same trace analyzed twice gives identical statistics, and the
    // epoch count matches fence counts.
    let r = run_app(
        "redis",
        &SuiteConfig {
            scale: 0.01,
            seed: 5,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    let e1 = analysis::split_epochs(&r.run.events);
    let e2 = analysis::split_epochs(&r.run.events);
    assert_eq!(e1.len(), e2.len());
    let fences = r
        .run
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                pmtrace::EventKind::Fence | pmtrace::EventKind::DFence
            )
        })
        .count();
    assert!(e1.len() <= fences, "epochs cannot outnumber fences");
}
