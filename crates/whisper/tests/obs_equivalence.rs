//! The pmobs non-perturbation contract, enforced end to end: enabling
//! metric recording must not change a single simulated outcome — same
//! trace, same counters, same simulated clock, same figures.
//!
//! Instruments are side channels (relaxed atomics off the simulated
//! clock/trace/RNG paths), so equality holds by construction; this
//! test is the proof against regressions.

use std::sync::{Mutex, MutexGuard};
use whisper::json_report;
use whisper::suite::{run_apps, AppResult, SuiteConfig, APP_NAMES};

/// The enabled flag is process-wide; serialize the tests that toggle
/// it so the "disabled" halves actually run disabled.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_identical(a: &[AppResult], b: &[AppResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        let name = &x.run.name;
        assert_eq!(x.run.name, y.run.name);
        assert_eq!(x.run.events, y.run.events, "{name}: trace perturbed");
        assert_eq!(x.run.stats, y.run.stats, "{name}: MemStats perturbed");
        assert_eq!(
            x.run.duration_ns, y.run.duration_ns,
            "{name}: simulated clock perturbed"
        );
        assert_eq!(
            x.analysis.epoch_count, y.analysis.epoch_count,
            "{name}: epoch count perturbed"
        );
        assert_eq!(
            x.analysis.tx_stats.epochs_per_tx, y.analysis.tx_stats.epochs_per_tx,
            "{name}: Figure 3 perturbed"
        );
        assert_eq!(
            x.analysis.size_hist, y.analysis.size_hist,
            "{name}: Figure 4 perturbed"
        );
        assert_eq!(
            x.analysis.deps, y.analysis.deps,
            "{name}: Figure 5 perturbed"
        );
        assert_eq!(
            x.analysis.amplification, y.analysis.amplification,
            "{name}: amplification perturbed"
        );
        assert_eq!(
            x.analysis.nt_fraction, y.analysis.nt_fraction,
            "{name}: NT fraction perturbed"
        );
        assert_eq!(
            x.analysis.fig10, y.analysis.fig10,
            "{name}: Figure 10 perturbed"
        );
    }
}

/// Instrumented and uninstrumented runs of the same seed are
/// bit-identical, serial and parallel alike. The app set includes a
/// gem5-subset app (hashmap — unpaced Figure 10 replay, bloom probes
/// through HOPS) and a PMFS app (nfs — NT stores, fence drains).
#[test]
fn metrics_collection_never_changes_results() {
    let _lock = obs_lock();
    let apps = ["hashmap", "nfs", "exim"];
    for parallelism in [1, 3] {
        let cfg = SuiteConfig {
            scale: 0.006,
            seed: 17,
            parallelism,
            worker_threads: 4,
        };

        pmobs::set_enabled(false);
        let plain = run_apps(&apps, &cfg);

        pmobs::set_enabled(true);
        let instrumented = run_apps(&apps, &cfg);
        pmobs::set_enabled(false);

        assert_identical(&plain, &instrumented);
    }
}

/// The same contract for the tracing layer: collecting a causal trace
/// of a run must leave every simulated outcome bit-identical. Sinks
/// only *read* clocks the simulation already computed, so equality
/// holds by construction; this is the proof against regressions.
#[test]
fn tracing_never_changes_results() {
    let _lock = obs_lock();
    let apps = ["hashmap", "nfs", "exim"];
    for parallelism in [1, 3] {
        let cfg = SuiteConfig {
            scale: 0.006,
            seed: 17,
            parallelism,
            worker_threads: 4,
        };

        pmobs::trace::set_enabled(false);
        let plain = run_apps(&apps, &cfg);

        pmobs::trace::set_enabled(true);
        let traced = run_apps(&apps, &cfg);
        pmobs::trace::set_enabled(false);
        let tracks = pmobs::trace::take_tracks();
        assert!(
            !tracks.is_empty(),
            "traced run produced no tracks — the equivalence check is vacuous"
        );

        assert_identical(&plain, &traced);
    }
}

/// The instrumented run actually records: the registry must hold the
/// suite counters and span histograms afterwards (a silently-dead
/// instrument would make the equivalence test vacuous).
#[test]
fn instrumented_run_populates_registry() {
    let _lock = obs_lock();
    let cfg = SuiteConfig {
        scale: 0.006,
        seed: 17,
        parallelism: 1,
        worker_threads: 4,
    };
    pmobs::set_enabled(true);
    let _ = run_apps(&["hashmap"], &cfg);
    pmobs::set_enabled(false);

    let snap = pmobs::global().snapshot();
    assert!(snap.counters["suite.apps_run"] >= 1);
    assert!(snap.counters["memsim.pm_store_lines"] > 0);
    assert!(snap.counters["pmtrace.events_analyzed"] > 0);
    assert!(snap.counters["hops.fig10_replays"] >= 1);
    assert!(snap.counters["hops.replay_events"] > 0);
    assert!(snap.histograms.contains_key("sim.fig10_runtime/HOPS (NVM)"));
    assert!(snap.histograms.contains_key("span.suite.run/hashmap"));
    assert!(snap.histograms.contains_key("sim.app_duration/hashmap"));
    assert!(snap.histograms.contains_key("suite.queue_wait_ns/hashmap"));
    let sim = &snap.histograms["sim.app_duration/hashmap"];
    assert!(sim.count >= 1 && sim.sum > 0, "simulated duration recorded");
}

/// The persist buffer's one counter fires where dependencies bite: on
/// the quick suite at four workers, some HOPS replay retires another
/// thread's lines early because a dependent entry needed them.
#[test]
fn quick_suite_retires_lines_for_cross_thread_dependencies() {
    let _lock = obs_lock();
    let dep_retires = || {
        pmobs::global()
            .snapshot()
            .counters
            .get("hops.dep_retires")
            .copied()
            .unwrap_or(0)
    };
    let before = dep_retires();
    pmobs::set_enabled(true);
    let _ = run_apps(&APP_NAMES, &SuiteConfig::quick());
    pmobs::set_enabled(false);
    assert!(dep_retires() > before, "no dependency ever forced a retire");
}

/// `--json` end to end: the document the binary writes parses, carries
/// every required key, and lists all eleven Table 1 rows.
#[test]
fn json_report_covers_full_suite() {
    let _lock = obs_lock();
    let cfg = SuiteConfig {
        scale: 0.004,
        seed: 3,
        parallelism: 4,
        worker_threads: 4,
    };
    pmobs::set_enabled(true);
    let names: Vec<&str> = APP_NAMES.to_vec();
    let results = run_apps(&names, &cfg);
    pmobs::set_enabled(false);
    let doc = json_report::build(&results, &cfg, &pmobs::global().snapshot());

    let parsed = pmobs::json::parse(&doc.to_pretty()).expect("report parses");
    for key in json_report::REQUIRED_KEYS {
        assert!(parsed.get(key).is_some(), "missing key {key}");
    }
    assert_eq!(
        parsed.get("schema_version").and_then(pmobs::Json::as_f64),
        Some(json_report::SCHEMA_VERSION as f64)
    );
    let table1 = parsed.get("table1").and_then(|t| t.as_arr()).unwrap();
    assert_eq!(table1.len(), 11, "all Table 1 rows present");
    for (row, name) in table1.iter().zip(APP_NAMES) {
        assert_eq!(row.get("name").and_then(|n| n.as_str()), Some(name));
        assert!(
            row.get("epochs_per_sec")
                .and_then(pmobs::Json::as_f64)
                .unwrap()
                > 0.0
        );
    }
    // Six gem5-subset apps in Figures 6 and 10, five bars each.
    let fig6 = parsed.get("fig6").and_then(|f| f.get("apps")).unwrap();
    assert_eq!(fig6.as_arr().unwrap().len(), 6);
    let fig10 = parsed.get("fig10").and_then(|f| f.get("apps")).unwrap();
    assert_eq!(fig10.as_arr().unwrap().len(), 6);
    for app in fig10.as_arr().unwrap() {
        assert_eq!(
            app.get("normalized")
                .and_then(|n| n.as_arr())
                .map(<[pmobs::Json]>::len),
            Some(5)
        );
    }
    // Metrics block populated by the instrumented run.
    let counters = parsed
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .unwrap();
    assert!(counters.get("suite.apps_run").is_some());
}
