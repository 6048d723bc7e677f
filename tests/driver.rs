//! `whisper-report` end to end, in process: `whisper::driver::run` is
//! the whole program (the binary only forwards its arguments and exits
//! with the returned code), so usage errors, the gate pipeline's
//! outputs and orders, and the exit codes are all checked here without
//! spawning anything.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use whisper::crashtest::{crash_json, run_campaign, CampaignConfig};
use whisper::crossval::run_crossval;
use whisper::driver::{self, exit_code, Gate};
use whisper::optimize::{optimize_json, optimize_results};
use whisper::report;
use whisper::serve::{run_serve_profiled, ServeConfig};
use whisper::suite::{analyze, run_apps, AppResult, SuiteConfig, APP_NAMES};

/// `--json` and `--trace` switch process-global `pmobs` recording on for
/// the length of a run, and a trace export drains every track recorded
/// meanwhile — so the tests that run applications take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run the driver on a whitespace-separated command line.
fn run(line: &str) -> (i32, String) {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut out = Vec::new();
    let code = driver::run(&args, &mut out);
    (code, String::from_utf8(out).expect("the report is UTF-8"))
}

/// A fresh directory under cargo's integration-test scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("driver-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn usage_errors_exit_2_before_anything_runs() {
    // `--parallel 1` would run the apps on this thread, where the
    // per-thread Figure 10 replay counter would see them.
    let replays = hops::fig10_invocations();
    for bad in [
        "--bogus",
        "--apps nope",
        "--apps redis,redis",
        "--check-rules P-NO-SUCH-RULE",
        "fig99",
        "fig99 --crash --optimize",
        "--from-trace missing.wtr fig99",
        "--scale",
        "--seed nine",
        "--scale 0.00001",
        "--scale inf",
        "--scale 1e30",
        "--threads 0",
        "--serve-shards 0",
        "--serve --serve-shards 18446744073709551615",
        "--serve-arrival sometimes",
        "--trace t.json --timing",
    ] {
        let (code, out) = run(&format!(
            "table1 --apps exim --scale 0.01 --parallel 1 {bad}"
        ));
        assert_eq!(code, 2, "{bad}");
        assert_eq!(out, "", "{bad}: a usage error prints no report");
    }
    assert_eq!(hops::fig10_invocations(), replays, "an app ran");
}

#[test]
fn the_deterministic_report_matches_the_golden_through_the_driver() {
    let _turn = turn();
    let det = scratch("golden").join("report.det.json");
    let (code, _) = run(&format!(
        "--json-det {} --quiet --scale 0.05 --seed 42 --threads 4",
        det.display()
    ));
    assert_eq!(code, 0);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/golden_quick_report.json");
    assert!(read(&det) == read(&golden), "report.det.json != golden");
}

#[test]
fn a_traced_run_that_fails_exits_2_and_leaves_no_tracks_behind() {
    let _turn = turn();
    let dir = scratch("trace-failures");
    std::fs::write(dir.join("a-file"), "").expect("scratch file");
    let d = dir.display();
    for failing in [
        // The export itself: `cannot write <path>` on stderr, which
        // crates/whisper/tests/trace.rs reads off the real binary.
        format!("--trace {d}/no-such-directory/t.json"),
        // A step before the export, with every track already recorded.
        format!("--trace {d}/t.json --dump-traces {d}/a-file/traces"),
    ] {
        let (code, out) = run(&format!(
            "table1 --apps hashmap --scale 0.01 --parallel 1 --quiet {failing}"
        ));
        assert_eq!(code, 2, "{failing}");
        assert_eq!(out, "", "{failing}: a failed run prints no report");
        assert!(!pmobs::trace::enabled(), "{failing}: tracing left on");
        let left: Vec<String> = pmobs::trace::take_tracks()
            .into_iter()
            .map(|t| t.name)
            .collect();
        assert!(left.is_empty(), "{failing}: tracks left behind: {left:?}");
    }
    assert!(!dir.join("t.json").exists() && !dir.join("no-such-directory").exists());
}

/// CI's mega-invocation: every gate, every document.
fn all_gates(dir: &Path, parallel: usize) -> (i32, String) {
    let d = dir.display();
    run(&format!(
        "--json {d}/report.json --json-det {d}/report.det.json \
         --check --check-json {d}/violations.json --check-graph {d}/graphs \
         --crossval --crossval-json {d}/crossval.json --crash --crash-json {d}/crash.json \
         --optimize --optimize-json {d}/optimize.json --serve --serve-json {d}/serve.json \
         --profile --profile-json {d}/profile.json --trace {d}/trace.json \
         --quiet --scale 0.01 --seed 42 --parallel {parallel} --threads 4"
    ))
}

#[test]
fn all_gates_pass_in_order_and_do_not_depend_on_the_worker_count() {
    let _turn = turn();
    let log_level = pmobs::logger::level();
    let (serial_dir, fanned_dir) = (scratch("gates-p1"), scratch("gates-p3"));
    let (code, text) = all_gates(&serial_dir, 1);
    assert_eq!(code, 0, "every gate passes");

    // The driver hands the process-global switches back.
    assert!(!pmobs::enabled(), "--json left metric recording on");
    assert!(!pmobs::trace::enabled(), "--trace left tracing on");
    assert_eq!(
        pmobs::logger::level(),
        log_level,
        "--quiet left the log level"
    );

    // The experiment first, then the seven gate tables in print order.
    let mut at = text
        .find("Table 1 — Epochs per second")
        .expect("report text");
    for header in [
        "\n\nPersistency check (pmcheck)",
        "\n\nEpoch dependency graphs (pmcheck::hb)",
        "\n\nCrash-recovery campaign",
        "\n\nHB / crash-image cross-validation",
        "\n\nOrdering optimizer (pmcheck rewrite)",
        "\n\nServing sweep",
        "\n\nPhase profile",
    ] {
        let next = text[at..].find(header);
        at += next.unwrap_or_else(|| panic!("{header:?} missing or out of order"));
    }

    // Every section the gates own is filled, standalone == section.
    let doc = pmobs::json::parse(&read(&serial_dir.join("report.json"))).expect("report.json");
    for (file, section) in [
        ("violations.json", vec!["violations"]),
        ("crash.json", vec!["crash"]),
        ("crossval.json", vec!["hb", "crossval"]),
        ("optimize.json", vec!["optimize"]),
        ("serve.json", vec!["serve"]),
        ("profile.json", vec!["profile"]),
    ] {
        let inner = section.iter().try_fold(&doc, |d, key| d.get(key));
        let inner = inner.unwrap_or_else(|| panic!("report.json lacks {section:?}"));
        assert!(inner.to_pretty() == read(&serial_dir.join(file)), "{file}");
    }
    assert!(doc.get("hb").and_then(|hb| hb.get("graph")).is_some());

    // The streamed trace.json is the DOM view of the same run, made
    // again through the library.
    let trace = read(&serial_dir.join("trace.json"));
    assert!(trace.ends_with("]}\n"), "trace.json is not closed");
    let cfg = SuiteConfig {
        scale: 0.01,
        seed: 42,
        parallelism: 1,
        worker_threads: 4,
    };
    pmobs::trace::set_enabled(true);
    run_apps(&APP_NAMES, &cfg);
    run_serve_profiled(&ServeConfig::from_suite(&cfg));
    pmobs::trace::set_enabled(false);
    let dom = pmobs::trace::export_chrome(&pmobs::trace::take_tracks());
    assert!(trace == dom.to_compact() + "\n", "trace.json != DOM view");

    let (code, fanned_text) = all_gates(&fanned_dir, 3);
    assert_eq!(code, 0);
    assert!(text == fanned_text, "stdout differs at --parallel 3");
    let mut files: Vec<String> = [
        "report.det.json",
        "violations.json",
        "crossval.json",
        "crash.json",
        "optimize.json",
        "serve.json",
        "profile.json",
        "trace.json",
    ]
    .map(String::from)
    .to_vec();
    for graph in std::fs::read_dir(serial_dir.join("graphs")).expect("graphs/") {
        let name = graph.expect("graphs/ entry").file_name();
        files.push(format!("graphs/{}", name.to_string_lossy()));
    }
    assert_eq!(files.len(), 8 + 2 * 11, "one .json and one .dot per app");
    for file in files {
        let same = read(&serial_dir.join(&file)) == read(&fanned_dir.join(&file));
        assert!(same, "{file} differs at --parallel 3");
    }
}

#[test]
fn an_archived_trace_goes_through_the_same_tail() {
    let _turn = turn();
    let dir = scratch("archive");
    let d = dir.display();
    let (code, _) = run(&format!(
        "table1 --apps hashmap --scale 0.02 --dump-traces {d} --quiet"
    ));
    assert_eq!(code, 0);
    let file = format!("{d}/hashmap.wtr");

    let bytes = std::fs::read(&file).expect("the archive");
    let events = pmtrace::decode_events(&bytes).expect("a .wtr archive");
    let run_of_archive = whisper::apps::AppRun {
        name: file.clone(),
        workload: "archived trace".into(),
        duration_ns: events.last().map_or(0, |e| e.at_ns),
        events,
        stats: memsim::MemStats::default(),
        threads: 4,
    };
    let analysis = analyze(&run_of_archive);
    let decoded = [AppResult {
        run: run_of_archive,
        analysis,
    }];

    let (code, all) = run(&format!("--from-trace {file} --quiet"));
    assert_eq!(code, 0);
    assert!(all == report::all(&decoded) + "\n", "the full report");
    let (code, fig3) = run(&format!("--from-trace {file} fig3 --quiet"));
    assert_eq!(code, 0);
    assert!(
        fig3 == report::fig3(&decoded).text() + "\n",
        "EXPERIMENT honoured"
    );

    let (code, checked) = run(&format!("--from-trace {file} fig3 --check --quiet"));
    assert_eq!(code, 0);
    assert!(checked.starts_with(&fig3) && checked.contains("\n\nPersistency check"));
}

/// An archive the codec refuses is a usage error, reported as such: a
/// store of no bytes, a store that wraps past the last address, and an
/// event count whose byte size overflows.
#[test]
fn malformed_archives_exit_2_and_say_why() {
    let _turn = turn();
    let dir = scratch("malformed");
    let record = |tag: u8, a: u32, b: u64| {
        let mut r = vec![tag, 0, 0, 0];
        r.extend_from_slice(&a.to_le_bytes());
        r.extend_from_slice(&b.to_le_bytes());
        r.extend_from_slice(&1u64.to_le_bytes());
        r
    };
    let archive = |count: u64, records: &[Vec<u8>]| {
        let mut bytes = b"WHISPR01".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        records.iter().for_each(|r| bytes.extend_from_slice(r));
        bytes
    };
    let fence = record(3, 0, 0);
    for (name, bytes) in [
        ("empty", archive(2, &[record(0, 0, 0x1000), fence.clone()])),
        (
            "wrap",
            archive(2, &[record(0, 8 << 8, u64::MAX - 3), fence]),
        ),
        ("count", archive(1 << 61, &[])),
    ] {
        let file = dir.join(format!("{name}.wtr")).display().to_string();
        std::fs::write(&file, bytes).expect("archive written");
        let (code, out) = run(&format!("--from-trace {file} --check --quiet"));
        assert_eq!(code, 2, "{name}");
        assert_eq!(out, "", "{name}: no report");
        let Err(err) = driver::decode_archive(&file) else {
            panic!("{name}: decoded");
        };
        assert!(err.starts_with(&format!("cannot decode {file}: ")), "{err}");
    }
}

/// The driver runs one campaign for crash, crossval and optimize; each
/// document must be what the one-view entry point returns. At one
/// worker thread, so the campaign also follows `--threads`.
#[test]
fn the_shared_campaign_writes_what_each_view_returns() {
    let _turn = turn();
    let dir = scratch("campaign");
    let d = dir.display();
    let (code, _) = run(&format!(
        "table1 --crash-json {d}/crash.json --crossval-json {d}/crossval.json \
         --optimize-json {d}/optimize.json --quiet --scale 0.01 --seed 42 --parallel 1 --threads 1"
    ));
    assert_eq!(code, 0);
    let cfg = SuiteConfig {
        scale: 0.01,
        seed: 42,
        parallelism: 1,
        worker_threads: 1,
    };
    let ccfg = CampaignConfig::from_suite(&cfg);
    let results = run_apps(&APP_NAMES, &cfg);
    for (file, doc) in [
        ("crash.json", crash_json(&run_campaign(&ccfg), &ccfg)),
        ("crossval.json", run_crossval(&ccfg).to_json()),
        (
            "optimize.json",
            optimize_json(&optimize_results(&results, &ccfg, cfg.parallelism)),
        ),
    ] {
        assert!(read(&dir.join(file)) == doc.to_pretty(), "{file}");
    }
}

#[test]
fn exit_precedence_is_check_crash_crossval_optimize() {
    use Gate::{Check, Crash, Crossval, Graph, Optimize, Profile, Serve};
    assert_eq!(exit_code(&[]), 0);
    assert_eq!(exit_code(&[Serve, Profile, Graph]), 0, "these cannot fail");
    for (failed, code) in [
        (vec![Check], 3),
        (vec![Crash], 4),
        (vec![Optimize], 5),
        (vec![Crossval], 6),
        (vec![Optimize, Crossval, Crash, Check], 3),
        (vec![Optimize, Crossval, Crash], 4),
        (vec![Optimize, Crossval], 6),
    ] {
        assert_eq!(exit_code(&failed), code, "{failed:?}");
    }
}

#[test]
fn the_usage_text_is_the_command_line_surface() {
    // Pinned here so a flag cannot appear or vanish unnoticed; the
    // usage text is generated from the table the parser reads.
    let surface = [
        "--scale X",
        "--seed N",
        "--apps a,b,c",
        "--parallel N",
        "--threads 1..=64",
        "--timing",
        "--json PATH",
        "--json-det PATH",
        "--check",
        "--check-json PATH",
        "--check-rules ID,..",
        "--check-graph DIR",
        "--crossval",
        "--crossval-json PATH",
        "--crash",
        "--crash-json PATH",
        "--serve",
        "--serve-json PATH",
        "--serve-arrival paced|bursty",
        "--serve-shards 1..=1024",
        "--trace PATH",
        "--profile",
        "--profile-json PATH",
        "--optimize",
        "--optimize-json PATH",
        "--quiet",
        "--dump-traces DIR",
        "--from-trace FILE",
        "--help",
    ];
    let experiments = "table1|fig3|fig4|fig5|fig6|fig10|amplification|ntfraction|smallwrites|\
                       consequences|all";
    let mut expected = format!("usage: whisper-report [{experiments}]");
    for flag in surface {
        expected += &format!(" [{flag}]");
    }
    assert_eq!(driver::usage(), expected);
}
