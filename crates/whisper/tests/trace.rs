//! Integration gates for the simulated-time tracing subsystem.
//!
//! Three properties are pinned here:
//!
//! 1. **Bit-identity across parallelism** — the exported Chrome trace
//!    of a suite run plus a serve sweep is byte-for-byte identical at
//!    `--parallel 1` and `--parallel 3`, because every event is
//!    timestamped on the simulated clock and the collector merge sorts
//!    tracks by (unique) name.
//! 2. **A pinned golden trace** — the quick-scale exim trace is
//!    committed at `ci/golden_trace_exim.json`; any change to the
//!    instrumentation points or the simulated timeline moves bytes
//!    here and must be deliberate. Regenerate with:
//!
//!    ```text
//!    whisper-report --apps exim --trace ci/golden_trace_exim.json \
//!        --scale 0.05 --seed 42 --parallel 1 --quiet
//!    ```
//! 3. **Chrome trace-event well-formedness** — the export parses as
//!    JSON, every track lane opens with an `M` thread-name record,
//!    begin/end events balance per lane, and timestamps never go
//!    backwards within a lane.
//!
//! All three go through `pmobs::trace::write_chrome`, the streaming
//! writer the CLI runs. A fourth test runs the CLI itself: a `--trace`
//! path that cannot be written is an error, not a silent success.

use pmobs::json::Json;
use pmobs::trace;
use std::sync::Mutex;
use whisper::serve::{serve_apps, Arrival, ServeConfig};
use whisper::suite::{run_apps, SuiteConfig};

/// The trace flag and collector are process-wide; serialize the tests
/// in this binary and leave both clean between them.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` with tracing on and return the exported document, written
/// the way `whisper-report --trace` writes it.
fn traced_export(f: impl FnOnce()) -> String {
    trace::set_enabled(true);
    f();
    trace::set_enabled(false);
    let mut out = Vec::new();
    trace::write_chrome(&trace::take_tracks(), &mut out).expect("a Vec accepts every write");
    String::from_utf8(out).expect("the trace is UTF-8")
}

fn small_serve(parallelism: usize) -> ServeConfig {
    ServeConfig {
        scale: 0.006,
        seed: 17,
        shards: 2,
        arrival: Arrival::Bursty,
        parallelism,
    }
}

#[test]
fn trace_export_is_bit_identical_across_parallelism() {
    let _l = trace_lock();
    let export = |parallelism: usize| {
        let cfg = SuiteConfig {
            scale: 0.006,
            seed: 17,
            parallelism,
            worker_threads: 4,
        };
        traced_export(|| {
            run_apps(&["hashmap", "exim"], &cfg);
            serve_apps(&["hashmap"], &small_serve(parallelism));
        })
    };
    let serial = export(1);
    let parallel = export(3);
    assert!(
        serial.contains("traceEvents"),
        "export produced no trace document"
    );
    assert_eq!(
        serial, parallel,
        "trace export differs between 1 and 3 workers"
    );
}

#[test]
fn quick_exim_trace_matches_committed_golden() {
    let _l = trace_lock();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/golden_trace_exim.json"
    );
    let golden = std::fs::read_to_string(golden_path).expect(
        "ci/golden_trace_exim.json missing; regenerate with \
         whisper-report --apps exim --trace ci/golden_trace_exim.json \
         --scale 0.05 --seed 42 --parallel 1 --quiet",
    );
    let cfg = SuiteConfig::quick();
    let trace = traced_export(|| {
        run_apps(&["exim"], &cfg);
    });
    if trace != golden {
        let mismatch = trace
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.lines().count().min(golden.lines().count()));
        panic!(
            "exim trace diverged from golden (first differing line {}): \
             the instrumented timeline no longer reproduces the committed trace",
            mismatch + 1
        );
    }
}

#[test]
fn chrome_export_is_well_formed() {
    let _l = trace_lock();
    let cfg = SuiteConfig {
        scale: 0.006,
        seed: 17,
        parallelism: 1,
        worker_threads: 4,
    };
    let export = traced_export(|| {
        run_apps(&["exim"], &cfg);
        serve_apps(&["hashmap"], &small_serve(1));
    });
    let doc = pmobs::json::parse(export.trim_end()).expect("trace export parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");

    // Per-lane checks: M record first, balanced B/E, monotone ts.
    let mut lanes: std::collections::BTreeMap<u64, (u64, f64, bool)> =
        std::collections::BTreeMap::new(); // tid -> (open spans, last ts, named)
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let lane = lanes.entry(tid).or_insert((0, f64::NEG_INFINITY, false));
        if ph == "M" {
            assert_eq!(
                ev.get("name").and_then(|n| n.as_str()),
                Some("thread_name"),
                "tid {tid}: metadata record is not a thread name"
            );
            lane.2 = true;
            continue;
        }
        assert!(lane.2, "tid {tid}: event before its thread_name metadata");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(
            ts >= lane.1,
            "tid {tid}: timestamp went backwards ({ts} after {})",
            lane.1
        );
        lane.1 = ts;
        match ph {
            "B" => lane.0 += 1,
            "E" => {
                assert!(lane.0 > 0, "tid {tid}: end with no open span");
                lane.0 -= 1;
            }
            "i" | "C" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for (tid, (open, _, _)) in &lanes {
        assert_eq!(*open, 0, "tid {tid}: {open} spans left open");
    }
    // The combined run must produce all three instrumented layers.
    for needle in ["/memsim/", "/hops[", "serve/hashmap/"] {
        assert!(
            export.contains(needle),
            "expected a {needle} track in the export"
        );
    }
}

#[test]
fn an_unwritable_trace_path_fails_the_run() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_whisper-report"))
        .args(["table1", "--apps", "hashmap", "--scale", "0.01", "--quiet"])
        .args(["--trace", "no-such-directory/t.json"])
        .output()
        .expect("whisper-report runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write no-such-directory/t.json"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a failed export prints no report");
}
