//! Tiny-scale runs of the real workloads: digests repeat between two
//! processes' worth of set-up, traced and plain runs agree, every name
//! emitted is a catalog name, and `--smoke` passes.

use pmobs::Json;
use std::time::Instant;
use whisper_perf::catalog::{per_layer, valid_name, END_TO_END, WORKLOADS};
use whisper_perf::compare::compare;
use whisper_perf::runner::{run, Params, RunResult};

fn tiny(workload: &str, traced: bool) -> RunResult {
    let p = Params {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        traced,
        tiny: true,
    };
    run(&p, Instant::now()).expect("tiny run measures")
}

fn names(r: &RunResult) -> Vec<&str> {
    r.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

/// One test, run in sequence: the workloads flip process-wide `pmobs`
/// switches and share its trace collector.
#[test]
fn tiny_runs_repeat_exactly_and_speak_the_catalogs_names() {
    let layer_names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let (a, b, t) = (tiny(w, false), tiny(w, false), tiny(w, true));
        for r in [&a, &b, &t] {
            assert_eq!(r.failures, Vec::<String>::new(), "{w}");
            assert!(r.reference.events > 0 && r.attempted > 0, "{w}");
        }
        assert_eq!(
            a.reference.digest, b.reference.digest,
            "{w}: digest moved between runs"
        );
        assert_eq!(
            a.reference.counts, b.reference.counts,
            "{w}: counts moved between runs"
        );
        assert_eq!(
            a.reference.digest, t.reference.digest,
            "{w}: traced run differs"
        );

        assert_eq!(names(&a), END_TO_END.map(|m| m.name), "{w}");
        assert_eq!(names(&t), layer_names, "{w}");
        for (name, value, _) in a.metrics.iter().chain(&t.metrics) {
            assert!(valid_name(name), "{name:?}");
            assert!(value.is_finite(), "{w}: {name} = {value}");
        }
        assert!(
            a.metrics.iter().all(|m| m.1 > 0.0),
            "{w}: an end-to-end metric reads 0"
        );

        let line = pmobs::json::parse(&a.result_line()).expect("result line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        runs.push(a.to_json());
    }

    // The documents `--out` writes are the documents `--compare` reads.
    let set = Json::obj().field("runs", runs);
    let (text, ok) = compare(&set, &set);
    assert!(ok, "{text}");
    assert!(text.contains("20 ok, 0 regressed, 0 unresolved"), "{text}");
}

#[test]
fn smoke_mode_exits_zero_and_names_every_workload() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_whisper-perf"))
        .arg("--smoke")
        .output()
        .expect("the executable runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("smoke {w}")), "{stdout}");
    }
}
