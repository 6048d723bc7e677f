//! `BENCHMARK.json` and the catalog name the same things, both ways,
//! and the manifest stays inside the driver's limits.

use pmobs::Json;
use whisper_perf::catalog::{per_layer, valid_name, END_TO_END, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "manifest over 64 KiB");
    pmobs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is not an array"))
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {obj:?}"))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(
        command
            .iter()
            .all(|c| !c.starts_with('/') && !c.contains("..")),
        "command leaves the checkout: {command:?}"
    );
    assert!(command.contains(&"benchmark/Cargo.toml"));
}

#[test]
fn workloads_match_the_catalog() {
    let doc = manifest();
    let listed = entries(&doc, "workloads");
    let names: Vec<&str> = listed.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in listed {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why:?}"
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_catalog() {
    let doc = manifest();
    let listed = entries(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (m, want) in listed.iter().zip(END_TO_END) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(m, "name"), want.name);
        assert_eq!(str_of(m, "unit"), want.unit);
        assert_eq!(str_of(m, "better"), want.better.as_str());
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(want.bound));
        assert!(want.bound <= 0.25);
    }
    let setup = listed
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .unwrap();
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn per_layer_metrics_match_the_catalog() {
    let doc = manifest();
    let listed = entries(&doc, "per_layer");
    let want = per_layer();
    assert!((1..=128).contains(&listed.len()));
    assert_eq!(listed.len(), want.len());
    for (m, want) in listed.iter().zip(&want) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!(str_of(m, "name"), want.name);
        assert_eq!(str_of(m, "unit"), want.unit);
        assert_eq!(str_of(m, "better"), want.better.as_str());
        assert!(valid_name(str_of(m, "name")));
        let unit = str_of(m, "unit");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit:?}"
        );
    }
}
