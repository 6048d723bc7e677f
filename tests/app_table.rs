//! The app table is the one description of the eleven Table 1 rows:
//! the public constants other crates compile against are projections of
//! it, every row runs as the row says, and an unknown name is one typed
//! error.

use whisper::apps::{self, APPS};
use whisper::report::PAPER;
use whisper::suite::{
    SuiteConfig, APP_NAMES, DEFAULT_WORKER_THREADS, MIN_OPS, MIN_OP_BASE, SIM_APPS,
};

#[test]
fn names_are_unique_and_in_table1_order() {
    let names: Vec<&str> = APPS.iter().map(|app| app.name).collect();
    assert_eq!(
        names,
        [
            "echo",
            "nstore-ycsb",
            "nstore-tpcc",
            "redis",
            "ctree",
            "hashmap",
            "vacation",
            "memcached",
            "nfs",
            "exim",
            "mysql"
        ]
    );
    for app in &APPS {
        let row = apps::by_name(app.name).expect("a Table 1 name");
        assert!(std::ptr::eq(row, app), "{}: found another row", app.name);
    }
}

#[test]
fn public_constants_are_projections_of_the_table() {
    assert!(APPS.iter().map(|app| app.name).eq(APP_NAMES));
    assert!(APPS.iter().map(|app| app.paper).eq(PAPER));
    let sim = APPS.iter().filter(|app| app.unpaced.is_some());
    assert!(sim.map(|app| app.name).eq(SIM_APPS));
    let min_base = APPS.iter().map(|app| app.base_ops).min();
    assert_eq!(min_base, Some(MIN_OP_BASE));
}

#[test]
fn the_gem5_subset_is_where_the_paper_has_a_figure6_value() {
    for app in &APPS {
        assert_eq!(
            app.unpaced.is_some(),
            app.paper.fig6_pm_pct.is_some(),
            "{}",
            app.name
        );
    }
}

#[test]
fn every_row_runs_as_itself() {
    for app in &APPS {
        let run = (app.run)(MIN_OPS, 42, DEFAULT_WORKER_THREADS);
        assert_eq!(run.name, app.name);
        assert_eq!(run.workload, app.workload, "{}", app.name);
        assert!(!run.events.is_empty(), "{}: empty trace", app.name);
        if let Some(unpaced) = app.unpaced {
            let sim = unpaced(MIN_OPS, 42);
            assert_eq!(
                (sim.name.as_str(), sim.workload.as_str()),
                (app.name, app.workload)
            );
        }
    }
}

#[test]
fn an_unknown_name_is_one_error_listing_every_row() {
    let unknown = apps::by_name("nope").expect_err("not a Table 1 row");
    let text = unknown.to_string();
    assert!(text.contains("\"nope\""), "{text}");
    for app in &APPS {
        assert!(text.contains(app.name), "{text}: no {}", app.name);
    }
    assert_eq!(SuiteConfig::quick().effective_ops("nope"), None);
}

#[test]
fn validate_rejects_exactly_the_scales_that_zero_some_row() {
    let at = |scale: f64| {
        SuiteConfig {
            scale,
            ..SuiteConfig::quick()
        }
        .validate()
    };
    let smallest = 1.0 / MIN_OP_BASE as f64;
    for ok in [smallest, smallest * 1.5, 0.05, 1.0] {
        assert!(at(ok).is_ok(), "scale {ok} rejected");
    }
    for zeroing in [smallest * 0.999, smallest / 2.0, 0.0] {
        let why = at(zeroing).expect_err("some row runs zero ops");
        assert!(why.contains(&smallest.to_string()), "{why}");
    }
}
