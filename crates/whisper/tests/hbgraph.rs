//! An epoch graph computes its §5.2 statistics once, when it is built.
//! For every Table 1 row at quick scale, at the default four workers
//! and at the most the scheduler supports (where clocks spill past
//! their eight inline slots), the statistics the `hb.graph` section
//! reports must equal the ones in each graph's own JSON export, and
//! those must agree with the exported nodes and edges.

use pmobs::Json;
use std::collections::BTreeSet;
use whisper::hbgraph;
use whisper::suite::{
    run_suite, SuiteConfig, APP_NAMES, DEFAULT_WORKER_THREADS, MAX_WORKER_THREADS,
};

fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_f64).expect(key) as u64
}

#[test]
fn stored_graph_statistics_match_each_graphs_json() {
    for workers in [DEFAULT_WORKER_THREADS, MAX_WORKER_THREADS] {
        let cfg = SuiteConfig {
            parallelism: 2,
            worker_threads: workers,
            ..SuiteConfig::quick()
        };
        let graphs = hbgraph::build_graphs(&run_suite(&cfg));
        assert_eq!(graphs.len(), APP_NAMES.len());
        let section = hbgraph::stats_json(&graphs);
        let rows = section.get("apps").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), graphs.len());
        for (g, row) in graphs.iter().zip(rows) {
            let doc = g.graph.to_json(&g.name);
            let at = format!("{} at {workers} workers", g.name);
            for key in ["epochs_with_cross_dep", "max_antichain"] {
                assert_eq!(count(row, key), count(&doc, key), "{at}: {key}");
            }
            let targets: BTreeSet<u64> = doc
                .get("edges")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| count(e, "to"))
                .collect();
            assert_eq!(
                count(&doc, "epochs_with_cross_dep"),
                targets.len() as u64,
                "{at}: distinct cross-edge targets"
            );
            // Each thread's epochs form one chain, so the antichain
            // holds at most one epoch per thread and at least one.
            let antichain = count(&doc, "max_antichain");
            let bound = count(&doc, "threads").min(count(&doc, "epochs"));
            assert!(
                antichain <= bound && (antichain > 0) == (bound > 0),
                "{at}: antichain {antichain} outside 1..={bound}"
            );
        }
    }
}
