//! Per-app epoch dependency graphs (`whisper-report --check-graph`).
//!
//! Builds [`pmcheck::hb::EpochGraph`] over every application's
//! recorded trace: nodes are store-containing epochs, red cross edges
//! are release→acquire dependencies between epochs of different
//! threads — the §5.2 dependency structure the paper reads off its
//! Fig. 5 graphs. Each graph carries its own statistics (computed once
//! when it is built), so an [`AppGraph`] is just the app's name and its
//! graph. The summary statistics land in the JSON report's
//! `hb.graph` section; the full graphs are written next to it as
//! `<dir>/<app>.json` + `<dir>/<app>.dot` for inspection and
//! `dot -Tsvg` rendering.

use crate::section::{plain, Col, Section};
use crate::suite::AppResult;
use pmcheck::hb::EpochGraph;
use pmobs::Json;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One app's epoch dependency graph.
pub struct AppGraph {
    /// Table 1 application name.
    pub name: String,
    /// The dependency graph over the app's trace, with its §5.2
    /// statistics.
    pub graph: EpochGraph,
}

/// Build the graph for every suite result.
pub fn build_graphs(results: &[AppResult]) -> Vec<AppGraph> {
    results
        .iter()
        .map(|r| {
            let _span = pmobs::span!("hbgraph.build", &r.run.name);
            AppGraph {
                name: r.run.name.clone(),
                graph: EpochGraph::build(&r.run.events),
            }
        })
        .collect()
}

#[rustfmt::skip]
const COLS: [Col<AppGraph>; 7] = [
    Col("name", "app", "<14", |g| g.name.as_str().into(), plain),
    Col("threads", "threads", " >7", |g| g.graph.threads.len().into(), plain),
    Col("epochs", "epochs", " >7", |g| g.graph.nodes.len().into(), plain),
    Col("po_edges", "po-edges", " >9", |g| g.graph.po_edges.into(), plain),
    Col("cross_edges", "cross-edges", " >12", |g| g.graph.cross_edges.len().into(), plain),
    Col("epochs_with_cross_dep", "w/cross-dep", " >12", |g| g.graph.epochs_with_cross_dep().into(), plain),
    Col("max_antichain", "max-antichain", " >14", |g| g.graph.max_antichain().into(), plain),
];

/// The `hb.graph` section: per-app dependency statistics (the full
/// node/edge lists live in the `--check-graph` output files, not the
/// report) and the table `--check-graph` prints.
pub fn section(graphs: &[AppGraph]) -> Section {
    let epochs: usize = graphs.iter().map(|g| g.graph.nodes.len()).sum();
    let cross: usize = graphs.iter().map(|g| g.graph.cross_edges.len()).sum();
    Section::new("hb.graph", "Epoch dependency graphs (pmcheck::hb)")
        .table(graphs, &COLS)
        .footer(format!(
            "total: {epochs} epoch(s), {cross} cross edge(s) across {} app(s)",
            graphs.len()
        ))
        .rows_in("apps")
        .field("total_epochs", epochs)
        .field("total_cross_edges", cross)
}

/// The `hb.graph` section of the JSON report ([`section`]).
pub fn stats_json(graphs: &[AppGraph]) -> Json {
    section(graphs).json()
}

/// The `--check-graph` table ([`section`]; the EXPERIMENTS.md
/// epoch-graph stats table is this, verbatim).
pub fn summary_table(graphs: &[AppGraph]) -> String {
    section(graphs).text()
}

/// Write `<dir>/<app>.json` and `<dir>/<app>.dot` for every graph,
/// creating `dir` if needed. Returns the written paths. An app name
/// that is itself a path (`--from-trace /some/archive.wtr`) is
/// flattened to a plain file stem so the output cannot escape `dir`
/// (a `Path::join` with an absolute name would replace the base).
pub fn write_graphs(graphs: &[AppGraph], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::with_capacity(graphs.len() * 2);
    for g in graphs {
        let stem = g.name.trim_matches(['/', '\\']).replace(['/', '\\'], "_");
        let json_path = dir.join(format!("{stem}.json"));
        let mut f = std::fs::File::create(&json_path)?;
        writeln!(f, "{}", g.graph.to_json(&g.name).to_pretty())?;
        written.push(json_path);
        let dot_path = dir.join(format!("{stem}.dot"));
        let mut dot = BufWriter::new(std::fs::File::create(&dot_path)?);
        g.graph.write_dot(&g.name, &mut dot)?;
        dot.flush()?;
        written.push(dot_path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::{Category, Tid, TraceBuffer};

    fn two_thread_graphs() -> Vec<AppGraph> {
        // A dependency: t1 stores a line t0 persisted, so t1's epoch
        // acquires t0's — one cross edge, and the two epochs cannot be
        // an antichain with each other.
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 1);
        t.flush(Tid(0), 0, 2);
        t.fence(Tid(0), 3);
        t.pm_store(Tid(1), 0, 8, false, Category::UserData, 4);
        t.pm_store(Tid(1), 64, 8, false, Category::UserData, 5);
        t.flush(Tid(1), 0, 6);
        t.flush(Tid(1), 64, 7);
        t.fence(Tid(1), 8);
        vec![AppGraph {
            name: "toy".into(),
            graph: EpochGraph::build(t.events()),
        }]
    }

    #[test]
    fn stats_json_carries_the_graph_shape() {
        let graphs = two_thread_graphs();
        let doc = stats_json(&graphs);
        assert_eq!(doc.get("total_epochs").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            doc.get("total_cross_edges").and_then(Json::as_f64),
            Some(1.0)
        );
        let apps = doc.get("apps").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(
            apps[0].get("max_antichain").and_then(Json::as_f64),
            Some(1.0)
        );
        let table = summary_table(&graphs);
        assert!(table.contains("toy"), "{table}");
        assert!(
            table.contains("total: 2 epoch(s), 1 cross edge(s)"),
            "{table}"
        );
    }

    #[test]
    fn path_like_app_names_stay_inside_the_output_dir() {
        let mut graphs = two_thread_graphs();
        graphs[0].name = "/tmp/somewhere/archive.wtr".into();
        let dir = std::env::temp_dir().join(format!("hbgraph-esc-{}", std::process::id()));
        let written = write_graphs(&graphs, &dir).unwrap();
        for p in &written {
            assert!(
                p.starts_with(&dir),
                "{} escaped {}",
                p.display(),
                dir.display()
            );
        }
        assert!(written[0].ends_with("tmp_somewhere_archive.wtr.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_graphs_emits_json_and_dot() {
        let graphs = two_thread_graphs();
        let dir = std::env::temp_dir().join(format!("hbgraph-test-{}", std::process::id()));
        let written = write_graphs(&graphs, &dir).unwrap();
        assert_eq!(written.len(), 2);
        let json = std::fs::read_to_string(&written[0]).unwrap();
        let parsed = pmobs::json::parse(&json).unwrap();
        assert_eq!(parsed.get("epochs").and_then(Json::as_f64), Some(2.0));
        let dot = std::fs::read_to_string(&written[1]).unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
