//! `trace-export`: what `whisper-report --trace` adds.
//!
//! One iteration turns `pmobs::trace` on, runs and serves six
//! applications at quick scale, then takes the tracks, builds the
//! Chrome trace-event document, serializes it, writes it and drops it —
//! `export_trace` in `whisper_report.rs`, step by step. It is the only
//! workload where `pmobs::trace` does any work.
//!
//! Six applications, not eleven, deliberately: with all eleven the
//! process reaches 3–4 GB and page-fault time swings the export between
//! identical runs by a factor of three, so no bound could hold.

use super::{suite_cfg, Outcome, ScratchDir, Workload, TINY_SCALE};
use crate::spans::Spans;
use crate::stats::Fnv;
use std::path::PathBuf;
use std::time::Instant;
use whisper::serve::{serve_apps, AppServe, ServeConfig};
use whisper::suite::{run_apps, AppResult, SuiteConfig};

/// The traced subset: the lightest client (redis), both NVML micro
/// apps, one Mnemosyne app and two PMFS apps — every access layer,
/// none of the trace-heavy rows (echo, nstore, vacation, nfs).
pub const APPS: [&str; 6] = ["redis", "ctree", "hashmap", "memcached", "exim", "mysql"];

/// The workload's state.
#[derive(Debug)]
pub struct TraceExport {
    cfg: SuiteConfig,
    scfg: ServeConfig,
    dir: ScratchDir,
}

impl TraceExport {
    /// Quick scale (0.05; the smoke run shrinks it).
    pub fn setup(seed: u64, tiny: bool) -> TraceExport {
        let cfg = suite_cfg(if tiny { TINY_SCALE } else { 0.05 }, seed);
        TraceExport {
            cfg,
            scfg: ServeConfig::from_suite(&cfg),
            dir: ScratchDir::create("trace-export")
                .expect("scratch directory beside the executable"),
        }
    }

    fn run(&self) -> (Vec<AppResult>, Vec<AppServe>) {
        (run_apps(&APPS, &self.cfg), serve_apps(&APPS, &self.scfg))
    }
}

/// What one iteration hands to `verify`.
#[derive(Debug)]
pub struct ExportOutput {
    path: PathBuf,
    trace_events: u64,
    tracks: u64,
    rows: usize,
}

impl Workload for TraceExport {
    type Output = ExportOutput;

    fn iterate(&mut self, spans: &mut Spans) -> ExportOutput {
        let path = self.dir.path().join("trace.json");
        pmobs::trace::set_enabled(true);
        let ran = spans.scope("trace.traced_run", "", |_| self.run());
        let tracks = spans.scope("pmobs.take_tracks", "", |_| pmobs::trace::take_tracks());
        pmobs::trace::set_enabled(false);
        let doc = spans.scope("pmobs.export_dom", "", |_| {
            pmobs::trace::export_chrome(&tracks)
        });
        let text = spans.scope("pmobs.serialize", "", |_| {
            let mut text = doc.to_compact();
            text.push('\n');
            text
        });
        spans.scope("trace.write", "", |_| {
            std::fs::write(&path, &text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        });
        let out = ExportOutput {
            path,
            trace_events: doc
                .get("traceEvents")
                .and_then(pmobs::Json::as_arr)
                .map_or(0, |a| a.len() as u64),
            tracks: tracks.len() as u64,
            rows: ran.0.len() + ran.1.len(),
        };
        spans.scope("pmobs.drop", "", |_| drop((ran, tracks, doc, text)));
        out
    }

    /// The digest is over the bytes on disk — what a user would load
    /// into Perfetto — read back outside the timed region.
    fn verify(&self, out: ExportOutput) -> Outcome {
        let mut o = Outcome::default();
        let bytes = std::fs::read(&out.path);
        o.check(bytes.is_ok(), || {
            format!("cannot read back {}", out.path.display())
        });
        let bytes = bytes.unwrap_or_default();
        o.digest = Fnv::default().bytes(&bytes).finish();
        o.events = out.trace_events;
        o.count("pmobs.trace_events", out.trace_events);
        o.count("pmobs.trace_bytes", bytes.len() as u64);
        o.count("pmobs.tracks", out.tracks);
        o.check(out.rows == 2 * APPS.len(), || {
            format!(
                "{} of {} run+serve rows came back",
                out.rows,
                2 * APPS.len()
            )
        });
        o.check(out.trace_events > out.tracks && out.tracks > 0, || {
            "the exported trace is empty".into()
        });
        o.check(bytes.ends_with(b"]}\n"), || {
            "the exported trace is not a closed JSON document".into()
        });
        o
    }

    /// The same run with `pmobs::trace` off: the denominator of
    /// `pmobs.record_overhead_x`.
    fn aux(&mut self) -> Vec<(&'static str, f64)> {
        let t0 = Instant::now();
        let ran = self.run();
        let wall = t0.elapsed().as_secs_f64();
        drop(ran);
        vec![("trace.plain_run_s", wall)]
    }
}
