//! The `whisper-report` driver: one gate pipeline, written once.
//!
//! `whisper-report [EXPERIMENT] [FLAGS]` regenerates the paper's tables
//! and figures; [`usage`] (what `--help` prints) lists every flag and
//! experiment from the same `FLAGS` table the parser reads. [`run`]
//! is the whole program: parse and validate, produce `results` (run the
//! selected applications, or decode a `--from-trace` archive), run the
//! selected gates in `RUN_ORDER`, write every requested document,
//! print the report, and only then pick the exit code. Stdout carries
//! only the report text; diagnostics go to stderr through the `pmobs`
//! logger, and `--quiet` silences everything below error level.
//!
//! Applications run in parallel across one worker per core by default;
//! `--parallel N` overrides the worker count (`--parallel 1` forces the
//! serial runner) and never changes a result. `--threads N` (default 4,
//! range 1..=[`MAX_WORKER_THREADS`]) sets how many logical clients the
//! seeded scheduler interleaves *inside* redis, memcached, and vacation
//! (their serve and crash workloads included) — unlike `--parallel` it
//! changes the traces (`--threads 1` removes their cross-thread epoch
//! dependencies), so it is echoed back as `config.worker_threads` in
//! the JSON report.
//!
//! Every flag either changes what [`run`]'s one path does or is a
//! usage error (exit 2, before anything runs). `--apps a,b,c` selects the rows of the suite run *and* of
//! every gate that re-runs workloads (serve and the crash campaign).
//!
//! `--dump-traces DIR` archives each application's event stream as a
//! binary `.wtr` file (the `pmtrace::codec` format); `--from-trace
//! FILE` re-analyzes such an archive offline instead of running a
//! workload, through the same gates and the same EXPERIMENT selection.
//! The archive is the run's only row, so `--apps` and `--dump-traces`
//! beside it are usage errors; so are `--serve`, `--profile`,
//! `--crash`, `--crossval` and `--optimize` (and their `-json` forms),
//! the gates that re-run live workloads rather than read a trace.
//!
//! # Gates
//!
//! Each gate appends a table to the text report, fills its section of
//! the JSON report, and — through its `--<gate>-json PATH` flag, which
//! implies the gate — writes that section alone to PATH. All outputs of
//! all gates are written before a failing gate's exit code is returned;
//! when several fail, [`exit_code`] picks 3 → 4 → 6 → 5.
//!
//! * `--serve` — the open-loop serving engine ([`crate::serve`]): each
//!   `--apps` row is calibrated across sharded machines, then swept
//!   across offered-load points under paced or bursty arrivals
//!   (`--serve-arrival`, default bursty; `--serve-shards`, default 4,
//!   at most [`serve::SERVE_KEYS`] since requests route by key; each
//!   implies `--serve`),
//!   giving a throughput vs p50/p90/p99/p999 simulated-latency curve
//!   per persistence mechanism. `--profile` (implies `--serve`)
//!   attributes each request's simulated time to queue / replay /
//!   fence-stall phases ([`crate::profile`]).
//! * `--trace PATH` — not a gate, but a step between serve and check:
//!   the simulated-time tracing subsystem (`pmobs::trace`) records the
//!   suite run and the serving sweep, and the merged tracks are
//!   streamed to PATH as Chrome trace-event JSON. Every timestamp is on
//!   the simulated clock, so the file is byte-identical across hosts
//!   and `--parallel` settings. Tracing is off again before the later
//!   gates re-run workloads internally.
//! * `--check` — the `pmcheck` persistency checker over every trace;
//!   **exit 3** on any error-severity violation. `--check-rules ID,..`
//!   restricts the checker to the named rules (implies `--check`; an
//!   unknown id is a usage error); the selection is recorded as
//!   `rules_enabled` so a filtered report cannot pass for a full one.
//! * `--check-graph DIR` — the per-app epoch dependency graph
//!   ([`crate::hbgraph`], paper §5.2): statistics under `hb.graph`, full
//!   graphs to `DIR/<app>.json` and `DIR/<app>.dot`.
//! * `--crash` — the crash-injection campaign ([`crate::crashtest`]):
//!   each `--apps` row's crash workload is interrupted at evenly spread
//!   fence points, each state is materialized under the crash-spec
//!   lattice, and the app's recovery oracle judges every image;
//!   **exit 4** on any recovery failure.
//! * `--crossval` — cross-validates the happens-before analysis against
//!   the crash campaign ([`crate::crossval`]); **exit 6** if an image
//!   contradicts a line proven durable, the proof set is vacuous, or
//!   the seeded positive control goes dead.
//! * `--optimize` — the ordering optimizer ([`crate::optimize`]):
//!   rewrite every trace, price the speedup, re-check, and re-run the
//!   crash campaign over the elided schedules; **exit 5** on leftover
//!   elidable findings, new errors, or recovery failures.
//!
//! Crash, crossval and optimize are three views of one crash campaign
//! over the `--apps` rows: whichever of them are selected, it runs
//! once, computing only their views.
//!
//! `--json PATH` writes the versioned machine-readable report
//! ([`crate::json_report`], schema v8) and turns on `pmobs` metric
//! recording for the run so its `metrics` block is populated.
//! `--json-det PATH` writes only the deterministic subset
//! ([`json_report::deterministic_subset`]) that CI byte-compares
//! against the committed golden file.

use crate::check;
use crate::crashtest::{self, CampaignConfig};
use crate::crossval::CrossvalReport;
use crate::hbgraph;
use crate::optimize;
use crate::section::Section;
use crate::serve::{self, Arrival, ServeConfig};
use crate::suite::{archived, run_apps, AppResult, SuiteConfig, APP_NAMES, MAX_WORKER_THREADS};
use crate::{json_report, profile, report};
use pmcheck::RuleSet;
use std::io::Write;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Instant;

/// The report gates, in run order (`Profile` rides on `Serve`'s sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `--serve`
    Serve,
    /// `--profile`
    Profile,
    /// `--check`
    Check,
    /// `--check-graph`
    Graph,
    /// `--crash`
    Crash,
    /// `--crossval`
    Crossval,
    /// `--optimize`
    Optimize,
}
use Gate::{Check, Crash, Crossval, Graph, Optimize, Profile, Serve};

impl Gate {
    const ALL: [Gate; 7] = [Serve, Profile, Check, Graph, Crash, Crossval, Optimize];

    /// The gate's section of the JSON report ([`json_report::SECTIONS`]);
    /// `a.b` nests under `a`.
    fn section(self) -> &'static str {
        json_report::gate_section(self)
    }
}

/// Table order of the text report, after the experiment itself.
const PRINT_ORDER: [Gate; 7] = [Check, Graph, Crash, Crossval, Optimize, Serve, Profile];

/// The gates that can fail the run, each with its exit code; when
/// several fail, the first one here names the code.
const EXIT_PRECEDENCE: [(Gate, i32); 4] = [(Check, 3), (Crash, 4), (Crossval, 6), (Optimize, 5)];

/// The process exit code for a run in which `failed` gates failed: 0
/// for none, else the code of the first of check (3), crash (4),
/// crossval (6), optimize (5) among them.
pub fn exit_code(failed: &[Gate]) -> i32 {
    EXIT_PRECEDENCE
        .iter()
        .find(|(gate, _)| failed.contains(gate))
        .map_or(0, |(_, code)| *code)
}

/// What one gate produced: its section — the `--<gate>-json`
/// document, its part of the JSON report and its table in the text
/// report — and why it fails the run, if it does.
struct Outcome {
    section: Section,
    failure: Option<String>,
}

impl Outcome {
    fn gate(&self) -> Gate {
        let id = self.section.id;
        Gate::ALL
            .into_iter()
            .find(|g| g.section() == id)
            .expect("a gate's section")
    }
}

/// A report renderer over the suite results.
type Experiment = fn(&[AppResult]) -> String;

const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("table1", |r| report::table1(r).text()),
    ("fig3", |r| report::fig3(r).text()),
    ("fig4", |r| report::fig4(r).text()),
    ("fig5", |r| report::fig5(r).text()),
    ("fig6", |r| report::fig6(r).text()),
    ("fig10", |r| report::fig10(r).text()),
    ("amplification", |r| report::amplification(r).text()),
    ("ntfraction", |r| report::nt_fraction(r).text()),
    ("smallwrites", |r| report::small_writes(r).text()),
    ("consequences", report::consequences),
    ("all", report::all),
];

/// Everything the command line selects; the default is the plain run
/// (`None`/empty: all experiments, all apps, the serve defaults).
#[derive(Default)]
struct Opts {
    experiment: Option<Experiment>,
    cfg: SuiteConfig,
    apps: Vec<String>,
    /// Selected gates and their `--<gate>-json` paths, by `Gate as usize`.
    gates: [bool; 7],
    docs: [Option<String>; 7],
    rules: RuleSet,
    graph_dir: Option<String>,
    arrival: Option<Arrival>,
    shards: Option<NonZeroUsize>,
    json: Option<String>,
    json_det: Option<String>,
    trace: Option<String>,
    dump_traces: Option<String>,
    from_trace: Option<String>,
    quiet: bool,
    help: bool,
}

/// Placeholder and description of the value a flag takes; a switch
/// (`None`) is set with the value `"true"`.
type Value = Option<(&'static str, &'static str)>;

/// One command-line flag — the parser, `--help`, and the "implies"
/// relation all read this row: its name, its value, the gate it
/// switches on (`--x-json` implies `--x`), and how to store the value.
struct Flag(
    &'static str,
    Value,
    Option<Gate>,
    fn(&mut Opts, &str) -> Result<(), String>,
);

/// Parse a flag's value into its slot.
fn value<T: FromStr<Err: std::fmt::Display>>(slot: &mut T, v: &str) -> Result<(), String> {
    *slot = v.parse().map_err(|e: T::Err| e.to_string())?;
    Ok(())
}

/// [`value`] for a slot that is `None` until its flag is given.
fn given<T: FromStr<Err: std::fmt::Display>>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    *slot = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
    Ok(())
}

fn apps(o: &mut Opts, v: &str) -> Result<(), String> {
    o.apps = v.split(',').map(|s| s.trim().to_string()).collect();
    Ok(())
}

fn rules(o: &mut Opts, v: &str) -> Result<(), String> {
    o.rules = RuleSet::from_ids(v)?;
    Ok(())
}

const PATH: Value = Some(("PATH", "an output path"));
const DIR: Value = Some(("DIR", "a directory"));
const COUNT: Value = Some(("N", "a worker count"));
const THREADS: Value = Some(("1..=64", "a worker count (1..=64)"));
const RULES: Value = Some(("ID,..", "a comma-separated rule-id list"));

// `--threads`' and `--serve-shards`' placeholders and descriptions
// state these bounds.
const _: () = assert!(MAX_WORKER_THREADS == 64);
const _: () = assert!(serve::SERVE_KEYS == 1024);

const FLAGS: [Flag; 28] = [
    Flag("--scale", Some(("X", "a number")), None, |o, v| {
        value(&mut o.cfg.scale, v)
    }),
    Flag("--seed", Some(("N", "an integer")), None, |o, v| {
        value(&mut o.cfg.seed, v)
    }),
    Flag(
        "--apps",
        Some(("a,b,c", "a comma-separated list")),
        None,
        apps,
    ),
    Flag("--parallel", COUNT, None, |o, v| {
        value(&mut o.cfg.parallelism, v)
    }),
    Flag("--threads", THREADS, None, |o, v| {
        value(&mut o.cfg.worker_threads, v)
    }),
    Flag("--json", PATH, None, |o, v| given(&mut o.json, v)),
    Flag("--json-det", PATH, None, |o, v| given(&mut o.json_det, v)),
    Flag("--check", None, Some(Check), |_, _| Ok(())),
    Flag("--check-json", PATH, Some(Check), |o, v| o.doc(Check, v)),
    Flag("--check-rules", RULES, Some(Check), rules),
    Flag("--check-graph", DIR, Some(Graph), |o, v| {
        given(&mut o.graph_dir, v)
    }),
    Flag("--crossval", None, Some(Crossval), |_, _| Ok(())),
    Flag("--crossval-json", PATH, Some(Crossval), |o, v| {
        o.doc(Crossval, v)
    }),
    Flag("--crash", None, Some(Crash), |_, _| Ok(())),
    Flag("--crash-json", PATH, Some(Crash), |o, v| o.doc(Crash, v)),
    Flag("--serve", None, Some(Serve), |_, _| Ok(())),
    Flag("--serve-json", PATH, Some(Serve), |o, v| o.doc(Serve, v)),
    Flag(
        "--serve-arrival",
        Some(("paced|bursty", "paced|bursty")),
        Some(Serve),
        |o, v| given(&mut o.arrival, v),
    ),
    Flag(
        "--serve-shards",
        Some(("1..=1024", "a shard count (1..=1024, the serve key space)")),
        Some(Serve),
        |o, v| given(&mut o.shards, v),
    ),
    Flag("--trace", PATH, None, |o, v| given(&mut o.trace, v)),
    Flag("--profile", None, Some(Profile), |_, _| Ok(())),
    Flag("--profile-json", PATH, Some(Profile), |o, v| {
        o.doc(Profile, v)
    }),
    Flag("--optimize", None, Some(Optimize), |_, _| Ok(())),
    Flag("--optimize-json", PATH, Some(Optimize), |o, v| {
        o.doc(Optimize, v)
    }),
    Flag("--quiet", None, None, |o, v| value(&mut o.quiet, v)),
    Flag("--dump-traces", DIR, None, |o, v| {
        given(&mut o.dump_traces, v)
    }),
    Flag("--from-trace", Some(("FILE", "a file")), None, |o, v| {
        given(&mut o.from_trace, v)
    }),
    Flag("--help", None, None, |o, v| value(&mut o.help, v)),
];

/// The usage text `--help` prints, generated from the flag and
/// experiment tables the parser reads.
pub fn usage() -> String {
    let experiments: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let mut text = format!("usage: whisper-report [{}]", experiments.join("|"));
    for Flag(name, value, ..) in &FLAGS {
        text += &match value {
            Some((placeholder, _)) => format!(" [{name} {placeholder}]"),
            None => format!(" [{name}]"),
        };
    }
    text
}

impl Opts {
    /// Parse and validate the command line; every usage error is
    /// reported here, before anything runs.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                let known = EXPERIMENTS.iter().find(|(name, _)| name == arg);
                let (_, experiment) =
                    known.ok_or_else(|| format!("unknown experiment {arg:?}\n{}", usage()))?;
                if o.experiment.replace(*experiment).is_some() {
                    return Err(format!("a second EXPERIMENT {arg:?}; a run renders one"));
                }
                continue;
            }
            let name = if arg == "-h" { "--help" } else { arg };
            let Flag(_, value, gate, set) = FLAGS
                .iter()
                .find(|f| f.0 == name)
                .ok_or_else(|| format!("unknown flag {arg}\n{}", usage()))?;
            let (v, what) = match *value {
                None => ("true", ""),
                Some((_, what)) => match args.next() {
                    Some(v) => (v.as_str(), what),
                    None => return Err(format!("{name} needs {what}")),
                },
            };
            set(&mut o, v).map_err(|why| format!("{name} needs {what}: {why}"))?;
            if let Some(gate) = *gate {
                o.gates[gate as usize] = true;
            }
            if o.help {
                return Ok(o);
            }
        }
        o.gates[Serve as usize] |= o.on(Profile);
        // An archive is the run's only row, and a trace rather than a
        // workload: nothing to select among, archive again or re-run
        // (serve and the crash campaign re-run live workloads; profile
        // implies serve).
        let rerun = o.on(Serve) || o.on(Crash) || o.on(Crossval) || o.on(Optimize);
        if o.from_trace.is_some() && (rerun || !o.apps.is_empty() || o.dump_traces.is_some()) {
            let what = "--apps, --dump-traces, --serve, --profile, --crash, --crossval, --optimize";
            return Err(format!("--from-trace takes no {what}: it is the only row"));
        }
        for (i, name) in o.apps.iter().enumerate() {
            crate::apps::by_name(name).map_err(|unknown| unknown.to_string())?;
            // A repeated app would run twice and write its trace and
            // graph files twice.
            if o.apps[..i].contains(name) {
                return Err(format!("--apps names {name} more than once"));
            }
        }
        // Requests route to `key % shards`, so a shard past the key
        // space never receives one; each shard is a calibration run.
        if let Some(n) = o.shards.filter(|n| n.get() > serve::SERVE_KEYS) {
            let keys = serve::SERVE_KEYS;
            return Err(format!(
                "--serve-shards {n} out of range; serve routes {keys} keys, so 1..={keys} shards"
            ));
        }
        // A scale that truncates any app to zero ops would silently
        // report rates for work that never ran.
        o.cfg.validate()?;
        Ok(o)
    }

    fn on(&self, gate: Gate) -> bool {
        self.gates[gate as usize]
    }

    /// The `--apps` rows, in the given order; all eleven without it.
    fn names(&self) -> Vec<&str> {
        match self.apps.as_slice() {
            [] => APP_NAMES.to_vec(),
            chosen => chosen.iter().map(String::as_str).collect(),
        }
    }

    /// `--<gate>-json PATH`: also write the gate's document alone.
    fn doc(&mut self, gate: Gate, path: &str) -> Result<(), String> {
        given(&mut self.docs[gate as usize], path)
    }
}

/// Run `whisper-report` with `args` (the command line without the
/// program name), writing the report text to `out`. Returns the process
/// exit code: 0, 2 for a usage or I/O error (nothing has been run or
/// written to `out` on a usage error), or a failing gate's code
/// ([`exit_code`]).
pub fn run(args: &[String], out: &mut dyn Write) -> i32 {
    // `--json`, `--trace` and `--quiet` flip process-global `pmobs`
    // switches; an in-process caller gets them back as it left them.
    let recording = pmobs::enabled();
    let tracing = pmobs::trace::enabled();
    let level = pmobs::logger::level();
    let code = Opts::parse(args)
        .and_then(|o| execute(&o, out))
        .unwrap_or_else(|msg| {
            pmobs::error!("whisper-report: {msg}");
            2
        });
    pmobs::set_enabled(recording);
    pmobs::trace::set_enabled(tracing);
    pmobs::logger::set_level(level);
    if !tracing {
        // Whatever this run recorded and did not export (it failed
        // first, or a sink outlived the export) must not turn up in the
        // next in-process caller's trace.
        pmobs::trace::take_tracks();
    }
    code
}

fn execute(o: &Opts, out: &mut dyn Write) -> Result<i32, String> {
    if o.help {
        eprintln!("{}", usage());
        return Ok(0);
    }
    if o.quiet {
        pmobs::logger::set_level(pmobs::Level::Error);
    }
    // Metric recording stays off unless a machine-readable report was
    // requested: instruments are provably non-perturbing, but the
    // default run should still be the plain one.
    if o.json.is_some() {
        pmobs::set_enabled(true);
    }
    if o.trace.is_some() {
        pmobs::trace::set_enabled(true);
    }
    let results = match &o.from_trace {
        Some(file) => vec![decode_archive(file)?],
        None => run_suite(&o.names(), o)?,
    };

    let mut outcomes = Vec::new();
    for (gates, span, step) in RUN_ORDER {
        if gates.is_empty() {
            step(o, &results)?;
        } else if gates.iter().any(|&gate| o.on(gate)) {
            let _span = pmobs::span!(span);
            pmobs::info!("{span} running...");
            let started = Instant::now();
            outcomes.extend(step(o, &results)?);
            pmobs::info!("{span} finished in {:.2?}", started.elapsed());
        }
    }

    for outcome in &outcomes {
        if let Some(path) = &o.docs[outcome.gate() as usize] {
            write_file(path, outcome.section.json().to_pretty())?;
        }
    }
    if o.json.is_some() || o.json_det.is_some() {
        // Snapshot the registry last, so the report's metrics include
        // everything the run recorded.
        let snap = pmobs::global().snapshot();
        let mut doc = json_report::build(&results, &o.cfg, &snap);
        for outcome in &outcomes {
            doc = json_report::place(doc, &outcome.section);
        }
        if let Some(path) = &o.json {
            write_file(path, doc.to_pretty())?;
        }
        if let Some(path) = &o.json_det {
            write_file(path, json_report::deterministic_subset(&doc).to_pretty())?;
        }
    }

    let mut text = o.experiment.unwrap_or(report::all)(&results) + "\n";
    for gate in PRINT_ORDER {
        for outcome in outcomes.iter().filter(|outcome| outcome.gate() == gate) {
            text = text + "\n" + &outcome.section.text();
        }
    }
    out.write_all(text.as_bytes())
        .map_err(|e| format!("cannot write the report: {e}"))?;

    let mut failed = Vec::new();
    for outcome in &outcomes {
        if let Some(why) = &outcome.failure {
            pmobs::error!("{why} — failing");
            failed.push(outcome.gate());
        }
    }
    Ok(exit_code(&failed))
}

fn write_file(path: &str, contents: String) -> Result<(), String> {
    written(path, std::fs::write(path, contents))
}

/// The outcome of writing `path`, as the driver reports it.
fn written(path: &str, outcome: std::io::Result<()>) -> Result<(), String> {
    outcome.map_err(|e| format!("cannot write {path}: {e}"))?;
    pmobs::info!("{path} written");
    Ok(())
}

/// `--from-trace FILE`: one result decoded from a `.wtr` archive, or
/// the message [`run`] reports before it exits 2.
pub fn decode_archive(file: &str) -> Result<AppResult, String> {
    let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let events =
        pmtrace::decode_events(&bytes).map_err(|e| format!("cannot decode {file}: {e}"))?;
    Ok(archived(file, events))
}

/// Run the selected applications (and archive them, `--dump-traces`).
fn run_suite(names: &[&str], o: &Opts) -> Result<Vec<AppResult>, String> {
    pmobs::info!("running {} app(s) under {:?}...", names.len(), o.cfg);
    let started = Instant::now();
    let results = run_apps(names, &o.cfg);
    pmobs::info!("suite finished in {:.2?}", started.elapsed());
    if let Some(dir) = &o.dump_traces {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for r in &results {
            let path = format!("{dir}/{}.wtr", r.run.name);
            std::fs::write(&path, pmtrace::encode_events(&r.run.events))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            pmobs::info!("trace archived to {path}");
        }
    }
    Ok(results)
}

/// One step of the post-run sequence: a run serving one or more gates,
/// or the trace export.
type Step = fn(&Opts, &[AppResult]) -> Result<Vec<Outcome>, String>;

/// The post-run sequence: each step runs when any of its gates is
/// selected, under its wall-clock span (`span.<name>` in `metrics`),
/// and the trace export (no gates: always visited, a no-op without
/// `--trace`) comes before the first step that re-runs workloads.
/// Crash, crossval and optimize are views of one crash campaign.
const RUN_ORDER: [(&[Gate], &str, Step); 5] = [
    (&[Serve], "suite.serve", serve_gate),
    (&[], "", export_trace),
    (&[Check], "suite.check", check_gate),
    (&[Graph], "suite.hbgraph", graph_gate),
    (
        &[Crash, Crossval, Optimize],
        "suite.campaign",
        campaign_gates,
    ),
];

/// `--serve`, and `--profile` riding on the same sweep, over the
/// `--apps` rows. Reuses the suite's scale, seed, and worker count.
fn serve_gate(o: &Opts, _: &[AppResult]) -> Result<Vec<Outcome>, String> {
    let base = ServeConfig::from_suite(&o.cfg);
    let scfg = ServeConfig {
        shards: o.shards.map_or(base.shards, NonZeroUsize::get),
        arrival: o.arrival.unwrap_or(base.arrival),
        ..base
    };
    // The profiles come out of the same sweep; without `--profile`
    // they are dropped.
    let (reports, profiles) = serve::serve_apps_profiled(&o.names(), &scfg);
    let mut outcomes = vec![Outcome {
        section: serve::section(&reports, &scfg),
        failure: None,
    }];
    if o.on(Profile) {
        outcomes.push(Outcome {
            section: profile::section(&profiles, &scfg),
            failure: None,
        });
    }
    Ok(outcomes)
}

/// `--trace`: drain the collected tracks, stream them to PATH as Chrome
/// trace-event JSON, and disable tracing — later gates re-run workloads
/// internally and must not record into a file already written.
fn export_trace(o: &Opts, _: &[AppResult]) -> Result<Vec<Outcome>, String> {
    if let Some(path) = &o.trace {
        let tracks = pmobs::trace::take_tracks();
        pmobs::trace::set_enabled(false);
        pmobs::info!("chrome trace: {} track(s)", tracks.len());
        let streamed = std::fs::File::create(path).and_then(|file| {
            let mut file = std::io::BufWriter::new(file);
            pmobs::trace::write_chrome(&tracks, &mut file)?;
            file.flush()
        });
        written(path, streamed)?;
    }
    Ok(Vec::new())
}

/// `--check`: the persistency checker over every trace, restricted to
/// the `--check-rules` selection. Error-severity findings fail the run.
fn check_gate(o: &Opts, results: &[AppResult]) -> Result<Vec<Outcome>, String> {
    let checks = check::check_results_with(results, o.rules);
    let errors = check::total_errors(&checks);
    Ok(vec![Outcome {
        section: check::section(&checks, o.rules),
        failure: (errors > 0).then(|| format!("pmcheck: {errors} error-severity violation(s)")),
    }])
}

/// `--check-graph DIR`: the epoch dependency graph of every result,
/// written to `<DIR>/<app>.json` + `<DIR>/<app>.dot`.
fn graph_gate(o: &Opts, results: &[AppResult]) -> Result<Vec<Outcome>, String> {
    let dir = o.graph_dir.as_deref().expect("--check-graph takes DIR");
    let graphs = hbgraph::build_graphs(results);
    let written = hbgraph::write_graphs(&graphs, std::path::Path::new(dir))
        .map_err(|e| format!("cannot write graphs to {dir}: {e}"))?;
    pmobs::info!("{} graph file(s) written to {dir}", written.len());
    Ok(vec![Outcome {
        section: hbgraph::section(&graphs),
        failure: None,
    }])
}

/// `--crash`, `--crossval` and `--optimize`: one crash campaign over
/// the `--apps` rows, computing only the views of the selected gates.
///
/// * crash: any recovery failure fails the run;
/// * crossval: every crash image against the HB analysis's
///   proven-durable set, plus the seeded epoch-race positive control —
///   an order-impossible image, a vacuous proof set, or a dead control
///   fails the run;
/// * optimize: rewrite every trace, price the speedup, and judge the
///   campaign over the elided schedules — any re-check or
///   crash-soundness violation fails the run.
fn campaign_gates(o: &Opts, results: &[AppResult]) -> Result<Vec<Outcome>, String> {
    let ccfg = CampaignConfig::from_suite(&o.cfg);
    let campaign = crashtest::campaign(&ccfg, &o.names(), |gate| o.on(gate));
    let mut outcomes = Vec::new();
    if o.on(Crash) {
        let failures = crashtest::total_failures(&campaign.crash);
        outcomes.push(Outcome {
            section: crashtest::section(&campaign.crash, &ccfg),
            failure: (failures > 0)
                .then(|| format!("crash campaign: {failures} recovery failure(s)")),
        });
    }
    if o.on(Crossval) {
        let report = CrossvalReport::new(campaign.crossval, &ccfg);
        let failure = format!(
            "crossval gate: {} order-impossible image state(s), {} proven line(s), control {}",
            report.total_violations(),
            report.total_proven(),
            if report.control.passed() {
                "ok"
            } else {
                "dead"
            }
        );
        outcomes.push(Outcome {
            section: report.section(),
            failure: (!report.passed()).then_some(failure),
        });
    }
    if o.on(Optimize) {
        let report = optimize::report(results, campaign.optimized, o.cfg.parallelism);
        let violations = report.gate_violations();
        outcomes.push(Outcome {
            section: optimize::section(&report),
            failure: (!violations.is_empty())
                .then(|| format!("optimize gate: {}", violations.join("; "))),
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_accepted_flag_is_in_the_usage_text() {
        let text = usage();
        for Flag(name, ..) in &FLAGS {
            assert!(text.contains(&format!("[{name}")), "{name} missing");
        }
        for (name, _) in EXPERIMENTS {
            assert!(text.contains(name), "{name} missing");
        }
    }

    #[test]
    fn json_flags_imply_their_gate_and_profile_implies_serve() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        for Flag(name, _, gate, _) in &FLAGS {
            let (Some(gate), true) = (*gate, name.ends_with("-json")) else {
                continue;
            };
            let o = Opts::parse(&args(&format!("{name} out.json"))).unwrap();
            assert!(o.on(gate), "{name} implies {gate:?}");
            assert_eq!(o.docs[gate as usize].as_deref(), Some("out.json"));
        }
        let o = Opts::parse(&args("--profile")).unwrap();
        assert!(o.on(Profile) && o.on(Serve));
        // The serve knobs act only through the sweep, so each runs it.
        for flag in ["--serve-shards 8", "--serve-arrival paced"] {
            let o = Opts::parse(&args(flag)).unwrap();
            assert!(o.on(Serve) && !o.on(Profile), "{flag} implies --serve");
        }
        assert!(!Opts::parse(&args("--serve")).unwrap().on(Profile));
    }

    #[test]
    fn from_trace_refuses_the_rerun_gates_before_reading_the_archive() {
        // No `missing.wtr` exists: the refusal comes from the command
        // line alone, in either order.
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        for gate in ["serve", "profile", "crash", "crossval", "optimize"] {
            for flag in [format!("--{gate}"), format!("--{gate}-json out.json")] {
                for line in [
                    format!("--from-trace missing.wtr {flag}"),
                    format!("{flag} --from-trace missing.wtr"),
                ] {
                    let Err(why) = Opts::parse(&args(&line)) else {
                        panic!("{line}: accepted");
                    };
                    assert!(why.starts_with("--from-trace takes no "), "{line}: {why}");
                }
            }
        }
        // The trace-reading gates parse; the archive is read later.
        assert!(Opts::parse(&args("--from-trace missing.wtr --check")).is_ok());
    }
}
