//! Command line: one run, a run set, `--compare`, `--smoke`.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::compare::{self, metric_values, plain_runs};
use crate::runner::{self, Params};
use crate::stats::{median, spread};
use crate::workloads::ScratchDir;
use pmobs::Json;
use std::process::Command;
use std::time::Instant;

const USAGE: &str = "\
usage: whisper-perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                    [--runs N] [--out PATH]
       whisper-perf --compare A.json B.json
       whisper-perf --smoke

workloads: suite-default, trace-consumers, ci-gates, trace-export

--seconds S   keep iterating until S seconds are measured (default 30; at
              least three iterations whatever S)
--trace 1     record the runner's spans and print the per-layer metrics
              instead of the end-to-end ones
--runs N      run each workload N times, each in its own process, with seeds
              SEED, SEED+1, ... (default 1); `--workload all` runs all four
--out PATH    write the run set (every run's samples, digest, counts, host
              record, spans) as JSON
--compare     judge run set B against run set A, metric by metric
--smoke       one tiny iteration of every workload, plain and traced;
              exits 1 on any failed check";

/// Exit code for a failed run, comparison or check.
const FAILED: i32 = 1;
/// Exit code for a command line that cannot be understood.
const USAGE_ERROR: i32 = 2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 30.0,
        traced: false,
        runs: 1,
        out: None,
        compare: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--runs" => {
                a.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--runs needs a positive integer")?;
            }
            "--out" => a.out = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            "--smoke" => a.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes =
        usize::from(a.workload.is_some()) + usize::from(a.compare.is_some()) + usize::from(a.smoke);
    if modes != 1 {
        return Err("give exactly one of --workload, --compare, --smoke".into());
    }
    if let Some(w) = &a.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected all or one of {WORKLOADS:?}"
            ));
        }
    }
    Ok(a)
}

/// Run the command line; returns the process exit code. `started` is
/// when the process started.
pub fn main(args: &[String], started: Instant) -> i32 {
    let a = match parse(args) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("whisper-perf: {msg}");
            }
            eprintln!("{USAGE}");
            return USAGE_ERROR;
        }
    };
    let outcome = if a.smoke {
        smoke(started)
    } else if let Some((pa, pb)) = &a.compare {
        compare_files(pa, pb)
    } else if a.workload.as_deref() == Some("all") || a.runs > 1 {
        run_set(&a)
    } else {
        run_one(&a, started)
    };
    match outcome {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("whisper-perf: {msg}");
            FAILED
        }
    }
}

fn wrap_runs(runs: Vec<Json>) -> Json {
    Json::obj()
        .field("benchmark", "whisper-perf")
        .field("schema", 1u64)
        .field("runs", runs)
}

fn write_out(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One workload, in this process. A failed check is reported in the
/// result line (`correct`, `failed`), not by the exit code; only a run
/// that could not be measured at all fails.
fn run_one(a: &Args, started: Instant) -> Result<(), String> {
    let params = Params {
        workload: a.workload.clone().expect("checked by parse"),
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        tiny: false,
    };
    let result = runner::run(&params, started)?;
    if let Some(path) = &a.out {
        write_out(path, &wrap_runs(vec![result.to_json()]))?;
    }
    print!("{}", result.human());
    println!("{}", result.result_line());
    Ok(())
}

/// `--workload all` and `--runs N`: every run in a process of its own
/// (this executable, re-executed), run after run so that host drift
/// spreads over all workloads alike.
fn run_set(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = ScratchDir::create("run-set").map_err(|e| format!("no scratch directory: {e}"))?;
    let workloads: Vec<&str> = match a.workload.as_deref() {
        Some("all") => WORKLOADS.to_vec(),
        Some(one) => vec![one],
        None => unreachable!("checked by parse"),
    };
    let mut runs = Vec::new();
    let mut failed = 0.0;
    for i in 0..a.runs as u64 {
        for w in &workloads {
            let out = dir.path().join(format!("{w}-{i}.json"));
            let status = Command::new(&exe)
                .args(["--workload", w])
                .args(["--seed", &(a.seed + i).to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("cannot start {w}: {e}"))?;
            if !status.success() {
                return Err(format!("{w} (seed {}) failed: {status}", a.seed + i));
            }
            let doc = compare::load(&out.to_string_lossy())?;
            for run in doc.get("runs").and_then(Json::as_arr).unwrap_or_default() {
                failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                runs.push(run.clone());
            }
        }
    }
    let set = wrap_runs(runs);
    if !a.traced {
        print!("{}", spread_table(&set, &workloads));
    }
    if let Some(path) = &a.out {
        write_out(path, &set)?;
    }
    if failed > 0.0 {
        return Err(format!(
            "{failed} correctness check(s) failed across the set"
        ));
    }
    Ok(())
}

/// Median and IQR ÷ median of every end-to-end metric over the runs of
/// a set — the steadiness the bounds have to clear.
fn spread_table(set: &Json, workloads: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<16} {:<13} {:>5} {:>15} {:>9} {:>7}\n",
        "workload", "metric", "runs", "median", "spread %", "bound %"
    );
    for w in workloads {
        let runs = plain_runs(set, w);
        for m in END_TO_END {
            let values = metric_values(&runs, m.name);
            let _ = writeln!(
                out,
                "{w:<16} {:<13} {:>5} {:>15.4} {:>9.2} {:>7.1}",
                m.name,
                values.len(),
                median(&values).unwrap_or(f64::NAN),
                100.0 * spread(&values),
                100.0 * m.bound
            );
        }
    }
    out
}

fn compare_files(pa: &str, pb: &str) -> Result<(), String> {
    let (text, ok) = compare::compare(&compare::load(pa)?, &compare::load(pb)?);
    print!("{text}");
    if ok {
        Ok(())
    } else {
        Err(format!("{pb} does not agree with {pa} within the bounds"))
    }
}

/// One tiny traced round (one plain and one recorded iteration, plus
/// the warm-up) of every workload, in this process.
fn smoke(started: Instant) -> Result<(), String> {
    let mut failed = 0;
    for w in WORKLOADS {
        let params = Params {
            workload: w.to_string(),
            seed: 42,
            seconds: 0.0,
            traced: true,
            tiny: true,
        };
        let result = runner::run(&params, started)?;
        println!(
            "smoke {w:<16} digest {:016x}  {} checks, {} failed",
            result.reference.digest,
            result.attempted,
            result.failed()
        );
        for f in &result.failures {
            println!("  FAILED: {f}");
        }
        failed += result.failed();
    }
    if failed > 0 {
        return Err(format!("{failed} check(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&args("--workload ci-gates --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("ci-gates"));
        assert_eq!((a.seed, a.seconds, a.traced, a.runs), (7, 10.0, true, 1));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload ci-gates --smoke",
            "--workload ci-gates --trace 2",
            "--workload ci-gates --seed -1",
            "--workload ci-gates --seconds nan",
            "--workload ci-gates --runs 0",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} was accepted");
            assert_eq!(main(&args(bad), Instant::now()), USAGE_ERROR, "{bad:?}");
        }
    }
}
