//! `--compare A.json B.json`: is B no worse than A?
//!
//! Both files are run sets written by `--out`. For every pairing of
//! end-to-end metric and workload the two sides' medians and quartiles
//! (over the runs in each set) are put side by side and judged against
//! the metric's bound, by the rule of the choosing-metrics guide §6.5:
//! a spread wider than the bound makes the pairing *unresolved*, not
//! unchanged, unless every run of B reads better than every run of A.
//! Digest and count mismatches between runs of the same workload and
//! seed print first: numbers for different work are not comparable.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use pmobs::Json;
use std::fmt::Write as _;

/// The judgement on one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's values against A's for a metric with this direction and
/// bound.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(med_a), Some(med_b)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    if spread(a).max(spread(b)) > bound {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let all_better = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if better.worse_by(med_a, med_b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Read a run set written by `--out`.
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    pmobs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The plain (untraced) runs of one workload in a run set.
pub fn plain_runs<'a>(set: &'a Json, workload: &str) -> Vec<&'a Json> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced") == Some(&Json::Bool(false))
        })
        .collect()
}

/// One metric's value in each of `runs`.
pub fn metric_values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Identity mismatches between runs of the same workload and seed.
fn mismatches(workload: &str, a: &[&Json], b: &[&Json]) -> Vec<String> {
    let mut out = Vec::new();
    for ra in a {
        let seed = ra.get("seed");
        let Some(rb) = b.iter().find(|r| r.get("seed") == seed) else {
            continue;
        };
        let seed = seed.and_then(Json::as_f64).unwrap_or(-1.0);
        for key in ["stats_digest", "events", "counts"] {
            if ra.get(key) != rb.get(key) {
                out.push(format!(
                    "MISMATCH {workload} seed {seed}: {key} differs — the two sides computed different things"
                ));
            }
        }
    }
    out
}

/// The comparison table, and whether every pairing was `ok` with no
/// identity mismatch.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut head = String::new();
    let mut body = String::new();
    let mut all_ok = true;
    let mut tally = [0usize; 3];
    let _ = writeln!(
        body,
        "{:<16} {:<13} {:>13} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse %", "bound"
    );
    for workload in WORKLOADS {
        let (runs_a, runs_b) = (plain_runs(a, workload), plain_runs(b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            let _ = writeln!(head, "MISSING {workload}: no plain run on one side");
            all_ok = false;
            continue;
        }
        for line in mismatches(workload, &runs_a, &runs_b) {
            let _ = writeln!(head, "{line}");
            all_ok = false;
        }
        for m in END_TO_END {
            let (va, vb) = (
                metric_values(&runs_a, m.name),
                metric_values(&runs_b, m.name),
            );
            let v = verdict(m.better, m.bound, &va, &vb);
            tally[v as usize] += 1;
            all_ok &= v == Verdict::Ok;
            let _ = writeln!(body, "{}", row(workload, &m, &va, &vb, v));
        }
    }
    let _ = writeln!(
        body,
        "{} ok, {} regressed, {} unresolved",
        tally[Verdict::Ok as usize],
        tally[Verdict::Regressed as usize],
        tally[Verdict::Unresolved as usize]
    );
    (head + &body, all_ok)
}

fn row(workload: &str, m: &EndToEnd, a: &[f64], b: &[f64], v: Verdict) -> String {
    let side = |vals: &[f64]| {
        let med = median(vals).unwrap_or(f64::NAN);
        let (q1, q3) = quartiles(vals).unwrap_or((f64::NAN, f64::NAN));
        (med, format!("{q1:.4}..{q3:.4}"))
    };
    let ((med_a, iqr_a), (med_b, iqr_b)) = (side(a), side(b));
    format!(
        "{workload:<16} {:<13} {med_a:>13.4} {iqr_a:>13} {med_b:>13.4} {iqr_b:>13} {:>8.2} {:>6.1}  {}",
        m.name,
        100.0 * m.better.worse_by(med_a, med_b),
        100.0 * m.bound,
        v.as_str()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            verdict(Better::Lower, 0.07, &steady, &[10.3, 10.4, 10.2]),
            Verdict::Ok
        );
        // 20 % slower, tight spread: regressed.
        assert_eq!(
            verdict(Better::Lower, 0.07, &steady, &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        // 20 % faster is not a regression.
        assert_eq!(
            verdict(Better::Lower, 0.07, &steady, &[8.0, 8.1, 7.9]),
            Verdict::Ok
        );
        // Direction flips for a rate.
        assert_eq!(
            verdict(Better::Higher, 0.07, &steady, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, whatever the medians.
        let wild = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(Better::Lower, 0.07, &wild, &steady),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            verdict(Better::Lower, 0.07, &wild, &[5.0, 5.1, 4.9]),
            Verdict::Ok
        );
        // Nothing to compare.
        assert_eq!(
            verdict(Better::Lower, 0.07, &[], &steady),
            Verdict::Unresolved
        );
    }

    fn set(wall: &[f64], digest: &str) -> Json {
        let runs: Vec<Json> = WORKLOADS
            .iter()
            .flat_map(|w| {
                wall.iter().enumerate().map(move |(i, &s)| {
                    let mut metrics = Json::obj();
                    for m in END_TO_END {
                        let v = if m.name == "wall_s" { s } else { 1.0 };
                        metrics = metrics.field(m.name, Json::obj().field("value", v));
                    }
                    Json::obj()
                        .field("workload", *w)
                        .field("seed", i as u64)
                        .field("traced", false)
                        .field("stats_digest", digest)
                        .field("events", 5u64)
                        .field("counts", Json::obj().field("suite.epochs", 3u64))
                        .field("metrics", metrics)
                })
            })
            .collect();
        Json::obj().field("runs", runs)
    }

    #[test]
    fn a_set_agrees_with_itself_twenty_times() {
        let a = set(&[1.0, 1.01, 0.99], "aa");
        let (text, ok) = compare(&a, &a);
        assert!(ok, "{text}");
        assert!(text.contains("20 ok, 0 regressed, 0 unresolved"), "{text}");
    }

    #[test]
    fn slower_side_regresses_and_digest_mismatch_prints_first() {
        let a = set(&[1.0, 1.01, 0.99], "aa");
        let b = set(&[1.3, 1.31, 1.29], "bb");
        let (text, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(text.starts_with("MISMATCH suite-default seed 0: stats_digest"));
        assert!(text.contains("16 ok, 4 regressed, 0 unresolved"), "{text}");
        let (text, ok) = compare(&a, &Json::obj().field("runs", Vec::<Json>::new()));
        assert!(!ok);
        assert!(text.starts_with("MISSING suite-default"), "{text}");
    }
}
