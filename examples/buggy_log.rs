//! `buggy_log` — the seeded-bug showcase for the `pmcheck` checker.
//!
//! Replays the hand-scripted "buggy log" trace (a tiny two-thread
//! append-only persistent log with eight planted persistency bugs,
//! `pmcheck::seeded`) through the checker and prints every finding:
//! each of the seven rules fires at least once — including the
//! happens-before rules (`P-CROSS-DEP`, `P-EPOCH-RACE`) and the
//! transaction-atomicity rule. This is the
//! demonstration that the checker catches what it claims to catch;
//! the `pmcheck` integration tests assert the exact counts.
//!
//! ```text
//! cargo run --example buggy_log
//! ```
//!
//! Exits non-zero (like `whisper-report --check`) because the trace
//! contains error-severity violations — that is the point.

use pmcheck::{check_events, seeded, Severity};

fn main() {
    let events = seeded::buggy_log_events();
    let report = check_events(&events);

    println!(
        "buggy log: {} trace events, {} finding(s)\n",
        report.events_visited,
        report.findings.len()
    );
    for f in &report.findings {
        println!("  {f}");
    }
    println!("\nby rule:");
    for (rule, errors, warns) in report.by_rule() {
        println!("  {:<18} {errors} error(s), {warns} warning(s)", rule.id());
    }
    println!(
        "\ntotal: {} error(s), {} warning(s)",
        report.errors(),
        report.warnings()
    );

    if report.count_severity(Severity::Error) > 0 {
        std::process::exit(3);
    }
}
