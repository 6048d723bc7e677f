//! The acceptance gate for the checker itself: every rule fires on the
//! seeded buggy-log trace with exactly the planted counts, and the
//! checker is single-pass.

use pmcheck::{check_events, seeded, Checker, Rule, Severity};

#[test]
fn every_rule_fires_with_exact_counts() {
    let events = seeded::buggy_log_events();
    let report = check_events(&events);

    for (rule, errors, warns) in seeded::EXPECTED {
        let got_errors = report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.severity == Severity::Error)
            .count();
        let got_warns = report
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.severity == Severity::Warn)
            .count();
        assert_eq!(
            (got_errors, got_warns),
            (errors, warns),
            "{}: expected {errors} error(s) + {warns} warning(s), findings: {:#?}",
            rule.id(),
            report.findings
        );
    }
    assert_eq!(report.errors(), seeded::EXPECTED_ERRORS);
    assert_eq!(report.warnings(), seeded::EXPECTED_WARNINGS);
    assert_eq!(
        report.findings.len(),
        seeded::EXPECTED_ERRORS + seeded::EXPECTED_WARNINGS,
        "no unplanned findings"
    );
}

#[test]
fn rule_ids_are_the_documented_strings() {
    let report = check_events(&seeded::buggy_log_events());
    let mut seen: Vec<&str> = report.findings.iter().map(|f| f.rule.id()).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        vec![
            "P-CROSS-DEP",
            "P-DOUBLE-FENCE",
            "P-EPOCH-RACE",
            "P-REDUNDANT-FLUSH",
            "P-TX-ATOMICITY",
            "P-UNFLUSHED",
            "P-UNORDERED",
        ]
    );
}

#[test]
fn checker_is_single_pass() {
    // The event-visit counter equals the trace length: each event is
    // folded exactly once, with no second traversal or replay.
    let events = seeded::buggy_log_events();
    let report = check_events(&events);
    assert_eq!(report.events_visited, events.len() as u64);

    // Incremental feeding matches the whole-trace entry point, so the
    // checker can stream a trace that is still being recorded.
    let mut c = Checker::new();
    for ev in &events {
        c.push(ev);
    }
    let streamed = c.finish();
    assert_eq!(streamed.findings, report.findings);
    assert_eq!(streamed.events_visited, report.events_visited);
}

#[test]
fn findings_carry_context() {
    let report = check_events(&seeded::buggy_log_events());
    let unflushed = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::Unflushed)
        .expect("seeded");
    // Bug 1: thread 0's tx 3 commits entry 4 (line 4) dirty at 44 ns.
    assert_eq!(unflushed.tid, pmtrace::Tid(0));
    assert_eq!(unflushed.tx, Some(3));
    assert_eq!(unflushed.at_ns, 44);
    assert_eq!(unflushed.line, Some(pmem::Line(4)));
    assert!(unflushed.message.contains("tx 3"), "{}", unflushed.message);

    let races: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::CrossDep)
        .collect();
    // Bug 6: attributed to the second storer, thread 1, at 92 ns.
    assert_eq!(races[0].tid, pmtrace::Tid(1));
    assert_eq!(races[0].at_ns, 92);
    assert_eq!(races[0].line, Some(pmem::Line(10)));
    // Bug 7 plants the second cross dependency (entry 11, 102 ns).
    assert_eq!(races[1].tid, pmtrace::Tid(1));
    assert_eq!(races[1].at_ns, 102);
    assert_eq!(races[1].line, Some(pmem::Line(11)));

    let epoch_race = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::EpochRace)
        .expect("seeded");
    // Bug 7: thread 1's takeover flush at 106 ns races thread 0's
    // pending persist of entry 11.
    assert_eq!(epoch_race.tid, pmtrace::Tid(1));
    assert_eq!(epoch_race.at_ns, 106);
    assert_eq!(epoch_race.line, Some(pmem::Line(11)));

    let atomicity = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::TxAtomicity)
        .expect("seeded");
    // Bug 8: thread 0 patches tx-managed entry 12 at 130 ns with no
    // transaction open.
    assert_eq!(atomicity.tid, pmtrace::Tid(0));
    assert_eq!(atomicity.at_ns, 130);
    assert_eq!(atomicity.line, Some(pmem::Line(12)));
    assert_eq!(atomicity.tx, None);
}
