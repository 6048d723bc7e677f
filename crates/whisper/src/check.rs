//! Suite-level persistency checking (`whisper-report --check`).
//!
//! Runs [`pmcheck`] over every application's recorded trace, logs the
//! findings through the [`pmobs`] logger (warnings at `warn`, errors
//! at `error` level), and serializes the results as the `violations`
//! section of the schema-v2 JSON report.
//!
//! The gate contract: the ten WHISPER applications are *correct* PM
//! programs, so a suite check must produce **zero error-severity
//! findings** — any error fails `whisper-report --check` (exit 3) and
//! therefore CI. Warnings (redundant flushes, double fences,
//! end-of-trace leftovers) are reported for diagnosis but do not gate.

use crate::suite::AppResult;
use pmcheck::{CheckReport, Finding, Rule, RuleSet};
use pmobs::Json;

/// How many individual findings are embedded per app in the JSON
/// report; per-rule counts are always complete. Keeps a pathological
/// trace from ballooning the report.
pub const MAX_FINDINGS_IN_JSON: usize = 25;

/// One application's check outcome.
#[derive(Debug)]
pub struct AppCheck {
    /// Table 1 application name.
    pub name: String,
    /// The checker's report for that app's trace.
    pub report: CheckReport,
}

/// Check every result's trace, logging findings as they are found.
pub fn check_results(results: &[AppResult]) -> Vec<AppCheck> {
    check_results_with(results, RuleSet::all())
}

/// [`check_results`] restricted to the rules in `rules`
/// (`--check-rules`).
pub fn check_results_with(results: &[AppResult], rules: RuleSet) -> Vec<AppCheck> {
    results
        .iter()
        .map(|r| {
            let report = pmcheck::check_events_with(&r.run.events, rules);
            log_findings(&r.run.name, &report);
            AppCheck {
                name: r.run.name.clone(),
                report,
            }
        })
        .collect()
}

/// Route an app's findings through the pmobs logger: each finding is
/// one leveled line, followed by a per-app summary.
pub fn log_findings(app: &str, report: &CheckReport) {
    for f in &report.findings {
        match f.severity {
            pmcheck::Severity::Error => pmobs::error!("pmcheck[{app}]: {f}"),
            pmcheck::Severity::Warn => pmobs::warn!("pmcheck[{app}]: {f}"),
        }
    }
    pmobs::info!(
        "pmcheck[{app}]: {} event(s), {} error(s), {} warning(s)",
        report.events_visited,
        report.errors(),
        report.warnings(),
    );
}

/// Total error-severity findings across the suite — the exit-code gate.
pub fn total_errors(checks: &[AppCheck]) -> usize {
    checks.iter().map(|c| c.report.errors()).sum()
}

fn finding_json(f: &Finding) -> Json {
    Json::obj()
        .field("rule", f.rule.id())
        .field("severity", f.severity.to_string().as_str())
        .field("tid", u64::from(f.tid.0))
        .field("at_ns", f.at_ns)
        .field("line", f.line.map(|l| l.0))
        .field("epoch", f.epoch)
        .field("tx", f.tx)
        .field("message", f.message.as_str())
}

/// Suite-wide per-rule totals: for each rule that fired anywhere, the
/// summed (errors, warnings) across all checked apps, in [`Rule::ALL`]
/// order.
pub fn rule_totals(checks: &[AppCheck]) -> Vec<(Rule, usize, usize)> {
    Rule::ALL
        .iter()
        .filter_map(|rule| {
            let (mut errors, mut warns) = (0usize, 0usize);
            for c in checks {
                for (r, e, w) in c.report.by_rule() {
                    if r == *rule {
                        errors += e;
                        warns += w;
                    }
                }
            }
            (errors + warns > 0).then_some((*rule, errors, warns))
        })
        .collect()
}

/// The `violations` section of the JSON report.
///
/// ```text
/// {checked_apps, rules_enabled: [<rule-id>...],
///  total_errors, total_warnings,
///  by_rule: {<rule-id>: {errors, warnings}, ...},   // suite totals
///  apps: [{name, events, errors, warnings,
///          by_rule: {<rule-id>: {errors, warnings}, ...},
///          findings: [...first 25...], findings_truncated}]}
/// ```
///
/// `rules` is the `--check-rules` selection the checks ran under (all
/// rules by default); it is recorded so a filtered report cannot be
/// mistaken for a clean full check.
pub fn violations_json(checks: &[AppCheck], rules: RuleSet) -> Json {
    let apps: Vec<Json> = checks
        .iter()
        .map(|c| {
            let mut by_rule = Json::obj();
            for (rule, errors, warns) in c.report.by_rule() {
                by_rule = by_rule.field(
                    rule.id(),
                    Json::obj()
                        .field("errors", errors as u64)
                        .field("warnings", warns as u64),
                );
            }
            let findings: Vec<Json> = c
                .report
                .findings
                .iter()
                .take(MAX_FINDINGS_IN_JSON)
                .map(finding_json)
                .collect();
            Json::obj()
                .field("name", c.name.as_str())
                .field("events", c.report.events_visited)
                .field("errors", c.report.errors() as u64)
                .field("warnings", c.report.warnings() as u64)
                .field("by_rule", by_rule)
                .field("findings", findings)
                .field(
                    "findings_truncated",
                    c.report.findings.len() > MAX_FINDINGS_IN_JSON,
                )
        })
        .collect();
    let mut suite_by_rule = Json::obj();
    for (rule, errors, warns) in rule_totals(checks) {
        suite_by_rule = suite_by_rule.field(
            rule.id(),
            Json::obj()
                .field("errors", errors as u64)
                .field("warnings", warns as u64),
        );
    }
    let rules_enabled: Vec<Json> = rules.iter().map(|r| Json::from(r.id())).collect();
    Json::obj()
        .field("checked_apps", checks.len() as u64)
        .field("rules_enabled", rules_enabled)
        .field("total_errors", total_errors(checks) as u64)
        .field(
            "total_warnings",
            checks
                .iter()
                .map(|c| c.report.warnings() as u64)
                .sum::<u64>(),
        )
        .field("by_rule", suite_by_rule)
        .field("apps", apps)
}

/// Render the human-readable per-app summary table printed by
/// `whisper-report --check` after the paper tables.
pub fn summary_table(checks: &[AppCheck]) -> String {
    let mut out = String::from(
        "Persistency check (pmcheck)\n\
         app            events    errors  warnings  rules fired\n",
    );
    for c in checks {
        let fired: Vec<String> = Rule::ALL
            .iter()
            .filter(|r| c.report.count(**r) > 0)
            .map(|r| format!("{}×{}", r.id(), c.report.count(*r)))
            .collect();
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>9}  {}\n",
            c.name,
            c.report.events_visited,
            c.report.errors(),
            c.report.warnings(),
            if fired.is_empty() {
                "-".to_string()
            } else {
                fired.join(" ")
            }
        ));
    }
    out.push_str(&format!(
        "total: {} error(s), {} warning(s) across {} app(s)\n",
        total_errors(checks),
        checks.iter().map(|c| c.report.warnings()).sum::<usize>(),
        checks.len()
    ));
    if !checks.is_empty() {
        let per_rule: Vec<String> = rule_totals(checks)
            .iter()
            .map(|(r, e, w)| format!("{}: {e} error(s), {w} warning(s)", r.id()))
            .collect();
        if !per_rule.is_empty() {
            out.push_str(&format!("by rule: {}\n", per_rule.join("; ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_check() -> Vec<AppCheck> {
        vec![AppCheck {
            name: "buggy-log".into(),
            report: pmcheck::check_events(&pmcheck::seeded::buggy_log_events()),
        }]
    }

    #[test]
    fn violations_json_shape() {
        let checks = seeded_check();
        let doc = violations_json(&checks, RuleSet::all());
        let enabled = doc.get("rules_enabled").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(enabled.len(), Rule::ALL.len());
        assert_eq!(
            doc.get("total_errors").and_then(Json::as_f64),
            Some(pmcheck::seeded::EXPECTED_ERRORS as f64)
        );
        let apps = doc.get("apps").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(apps.len(), 1);
        let by_rule = apps[0].get("by_rule").unwrap();
        for (rule, errors, warns) in pmcheck::seeded::EXPECTED {
            let r = by_rule.get(rule.id()).unwrap();
            assert_eq!(
                (
                    r.get("errors").and_then(Json::as_f64),
                    r.get("warnings").and_then(Json::as_f64)
                ),
                (Some(errors as f64), Some(warns as f64)),
                "{}",
                rule.id()
            );
        }
        // Round-trips through the parser.
        let parsed = pmobs::json::parse(&doc.to_pretty()).unwrap();
        assert!(parsed.get("apps").is_some());
    }

    #[test]
    fn summary_table_lists_fired_rules() {
        let checks = seeded_check();
        let table = summary_table(&checks);
        assert!(table.contains("buggy-log"), "{table}");
        for rule in Rule::ALL {
            assert!(table.contains(rule.id()), "{table}");
        }
        // The fired-rules column carries per-rule counts.
        for (rule, errors, warns) in pmcheck::seeded::EXPECTED {
            let tag = format!("{}×{}", rule.id(), errors + warns);
            assert!(table.contains(&tag), "missing {tag} in:\n{table}");
        }
        assert!(table.contains("total: 8 error(s), 3 warning(s)"), "{table}");
        assert!(table.contains("by rule: "), "{table}");
    }

    #[test]
    fn rule_filter_flows_through_to_the_report() {
        let rules = RuleSet::from_ids("P-CROSS-DEP, P-EPOCH-RACE").unwrap();
        let checks = vec![AppCheck {
            name: "buggy-log".into(),
            report: pmcheck::check_events_with(&pmcheck::seeded::buggy_log_events(), rules),
        }];
        let doc = violations_json(&checks, rules);
        let enabled = doc.get("rules_enabled").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(enabled.len(), 2);
        // Only the enabled rules' findings are counted: 2 cross-dep
        // errors + 1 epoch-race error from the seeded trace.
        assert_eq!(doc.get("total_errors").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("total_warnings").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn violations_json_has_suite_rule_totals() {
        let checks = seeded_check();
        let doc = violations_json(&checks, RuleSet::all());
        let by_rule = doc.get("by_rule").unwrap();
        for (rule, errors, warns) in pmcheck::seeded::EXPECTED {
            let r = by_rule.get(rule.id()).unwrap();
            assert_eq!(
                (
                    r.get("errors").and_then(Json::as_f64),
                    r.get("warnings").and_then(Json::as_f64)
                ),
                (Some(errors as f64), Some(warns as f64)),
                "{}",
                rule.id()
            );
        }
        // Totals agree with the flat counters.
        let sum: f64 = rule_totals(&checks).iter().map(|(_, e, _)| *e as f64).sum();
        assert_eq!(doc.get("total_errors").and_then(Json::as_f64), Some(sum));
    }

    #[test]
    fn scheduler_seeded_cross_dep_control_is_pinned() {
        // Positive control for the concurrency rules: two
        // scheduler-picked workers hammer one shared line with unfenced
        // stores, then persist it from both sides. The interleaving —
        // and therefore the exact findings — is a pure function of the
        // pinned seed alone, so the expected rule ids and counts are
        // pinned too: if the checker ever goes blind to cross-thread
        // conflicts (or the scheduler's decision stream drifts under
        // splitmix64), this fails loudly rather than going vacuous.
        use memsim::{Machine, MachineConfig, Scheduler};
        use pmtrace::{Category, Tid};

        let mut m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        {
            let t = m.trace_mut();
            t.clear();
            t.set_enabled(true);
        }
        let mut sched = Scheduler::new(2, 0x1234);
        let picks: Vec<Tid> = (0..8).map(|_| sched.next()).collect();
        for &tid in &picks {
            m.store_u64(tid, base, u64::from(tid.0) + 1, Category::UserData);
        }
        for t in 0..2u32 {
            m.clwb(Tid(t), base);
            m.sfence(Tid(t));
        }
        let report = pmcheck::check_events(m.trace_mut().events());
        let cross: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CrossDep)
            .collect();
        let races = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::EpochRace)
            .count();
        // Every store after the first races the other worker's
        // in-flight store (both workers stay unfenced throughout the
        // burst), so seed 0x1234's decision stream (0,1,1,0,0,1,0,1)
        // yields exactly 7 cross-dep errors; the two-sided persist is
        // fence-ordered, so the second flush is merely redundant — no
        // epoch race.
        assert_eq!(
            picks.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![0, 1, 1, 0, 0, 1, 0, 1],
            "scheduler decision stream drifted for seed 0x1234"
        );
        assert_eq!(cross.len(), 7, "findings: {:?}", report.findings);
        assert_eq!(races, 0, "findings: {:?}", report.findings);
        assert!(cross.iter().all(|f| f.severity == pmcheck::Severity::Error));
        let redundant = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::RedundantFlush)
            .count();
        assert_eq!(redundant, 1, "second persist of the fenced line");
    }
}
