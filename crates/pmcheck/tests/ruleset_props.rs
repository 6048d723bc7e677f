//! Rule selection is invisible to the rules selected.
//!
//! The checker skips its happens-before engine when neither rule
//! founded on it is in the [`RuleSet`]. Checked over random traces and
//! every non-empty subset of the rules: a filtered pass reports
//! exactly the findings the full pass reports for those rules — same
//! order, same fields, same messages.

mod common;

use common::{build, write_ops};
use miniprop::prelude::*;
use pmcheck::{check_events, check_events_with, Rule, RuleSet};

/// Every non-empty subset of [`Rule::ALL`].
fn subsets() -> impl Iterator<Item = RuleSet> {
    (1u32..1 << Rule::ALL.len()).map(|mask| {
        let ids: Vec<&str> = Rule::ALL
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, rule)| rule.id())
            .collect();
        RuleSet::from_ids(&ids.join(",")).expect("known ids")
    })
}

proptest! {
    #[test]
    fn filtered_pass_equals_filtered_full_pass((threads, ops) in write_ops(60)) {
        let events = build(threads, &ops);
        let full = check_events(&events);
        for set in subsets() {
            let filtered = check_events_with(&events, set);
            let expected: Vec<_> = full
                .findings
                .iter()
                .filter(|f| set.contains(f.rule))
                .cloned()
                .collect();
            prop_assert_eq!(&filtered.findings, &expected, "rules {:?}", set.iter().collect::<Vec<_>>());
            prop_assert_eq!(filtered.events_visited, full.events_visited);
        }
    }
}

/// The generator reaches what the property is about: over its traces
/// the full pass fires every rule, the two HB-founded ones included.
#[test]
fn generated_traces_fire_every_rule() {
    let mut fired = [false; Rule::ALL.len()];
    miniprop::run_cases("generated_traces_fire_every_rule", 256, |rng| {
        let (threads, ops) = write_ops(60).generate(rng);
        for f in check_events(&build(threads, &ops)).findings {
            fired[Rule::ALL
                .iter()
                .position(|r| *r == f.rule)
                .expect("known rule")] = true;
        }
    });
    assert_eq!(fired, [true; Rule::ALL.len()], "in Rule::ALL order");
}
