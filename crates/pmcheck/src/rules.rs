//! Rule identities, severities, and rule-set selection.

/// How bad a finding is.
///
/// The suite gate (`whisper-report --check`, CI) fails only on
/// [`Severity::Error`]; warnings are performance diagnostics and
/// end-of-trace heuristics that a correct program may still produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably a crash-consistency bug.
    Warn,
    /// A durability-discipline violation.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The eight persistency rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A store was still dirty — no covering `clwb`/`clflushopt`/NT
    /// store — at a transaction commit or at the end of the trace.
    Unflushed,
    /// A flush was not followed by an `sfence` before the next
    /// dependent store to the same line, a transaction commit, or the
    /// end of the trace — the flushed data has no ordering point.
    Unordered,
    /// A flush of a clean line or of a line already flushed and fenced:
    /// wasted PM write bandwidth.
    RedundantFlush,
    /// Two fences from one thread with no PM store or flush between
    /// them: the second fence orders nothing.
    DoubleFence,
    /// Two threads stored to the same line in happens-before-concurrent
    /// unfenced epochs: under *every* linearization, whichever epoch a
    /// crash cuts, the line's durable value is a race outcome (the
    /// paper's §4 cross-thread dependency, minus the fence that would
    /// order it). Founded on the vector-clock engine in [`crate::hb`].
    CrossDep,
    /// Conflicting persist operations (flush or non-temporal store) to
    /// one line from happens-before-concurrent epochs, with no ordering
    /// fence on either side: the device may apply the writebacks in
    /// either order, so the post-crash value diverges across outcomes.
    EpochRace,
    /// A store to a transaction-managed line (one previously written
    /// under an open durable transaction) issued with no transaction
    /// open on the storing thread: the update bypasses undo/redo-log
    /// protection and a crash can leave the region torn.
    TxAtomicity,
    /// A recovery-phase load of a line that was written before the
    /// crash point but not proven durable at any fence preceding it
    /// (and not rewritten during recovery): recovery is consuming a
    /// value the crash may not have preserved.
    RecoveryRead,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::Unflushed,
        Rule::Unordered,
        Rule::RedundantFlush,
        Rule::DoubleFence,
        Rule::CrossDep,
        Rule::EpochRace,
        Rule::TxAtomicity,
        Rule::RecoveryRead,
    ];

    /// The stable identifier used in diagnostics, JSON, and tests.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Unflushed => "P-UNFLUSHED",
            Rule::Unordered => "P-UNORDERED",
            Rule::RedundantFlush => "P-REDUNDANT-FLUSH",
            Rule::DoubleFence => "P-DOUBLE-FENCE",
            Rule::CrossDep => "P-CROSS-DEP",
            Rule::EpochRace => "P-EPOCH-RACE",
            Rule::TxAtomicity => "P-TX-ATOMICITY",
            Rule::RecoveryRead => "P-RECOVERY-READ",
        }
    }

    /// Parse a stable identifier back into its rule.
    pub fn parse(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    fn bit(self) -> u8 {
        Rule::ALL
            .iter()
            .position(|r| *r == self)
            .expect("rule in ALL") as u8
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// A selection of rules to report, for `--check-rules`-style filtering.
///
/// The checker always runs the line-state automaton and its per-thread
/// epoch/transaction bookkeeping (later rules may depend on state
/// earlier events built up); for those a `RuleSet` only filters which
/// findings are *reported*. The one thing a `RuleSet` switches off is
/// the vector-clock happens-before engine, which is skipped exactly
/// when neither rule founded on it (`P-CROSS-DEP`, `P-EPOCH-RACE`) is
/// selected. That cannot change a reported finding: the engine's
/// clocks and conflict sets feed those two rules and nothing else —
/// no other rule, and no line-state transition, reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet(u8);

impl RuleSet {
    /// Every rule enabled — the default.
    pub fn all() -> RuleSet {
        RuleSet((1u16 << Rule::ALL.len()).wrapping_sub(1) as u8)
    }

    /// Whether `rule`'s findings are reported.
    pub fn contains(self, rule: Rule) -> bool {
        self.0 & (1 << rule.bit()) != 0
    }

    /// Exactly the rules in `rules`.
    pub(crate) fn of(rules: impl IntoIterator<Item = Rule>) -> RuleSet {
        RuleSet(rules.into_iter().fold(0, |set, r| set | 1 << r.bit()))
    }

    /// Whether a selected rule is founded on the happens-before engine
    /// (see the type's docs).
    pub(crate) fn needs_hb(self) -> bool {
        self.contains(Rule::CrossDep) || self.contains(Rule::EpochRace)
    }

    /// The enabled rules, in [`Rule::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Rule> {
        Rule::ALL.into_iter().filter(move |r| self.contains(*r))
    }

    /// Parse a comma-separated list of stable rule ids
    /// (`"P-UNFLUSHED,P-EPOCH-RACE"`). Whitespace around ids is
    /// tolerated; an empty list or an unknown id is an error carrying
    /// the offending token.
    ///
    /// # Errors
    ///
    /// A human-readable description of the bad token.
    pub fn from_ids(csv: &str) -> Result<RuleSet, String> {
        let mut set = RuleSet(0);
        for token in csv.split(',') {
            let token = token.trim();
            if token.is_empty() {
                return Err("empty rule id in list".into());
            }
            match Rule::parse(token) {
                Some(r) => set.0 |= 1 << r.bit(),
                None => {
                    return Err(format!(
                        "unknown rule id {token:?} (known: {})",
                        Rule::ALL.map(Rule::id).join(", ")
                    ))
                }
            }
        }
        Ok(set)
    }
}

impl Default for RuleSet {
    fn default() -> RuleSet {
        RuleSet::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for r in Rule::ALL {
            assert!(seen.insert(r.id()));
            assert!(r.id().starts_with("P-"));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn severity_orders_error_above_warn() {
        assert!(Severity::Error > Severity::Warn);
        assert_eq!(
            format!("{}/{}", Severity::Warn, Severity::Error),
            "warn/error"
        );
    }

    #[test]
    fn parse_round_trips_every_rule() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("P-NOPE"), None);
        assert_eq!(Rule::parse(""), None);
    }

    #[test]
    fn rule_set_all_contains_everything() {
        let all = RuleSet::all();
        for r in Rule::ALL {
            assert!(all.contains(r));
        }
        assert_eq!(all.iter().count(), Rule::ALL.len());
        assert_eq!(RuleSet::default(), all);
    }

    #[test]
    fn rule_set_from_ids_selects_subset() {
        let set = RuleSet::from_ids("P-UNFLUSHED, P-EPOCH-RACE").unwrap();
        assert!(set.contains(Rule::Unflushed));
        assert!(set.contains(Rule::EpochRace));
        assert!(!set.contains(Rule::CrossDep));
        assert_ne!(set, RuleSet::all());
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn rule_set_from_ids_rejects_garbage() {
        let err = RuleSet::from_ids("P-UNFLUSHED,P-BOGUS").unwrap_err();
        assert!(err.contains("P-BOGUS"), "{err}");
        assert!(RuleSet::from_ids("").is_err());
        assert!(RuleSet::from_ids("P-UNFLUSHED,,P-CROSS-DEP").is_err());
    }
}
