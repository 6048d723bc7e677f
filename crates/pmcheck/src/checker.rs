//! The streaming checker: one pass over the line table's line-state
//! automaton ([`crate::table`]), plus a vector-clock happens-before
//! engine ([`crate::hb`]) that founds the concurrency rules
//! (`P-CROSS-DEP`, `P-EPOCH-RACE`) on provable ordering rather than the
//! recorded interleaving. `P-EPOCH-RACE`'s pending persists are the
//! checker's own; the engine supplies only the clocks they are judged
//! against.

use crate::hb::{HbEngine, SlotTicks};
use crate::rules::{Rule, RuleSet, Severity};
use crate::table::{LineId, LineState};
use pmem::{lines_spanning, Line};
use pmtrace::{Category, Event, EventKind, Tid, TxId};

/// One rule violation, anchored to the event that triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Error findings gate CI; warnings are diagnostics.
    pub severity: Severity,
    /// Thread the finding is attributed to.
    pub tid: Tid,
    /// Simulated timestamp of the triggering event (the trace's last
    /// timestamp for end-of-trace findings).
    pub at_ns: u64,
    /// The 64 B line involved, if the rule is line-scoped
    /// (`P-DOUBLE-FENCE` is not).
    pub line: Option<Line>,
    /// Ordinal of the thread's enclosing epoch (fences completed so
    /// far on that thread).
    pub epoch: u64,
    /// The thread's active durable transaction, if any.
    pub tx: Option<TxId>,
    /// Zero-based index of the triggering event in the checked trace,
    /// or `None` for end-of-trace findings (which have no anchoring
    /// event). This is what lets [`crate::rewrite`] map a finding back
    /// to the exact `clwb`/fence it should elide.
    pub at_index: Option<usize>,
    /// Human-readable one-liner.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {} at {} ns (epoch {}{}): {}",
            self.rule,
            self.severity,
            self.tid,
            self.at_ns,
            self.epoch,
            match self.tx {
                Some(id) => format!(", tx {id}"),
                None => String::new(),
            },
            self.message
        )
    }
}

/// Everything one checking pass produced.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, in trigger order (end-of-trace findings last, in
    /// line order).
    pub findings: Vec<Finding>,
    /// Events visited — exactly the trace length for a single pass
    /// (asserted by the `single_pass` integration test).
    pub events_visited: u64,
}

impl CheckReport {
    /// Findings for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Findings at one severity.
    pub fn count_severity(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Error-severity findings — the CI gate.
    pub fn errors(&self) -> usize {
        self.count_severity(Severity::Error)
    }

    /// Warn-severity findings.
    pub fn warnings(&self) -> usize {
        self.count_severity(Severity::Warn)
    }

    /// `(rule, errors, warnings)` for every rule, in reporting order.
    pub fn by_rule(&self) -> [(Rule, usize, usize); Rule::ALL.len()] {
        let mut out = Rule::ALL.map(|r| (r, 0usize, 0usize));
        for f in &self.findings {
            let slot = &mut out[Rule::ALL
                .iter()
                .position(|r| *r == f.rule)
                .expect("known rule")];
            match f.severity {
                Severity::Error => slot.1 += 1,
                Severity::Warn => slot.2 += 1,
            }
        }
        out
    }
}

/// Per-thread bookkeeping, indexed by the line table's thread slot.
#[derive(Debug, Default)]
struct ThreadState {
    /// Fences completed — the current epoch ordinal.
    epoch: u64,
    /// Active durable transaction.
    tx: Option<TxId>,
    /// Lines stored (cacheably or NT) inside the active transaction,
    /// once per store; sorted and deduplicated at commit.
    tx_lines: Vec<LineId>,
    /// Lines with a pending persist entry for this slot, retired by
    /// the thread's next fence.
    open_persists: Vec<LineId>,
    /// Whether any PM store or flush happened since the last fence.
    pm_work: bool,
    /// Whether this thread has fenced before (first fence is exempt
    /// from `P-DOUBLE-FENCE`).
    fenced_before: bool,
}

/// Streaming checker state. Feed globally-ordered events to
/// [`push`](Checker::push), then [`finish`](Checker::finish);
/// or use [`check_events`] for the common whole-trace case.
#[derive(Debug, Default)]
pub struct Checker {
    /// Happens-before engine: founds `P-CROSS-DEP` and `P-EPOCH-RACE`,
    /// and owns the line table (line records, thread slots, the
    /// line-state automaton) the checker works on. Its clocks are
    /// driven only when [`RuleSet::needs_hb`].
    hb: HbEngine,
    /// Per line id: each thread slot's pending (unfenced) persist, as
    /// the tick of the thread's clock at the persist — `P-EPOCH-RACE`'s
    /// state. An entry for a slot is exactly membership in that slot's
    /// `open_persists`. Grown to the line table's size when a persist
    /// first names an id past its end.
    persists: Vec<SlotTicks>,
    /// Which rules' findings are reported.
    rules: RuleSet,
    threads: Vec<ThreadState>,
    findings: Vec<Finding>,
    events_visited: u64,
    last_ns: u64,
    /// Index of the event currently being folded in (`None` once
    /// [`finish`](Checker::finish) starts its end-of-trace scan).
    cur_index: Option<usize>,
}

/// The threads of a conflict set, as a finding message lists them.
fn join_tids(tids: &[Tid]) -> String {
    let names: Vec<String> = tids.iter().map(ToString::to_string).collect();
    names.join(",")
}

impl Checker {
    /// A fresh checker (all lines clean), reporting every rule.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// A fresh checker reporting only the rules in `rules`.
    pub fn with_rules(rules: RuleSet) -> Checker {
        Checker {
            rules,
            ..Checker::default()
        }
    }

    /// The slot of `tid` in the line table and in `self.threads`.
    fn slot(&mut self, tid: Tid) -> usize {
        let s = self.hb.table.slot(tid);
        if self.threads.len() <= s {
            self.threads.resize_with(s + 1, ThreadState::default);
        }
        s
    }

    /// Record a finding — if `rule` is selected; `message` is only
    /// built then.
    fn report(
        &mut self,
        rule: Rule,
        severity: Severity,
        tid: Tid,
        at_ns: u64,
        line: Option<Line>,
        message: impl FnOnce() -> String,
    ) {
        if !self.rules.contains(rule) {
            return;
        }
        let s = self.slot(tid);
        let t = &self.threads[s];
        self.findings.push(Finding {
            rule,
            severity,
            tid,
            at_ns,
            line,
            epoch: t.epoch,
            tx: t.tx,
            at_index: self.cur_index,
            message: message(),
        });
    }

    /// Fold one event into the state machines. Call in global trace
    /// order.
    pub fn push(&mut self, ev: &Event) {
        self.events_visited += 1;
        self.cur_index = Some((self.events_visited - 1) as usize);
        self.last_ns = self.last_ns.max(ev.at_ns());
        let s = self.slot(ev.tid());
        let hb = self.rules.needs_hb();
        if hb {
            self.hb.begin_event_in(s, ev.at_ns());
        }
        match ev.kind() {
            EventKind::PmStore { addr, len, nt, cat } => {
                for (line, _, _) in lines_spanning(addr, len as usize) {
                    let id = self.hb.table.intern(line);
                    self.on_store(s, ev, line, id, nt, cat);
                }
            }
            EventKind::Flush { addr } => self.on_flush(s, ev, Line::containing(addr)),
            EventKind::Fence | EventKind::DFence => {
                self.on_fence(s, ev);
                if hb {
                    self.hb.fence(ev.kind() == EventKind::DFence);
                }
            }
            EventKind::TxBegin { id } => {
                if hb {
                    self.hb.tx_begin();
                }
                let t = &mut self.threads[s];
                t.tx = Some(id);
                t.tx_lines.clear();
            }
            EventKind::TxEnd { id } => {
                self.on_tx_end(s, ev, id);
                if hb {
                    self.hb.tx_end();
                }
            }
        }
    }

    fn on_store(&mut self, s: usize, ev: &Event, line: Line, id: LineId, nt: bool, cat: Category) {
        let (tid, at_ns) = (ev.tid(), ev.at_ns());
        let hb = self.rules.needs_hb();
        // P-CROSS-DEP: a prior store to this line by another thread is
        // happens-before-concurrent with this one — no fence, commit,
        // or observed communication orders the two epochs, so whichever
        // one a crash cuts, the line's durable value is a race outcome.
        if hb {
            let conflicts = self.hb.store_id(id);
            if !conflicts.is_empty() {
                self.report(Rule::CrossDep, Severity::Error, tid, at_ns, Some(line), || {
                    format!(
                        "store to {line} races happens-before-concurrent store(s) from {} — no ordering fence between the epochs",
                        join_tids(&conflicts)
                    )
                });
            }
        }

        // P-TX-ATOMICITY: a store into the tx-managed region (a line
        // previously written under a durable transaction) while no
        // transaction is open bypasses undo/redo-log protection.
        let in_tx = self.threads[s].tx.is_some();
        let rec = &mut self.hb.table.recs[id as usize];
        if cat == Category::UserData {
            if in_tx {
                rec.tx_managed = true;
            } else if rec.tx_managed {
                self.report(Rule::TxAtomicity, Severity::Error, tid, at_ns, Some(line), || {
                    format!(
                        "store to tx-managed {line} with no transaction open — the update bypasses undo/redo-log protection"
                    )
                });
            }
        }

        // P-EPOCH-RACE (NT path): an NT store is its own persist; if a
        // foreign persist of the line is still pending and unordered,
        // the device may apply the writebacks in either order.
        if nt && hb {
            let pconf = self.persist(s, id);
            if !pconf.is_empty() {
                self.report(Rule::EpochRace, Severity::Error, tid, at_ns, Some(line), || {
                    format!(
                        "NT store persists {line} concurrently with unfenced persist(s) from {} — writeback order is a race",
                        join_tids(&pconf)
                    )
                });
            }
        }

        if let LineState::Flushed {
            by,
            at_ns: f_ns,
            nt: false,
        } = self.hb.table.store(id, s, at_ns, nt)
        {
            // P-UNORDERED: a dependent store lands before the
            // pending `clwb` was fenced — the snapshot taken at
            // flush time no longer covers the line's newest data,
            // and the flush itself has no ordering point yet.
            // (An in-flight *NT* entry instead legally keeps
            // write-combining, or is superseded by a cacheable
            // store that takes over durability — neither is a
            // violation on its own.)
            self.report(Rule::Unordered, Severity::Error, tid, at_ns, Some(line), || {
                format!(
                    "store to {line} before the flush issued by {by} at {f_ns} ns was fenced — the flushed data has no ordering point"
                )
            });
        }

        let t = &mut self.threads[s];
        t.pm_work = true;
        if t.tx.is_some() {
            t.tx_lines.push(id);
        }
    }

    fn on_flush(&mut self, s: usize, ev: &Event, line: Line) {
        let (tid, at_ns) = (ev.tid(), ev.at_ns());
        self.threads[s].pm_work = true;
        let id = self.hb.table.intern(line);
        match self.hb.table.flush(id, s, at_ns) {
            found @ (LineState::Clean | LineState::Durable) => {
                self.report(
                    Rule::RedundantFlush,
                    Severity::Warn,
                    tid,
                    at_ns,
                    Some(line),
                    || match found {
                        LineState::Clean => {
                            format!("flush of clean {line} — nothing was stored there")
                        }
                        _ => format!("flush of already-flushed-and-fenced {line}"),
                    },
                );
            }
            // `P-EPOCH-RACE` (flush path): this flush persists `line`
            // while a foreign persist of the same line is pending and
            // unordered. Only flushes that actually persist something
            // get here — a redundant flush (clean/durable line) has no
            // happens-before effect, which is what keeps
            // [`crate::rewrite`]'s elision sound. A re-flush of a
            // still-pending line is not redundant per the rule.
            LineState::Dirty { .. } | LineState::Flushed { .. } if self.rules.needs_hb() => {
                let pconf = self.persist(s, id);
                if !pconf.is_empty() {
                    self.report(Rule::EpochRace, Severity::Error, tid, at_ns, Some(line), || {
                        format!(
                            "flush persists {line} concurrently with unfenced persist(s) from {} — writeback order is a race",
                            join_tids(&pconf)
                        )
                    });
                }
            }
            LineState::Dirty { .. } | LineState::Flushed { .. } => {}
        }
    }

    /// A persist (covering flush or NT store) of `id` by the thread in
    /// slot `s`, whose event the engine has begun. Returns the threads
    /// with a *pending* (unfenced) persist of the same line that is
    /// HB-concurrent with this one — the `P-EPOCH-RACE` conflict set —
    /// and leaves this one pending until the thread's fence.
    fn persist(&mut self, s: usize, id: LineId) -> Vec<Tid> {
        if self.persists.len() <= id as usize {
            self.persists
                .resize_with(self.hb.table.recs.len(), SlotTicks::default);
        }
        let clock = self.hb.clock(s);
        let pending = &mut self.persists[id as usize];
        let conflicts = pending.concurrent(s, clock, &self.hb.table.tids);
        if pending.set(s, clock.get(s)).is_none() {
            self.threads[s].open_persists.push(id);
        }
        conflicts
    }

    fn on_fence(&mut self, s: usize, ev: &Event) {
        let t = &self.threads[s];
        if !t.pm_work && t.fenced_before {
            // Report before the epoch counter advances: the useless
            // fence belongs to the epoch it closes.
            self.report(
                Rule::DoubleFence,
                Severity::Warn,
                ev.tid(),
                ev.at_ns(),
                None,
                || "fence with no PM store or flush since the previous fence".to_string(),
            );
        }
        let t = &mut self.threads[s];
        t.pm_work = false;
        t.fenced_before = true;
        t.epoch += 1;
        // Retire this thread's pending persists and pending flushes.
        // (The happens-before engine releases the lines the epoch
        // stored in [`HbEngine::fence`], driven from
        // [`push`](Checker::push).)
        for id in t.open_persists.drain(..) {
            self.persists[id as usize].remove(s);
        }
        self.hb.table.fence(s);
    }

    fn on_tx_end(&mut self, s: usize, ev: &Event, id: TxId) {
        let (tid, at_ns) = (ev.tid(), ev.at_ns());
        let table = &self.hb.table;
        let mut tx_lines: Vec<(Line, LineState)> = self.threads[s]
            .tx_lines
            .drain(..)
            .map(|l| &table.recs[l as usize])
            .map(|rec| (rec.line, rec.state))
            .collect();
        tx_lines.sort_unstable_by_key(|(line, _)| *line);
        tx_lines.dedup_by_key(|(line, _)| *line);
        // The transaction stays "active" through the commit checks so
        // findings carry the committing tx as context.
        for (line, state) in tx_lines {
            match state {
                LineState::Dirty { by } => {
                    self.report(Rule::Unflushed, Severity::Error, tid, at_ns, Some(line), || {
                        format!("tx {id} committed while {line} (stored by {by}) is dirty with no covering clwb/clflushopt/NT store")
                    });
                }
                LineState::Flushed {
                    by, at_ns: f_ns, ..
                } => {
                    self.report(Rule::Unordered, Severity::Error, tid, at_ns, Some(line), || {
                        format!("tx {id} committed while the flush of {line} (issued by {by} at {f_ns} ns) awaits a fence")
                    });
                }
                LineState::Durable | LineState::Clean => {}
            }
        }
        self.threads[s].tx = None;
    }

    /// End-of-trace scan: anything still dirty or pending is reported
    /// at warn severity — the trace may simply have been cut before
    /// the program's next persist point, so this is a heuristic, not a
    /// proof (the tx-commit variants of the same states are errors).
    pub fn finish(mut self) -> CheckReport {
        self.cur_index = None;
        let mut tail: Vec<(Line, LineState)> = self
            .hb
            .table
            .recs
            .iter()
            .filter(|rec| !matches!(rec.state, LineState::Clean | LineState::Durable))
            .map(|rec| (rec.line, rec.state))
            .collect();
        tail.sort_unstable_by_key(|(l, _)| *l);
        let at_ns = self.last_ns;
        for (line, state) in tail {
            match state {
                LineState::Dirty { by } => {
                    self.report(
                        Rule::Unflushed,
                        Severity::Warn,
                        by,
                        at_ns,
                        Some(line),
                        || format!("{line} still dirty at trace end — stored but never flushed"),
                    );
                }
                LineState::Flushed {
                    by, at_ns: f_ns, ..
                } => self.report(
                    Rule::Unordered,
                    Severity::Warn,
                    by,
                    at_ns,
                    Some(line),
                    || {
                        format!(
                            "flush of {line} (issued at {f_ns} ns) never fenced before trace end"
                        )
                    },
                ),
                LineState::Clean | LineState::Durable => unreachable!("filtered above"),
            }
        }
        CheckReport {
            findings: self.findings,
            events_visited: self.events_visited,
        }
    }
}

/// Check a whole trace in one pass, reporting every rule.
pub fn check_events(events: &[Event]) -> CheckReport {
    check_events_with(events, RuleSet::all())
}

/// Check a whole trace in one pass, reporting only `rules`.
pub fn check_events_with(events: &[Event], rules: RuleSet) -> CheckReport {
    let _span = pmobs::span!("pmcheck");
    let mut c = Checker::with_rules(rules);
    for ev in events {
        c.push(ev);
    }
    let report = c.finish();
    pmobs::count!("pmcheck.events_checked", report.events_visited);
    pmobs::count!("pmcheck.findings", report.findings.len() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::{Category, TraceBuffer};

    const T0: Tid = Tid(0);
    const T1: Tid = Tid(1);

    fn ids(report: &CheckReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn clean_discipline_has_no_findings() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.tx_end(T0, 1, 40);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.events_visited, 5);
    }

    #[test]
    fn nt_store_is_its_own_flush() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 0, 8, true, Category::RedoLog, 10);
        t.dfence(T0, 20);
        t.tx_end(T0, 1, 30);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn dirty_at_commit_is_unflushed_error() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 7, 0);
        t.pm_store(T0, 128, 8, false, Category::UserData, 10);
        t.tx_end(T0, 7, 20);
        t.flush(T0, 128, 30); // late cleanup keeps trace end quiet
        t.fence(T0, 40);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-UNFLUSHED"]);
        assert_eq!(r.findings[0].severity, Severity::Error);
        assert_eq!(r.findings[0].tx, Some(7));
        assert_eq!(r.findings[0].line, Some(Line(2)));
    }

    #[test]
    fn unfenced_flush_at_commit_is_unordered_error() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 3, 0);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.tx_end(T0, 3, 30);
        t.fence(T0, 40);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-UNORDERED"]);
        assert_eq!(r.findings[0].severity, Severity::Error);
    }

    #[test]
    fn dependent_store_before_fence_is_unordered() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.pm_store(T0, 8, 8, false, Category::UserData, 30); // same line
        t.flush(T0, 0, 40);
        t.fence(T0, 50);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-UNORDERED"]);
    }

    #[test]
    fn flush_of_clean_and_durable_lines_warns() {
        let mut t = TraceBuffer::new();
        t.flush(T0, 640, 5); // clean: never stored
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.flush(T0, 0, 40); // durable already
        t.fence(T0, 50);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-REDUNDANT-FLUSH", "P-REDUNDANT-FLUSH"]);
        assert_eq!(r.errors(), 0);
        assert_eq!(r.warnings(), 2);
    }

    #[test]
    fn refllush_of_pending_line_is_not_redundant() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.flush(T0, 0, 25); // still pending: takes over, no warning
        t.fence(T0, 30);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn back_to_back_fences_warn_once() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 15);
        t.fence(T0, 20);
        t.fence(T0, 30); // nothing in between
        t.dfence(T0, 40); // still nothing
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-DOUBLE-FENCE", "P-DOUBLE-FENCE"]);
        assert_eq!(r.findings[0].epoch, 1, "fires inside the second epoch");
    }

    #[test]
    fn first_fence_of_a_thread_is_exempt() {
        let mut t = TraceBuffer::new();
        t.fence(T0, 10);
        let r = check_events(t.events());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn cross_thread_inflight_store_is_a_race() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.pm_store(T1, 0, 8, false, Category::UserData, 20); // t0 not fenced yet
        t.flush(T0, 0, 30); // covers both threads' bytes (line granularity)
        t.fence(T0, 40);
        t.fence(T1, 50);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-CROSS-DEP"]);
        assert_eq!(r.findings[0].tid, T1);
        assert_eq!(r.findings[0].severity, Severity::Error);
    }

    #[test]
    fn fence_separated_cross_dependency_is_legal() {
        // The paper's Figure-5 cross dependency: t0 fences, then t1
        // touches the same line. Ordered, so no finding.
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.pm_store(T1, 0, 8, false, Category::UserData, 40);
        t.flush(T1, 0, 50);
        t.fence(T1, 60);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn trace_end_leftovers_warn() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10); // dirty forever
        t.pm_store(T0, 64, 8, false, Category::UserData, 20);
        t.flush(T0, 64, 30); // flushed, never fenced
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-UNFLUSHED", "P-UNORDERED"]);
        assert_eq!(r.errors(), 0);
        assert_eq!(r.warnings(), 2);
    }

    #[test]
    fn store_spanning_lines_tracks_both() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 60, 8, false, Category::UserData, 10); // lines 0 and 1
        t.flush(T0, 0, 20); // only line 0 flushed
        t.fence(T0, 30);
        t.tx_end(T0, 1, 40);
        t.flush(T0, 64, 50);
        t.fence(T0, 60);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-UNFLUSHED"]);
        assert_eq!(r.findings[0].line, Some(Line(1)));
    }

    #[test]
    fn by_rule_tallies_severities() {
        let mut t = TraceBuffer::new();
        t.flush(T0, 0, 5); // redundant (clean)
        t.tx_begin(T0, 1, 10);
        t.pm_store(T0, 64, 8, false, Category::UserData, 20);
        t.tx_end(T0, 1, 30); // unflushed error
        t.flush(T0, 64, 40);
        t.fence(T0, 50);
        let r = check_events(t.events());
        let by = r.by_rule();
        assert_eq!(by[0], (Rule::Unflushed, 1, 0));
        assert_eq!(by[2], (Rule::RedundantFlush, 0, 1));
        assert_eq!((r.errors(), r.warnings()), (1, 1));
    }

    #[test]
    fn empty_trace_is_clean() {
        let r = check_events(&[]);
        assert!(r.findings.is_empty());
        assert_eq!(r.events_visited, 0);
    }

    #[test]
    fn hb_tx_commit_orders_cross_thread_stores() {
        // t0's commit releases the line it wrote in-tx; t1's later
        // store acquires that release, so the pair is ordered even
        // though t0 never fenced between the stores. The recorded
        // interleaving alone would have called this a race — the HB
        // engine is what removes the false negative's dual.
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.tx_end(T0, 1, 40);
        t.tx_begin(T1, 2, 50);
        t.pm_store(T1, 0, 8, false, Category::UserData, 60);
        t.flush(T1, 0, 70);
        t.fence(T1, 80);
        t.tx_end(T1, 2, 90);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn concurrent_persists_are_an_epoch_race() {
        // t1 flushes t0's dirty line (takeover), then t0 flushes it
        // again before either thread fences: two unordered persists of
        // one line — the device may apply them in either order.
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T1, 0, 20);
        t.flush(T0, 0, 30);
        t.fence(T0, 40);
        t.fence(T1, 50);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-EPOCH-RACE"]);
        assert_eq!(r.findings[0].tid, T0);
        assert_eq!(r.findings[0].severity, Severity::Error);
        assert_eq!(r.findings[0].line, Some(Line(0)));
    }

    #[test]
    fn fence_separated_persists_are_legal() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.pm_store(T1, 0, 8, false, Category::UserData, 40);
        t.flush(T1, 0, 50);
        t.fence(T1, 60);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn persist_conflicts_cleared_by_fence() {
        // Both threads persist the line before either fences: the
        // second persist races the first. Each thread then fences,
        // retiring its own pending persist and releasing the line; a
        // later persist conflicts with nobody.
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, true, Category::UserData, 1);
        t.pm_store(T1, 0, 8, true, Category::UserData, 2);
        t.fence(T1, 3);
        t.fence(T0, 4);
        t.pm_store(T0, 0, 8, true, Category::UserData, 5);
        t.fence(T0, 6);
        let r = check_events_with(t.events(), RuleSet::from_ids("P-EPOCH-RACE").unwrap());
        assert_eq!(ids(&r), vec!["P-EPOCH-RACE"], "both persists pending");
        assert_eq!(r.findings[0].tid, T1);
        assert_eq!(r.findings[0].at_index, Some(1));
    }

    #[test]
    fn a_fenced_persist_never_races_a_later_foreign_flush() {
        // T1 never acquires from T0, so only the retirement of T0's
        // persist at its fence keeps T1's flush from racing it.
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.pm_store(T0, 0, 8, false, Category::UserData, 40);
        t.flush(T1, 0, 50);
        t.fence(T1, 60);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn naked_store_to_tx_managed_line_is_an_atomicity_error() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.tx_end(T0, 1, 40);
        t.pm_store(T0, 0, 8, false, Category::UserData, 50); // no tx open
        t.flush(T0, 0, 60);
        t.fence(T0, 70);
        let r = check_events(t.events());
        assert_eq!(ids(&r), vec!["P-TX-ATOMICITY"]);
        assert_eq!(r.findings[0].tid, T0);
        assert_eq!(r.findings[0].at_ns, 50);
        assert_eq!(r.findings[0].tx, None);
    }

    #[test]
    fn tx_managed_model_only_covers_user_data() {
        // Log writes (undo/redo) legitimately happen outside any
        // transaction during recovery or maintenance; only user data
        // is modeled as tx-managed.
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 0);
        t.pm_store(T0, 0, 8, true, Category::RedoLog, 10);
        t.dfence(T0, 20);
        t.tx_end(T0, 1, 30);
        t.pm_store(T0, 0, 8, true, Category::RedoLog, 40); // same line, no tx
        t.dfence(T0, 50);
        let r = check_events(t.events());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn rule_filter_suppresses_findings() {
        let mut t = TraceBuffer::new();
        t.flush(T0, 640, 5); // redundant flush warn
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.pm_store(T1, 0, 8, false, Category::UserData, 20); // cross-dep error
        t.flush(T0, 0, 30);
        t.fence(T0, 40);
        t.fence(T1, 50);
        let all = check_events(t.events());
        assert_eq!(ids(&all), vec!["P-REDUNDANT-FLUSH", "P-CROSS-DEP"]);
        let only_race = check_events_with(t.events(), RuleSet::from_ids("P-CROSS-DEP").unwrap());
        assert_eq!(ids(&only_race), vec!["P-CROSS-DEP"]);
        assert_eq!(only_race.events_visited, all.events_visited);
    }

    #[test]
    fn findings_anchor_their_triggering_event() {
        let mut t = TraceBuffer::new();
        t.flush(T0, 640, 5); // index 0: redundant (clean)
        t.pm_store(T0, 0, 8, false, Category::UserData, 10);
        t.flush(T0, 0, 20);
        t.fence(T0, 30);
        t.fence(T0, 40); // index 4: double fence
        t.pm_store(T0, 128, 8, false, Category::UserData, 50); // dirty at end
        let r = check_events(t.events());
        assert_eq!(
            ids(&r),
            vec!["P-REDUNDANT-FLUSH", "P-DOUBLE-FENCE", "P-UNFLUSHED"]
        );
        assert_eq!(r.findings[0].at_index, Some(0));
        assert_eq!(r.findings[1].at_index, Some(4));
        assert_eq!(
            r.findings[2].at_index, None,
            "end-of-trace findings have no anchoring event"
        );
    }
}
