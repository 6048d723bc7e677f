//! `pmcheck` — a static persistency-bug checker over PM traces.
//!
//! WHISPER measures the discipline of stores, flushes, fences, and
//! transaction boundaries; this crate *verifies* it. The checker makes
//! a single streaming pass over a recorded [`pmtrace`] event stream —
//! no replay, no simulated machine — tracking a per-cache-line state
//! machine (`Dirty → Flushed → Durable`) plus per-thread epoch and
//! transaction context alongside a vector-clock happens-before engine
//! ([`hb`]), and reports violations of seven rules with stable ids:
//!
//! | rule id             | severity     | what it catches                          |
//! |---------------------|--------------|------------------------------------------|
//! | `P-UNFLUSHED`       | error / warn | store still dirty at tx commit (error) or trace end (warn) with no covering `clwb`/`clflushopt`/NT store |
//! | `P-UNORDERED`       | error / warn | flush not followed by an `sfence` before the next dependent store or commit (error), or still pending at trace end (warn) |
//! | `P-REDUNDANT-FLUSH` | warn         | flush of a clean or already-flushed-and-fenced line (a performance bug, not a correctness bug) |
//! | `P-DOUBLE-FENCE`    | warn         | back-to-back fences with no intervening PM work |
//! | `P-CROSS-DEP`       | error        | cross-thread same-line store conflict between happens-before-concurrent unfenced epochs (a durability race) |
//! | `P-EPOCH-RACE`      | error        | conflicting persists (flush / NT store) of one line from happens-before-concurrent epochs, no ordering fence on either side |
//! | `P-TX-ATOMICITY`    | error        | store to a transaction-managed line with no transaction open — the update bypasses undo/redo-log protection |
//!
//! The checker is deliberately *trace-shaped*: it sees exactly what the
//! hardware persistence domain sees (PM stores, line flushes, fences,
//! tx markers) and nothing else, so it can check archived `.wtr` traces
//! as easily as live runs. See `DESIGN.md` § "Static analysis
//! (`pmcheck`)" for each rule's precise state machine and known
//! limitations.
//!
//! # Example
//!
//! ```
//! use pmtrace::{Category, Tid, TraceBuffer};
//!
//! let mut t = TraceBuffer::new();
//! let tid = Tid(0);
//! t.pm_store(tid, 0, 8, false, Category::UserData, 10);
//! // Bug: no clwb before the fence — the store may never persist.
//! t.fence(tid, 20);
//! let report = pmcheck::check_events(t.events());
//! assert_eq!(report.count(pmcheck::Rule::Unflushed), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod hb;
pub mod rewrite;
mod rules;
pub mod seeded;
mod table;

pub use checker::{check_events, check_events_with, CheckReport, Checker, Finding};
pub use rewrite::{rewrite_events, RewriteReport};
pub use rules::{Rule, RuleSet, Severity};
