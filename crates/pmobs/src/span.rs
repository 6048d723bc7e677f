//! RAII span timing, split by clock domain.
//!
//! Two clocks exist in this codebase and they must never be conflated:
//!
//! * **Host wall-clock** — `std::time::Instant`, nondeterministic,
//!   measures how long the *harness* takes (suite runs, trace
//!   analysis). Recorded by [`SpanGuard`] under `span.<name>`.
//! * **Simulated cycle clock** — `memsim`'s deterministic `now_ns()`,
//!   measures how long the *modeled machine* takes. pmobs cannot read
//!   it, so callers hand deltas to [`record_sim_ns`], recorded under
//!   `sim.<name>`.
//!
//! Keeping the namespaces disjoint means a JSON report consumer can
//! tell at a glance which numbers are reproducible bit-for-bit across
//! runs (`sim.*`) and which are environmental (`span.*`).

use crate::metrics::Unit;
use std::time::Instant;

/// An RAII wall-clock timer: created by [`span!`](macro@crate::span), records
/// its elapsed time into the global registry histogram
/// `span.<name>[/<label>]` when dropped. Inert (no clock read, no
/// allocation) while recording is [disabled](crate::enabled).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    start: Option<Instant>,
    name: &'static str,
    label: Option<&'a str>,
}

impl<'a> SpanGuard<'a> {
    /// Start a span. `label` distinguishes instances of the same site
    /// (e.g. the application name).
    pub fn new(name: &'static str, label: Option<&'a str>) -> SpanGuard<'a> {
        SpanGuard {
            start: crate::enabled().then(Instant::now),
            name,
            label,
        }
    }

    /// The metric name this span records under.
    pub fn metric_name(&self) -> String {
        match self.label {
            Some(l) => format!("span.{}/{}", self.name, l),
            None => format!("span.{}", self.name),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        crate::global()
            .histogram(&self.metric_name(), Unit::Nanos)
            .record(ns);
    }
}

/// Record a duration measured on the **simulated** clock under
/// `sim.<name>`. No-op while recording is disabled.
pub fn record_sim_ns(name: &str, ns: u64) {
    if crate::enabled() {
        crate::global()
            .histogram(&format!("sim.{name}"), Unit::Nanos)
            .record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_include_label() {
        let g = SpanGuard::new("analyze", Some("echo"));
        assert_eq!(g.metric_name(), "span.analyze/echo");
        let g = SpanGuard::new("analyze", None);
        assert_eq!(g.metric_name(), "span.analyze");
    }

    #[test]
    fn disabled_span_is_inert() {
        let _lock = crate::test_lock();
        assert!(!crate::enabled());
        let g = SpanGuard::new("idle", None);
        assert!(g.start.is_none());
    }

    #[test]
    fn enabled_span_records_wall_time() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        {
            let _g = SpanGuard::new("test_span_records", None);
        }
        crate::set_enabled(false);
        let snap = crate::global().snapshot();
        let h = &snap.histograms["span.test_span_records"];
        assert!(h.count >= 1);
        assert_eq!(h.unit, Unit::Nanos);
    }
}
