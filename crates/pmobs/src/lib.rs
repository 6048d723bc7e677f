//! `pmobs` — zero-dependency observability for the WHISPER stack.
//!
//! The paper's whole contribution is *measurement*: `PM_*` macros turn
//! application behaviour into an analyzable event stream. This crate is
//! the same idea applied to the harness itself — the simulator, the
//! HOPS persist buffers, the trace analyzer, and the suite driver all
//! record what they do, and `whisper-report --json` emits it in a
//! machine-readable report.
//!
//! Three parts:
//!
//! * [`metrics`] — named [`Counter`]s, high-water [`MaxGauge`]s, and
//!   log2-scaled [`Histogram`]s with relaxed-atomic recording and
//!   [mergeable snapshots](metrics::MetricsSnapshot::merge).
//! * [`span`](mod@span) — RAII wall-clock timing plus an explicit channel for
//!   durations measured on the deterministic simulated clock; the two
//!   clock domains are kept in disjoint namespaces (`span.*` / `sim.*`).
//! * [`trace`] — simulated-time causal tracing: typed span/instant/
//!   counter events on named tracks, merged deterministically and
//!   exportable as Chrome trace-event JSON (Perfetto). Gated by its own
//!   flag ([`trace::enabled`]), off by default like metrics.
//! * [`json`] — a hand-rolled JSON/JSONL encoder and parser (the build
//!   environment has no serde), and [`logger`] — a leveled stderr
//!   logger so stdout can be reserved for machine-readable output.
//!
//! # Non-perturbation contract
//!
//! Recording is **off by default** and gated by one global flag
//! ([`enabled`], a relaxed atomic load — the only cost instrumentation
//! adds to a disabled fast path). Instruments never touch the simulated
//! clock, the trace, or any RNG, so enabling them cannot change a
//! single simulated outcome: an instrumented suite run produces
//! bit-identical traces and figures to an uninstrumented one. The
//! `whisper` crate's `obs_equivalence` integration test enforces this
//! contract.
//!
//! # Example
//!
//! ```
//! pmobs::set_enabled(true);
//! pmobs::count!("demo.requests");
//! pmobs::observe!("demo.latency_ns", pmobs::metrics::Unit::Nanos, 1500);
//! {
//!     let _span = pmobs::span!("demo.phase");
//!     // ... timed work ...
//! }
//! pmobs::set_enabled(false);
//! let snap = pmobs::global().snapshot();
//! assert_eq!(snap.counters["demo.requests"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod logger;
pub mod metrics;
pub mod span;
pub mod trace;

pub use json::Json;
pub use logger::Level;
pub use metrics::{Counter, Histogram, MaxGauge, MetricsSnapshot, Registry, Unit};
pub use span::{record_sim_ns, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is on. One relaxed atomic load — cheap
/// enough for simulator fast paths; false unless someone opted in.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide default [`Registry`] that the recording macros and
/// spans feed.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Increment a counter in the [`global`] registry (no-op while
/// recording is disabled). The registry lookup is cached per call site.
///
/// ```
/// pmobs::count!("cache.miss");          // += 1
/// pmobs::count!("cache.bytes_in", 64);  // += n
/// ```
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __PMOBS_C: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            __PMOBS_C
                .get_or_init(|| $crate::global().counter($name))
                .add($n);
        }
    };
}

/// Record a value into a histogram in the [`global`] registry (no-op
/// while recording is disabled). The registry lookup is cached per
/// call site.
///
/// ```
/// pmobs::observe!("fence.drained_lines", pmobs::Unit::Count, 3);
/// ```
#[macro_export]
macro_rules! observe {
    ($name:expr, $unit:expr, $v:expr) => {
        if $crate::enabled() {
            static __PMOBS_H: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            __PMOBS_H
                .get_or_init(|| $crate::global().histogram($name, $unit))
                .record($v);
        }
    };
}

/// Raise a high-water gauge in the [`global`] registry (no-op while
/// recording is disabled). The registry lookup is cached per call site.
///
/// ```
/// pmobs::high_water!("pb.occupancy", 12);
/// ```
#[macro_export]
macro_rules! high_water {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __PMOBS_G: ::std::sync::OnceLock<::std::sync::Arc<$crate::MaxGauge>> =
                ::std::sync::OnceLock::new();
            __PMOBS_G
                .get_or_init(|| $crate::global().gauge($name))
                .observe($v);
        }
    };
}

/// Start an RAII wall-clock span recording to `span.<name>[/<label>]`.
///
/// ```
/// let _span = pmobs::span!("analyze");
/// let _labeled = pmobs::span!("run", "echo");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::new($name, ::std::option::Option::None)
    };
    ($name:expr, $label:expr) => {
        $crate::SpanGuard::new($name, ::std::option::Option::Some($label))
    };
}

/// Log at error level (shown even under `--quiet`).
#[macro_export]
macro_rules! error {
    ($($a:tt)*) => { $crate::logger::log($crate::Level::Error, ::std::format_args!($($a)*)) };
}

/// Log at warn level.
#[macro_export]
macro_rules! warn {
    ($($a:tt)*) => { $crate::logger::log($crate::Level::Warn, ::std::format_args!($($a)*)) };
}

/// Log at info level (the default threshold).
#[macro_export]
macro_rules! info {
    ($($a:tt)*) => { $crate::logger::log($crate::Level::Info, ::std::format_args!($($a)*)) };
}

/// Log at debug level.
#[macro_export]
macro_rules! debug {
    ($($a:tt)*) => { $crate::logger::log($crate::Level::Debug, ::std::format_args!($($a)*)) };
}

/// Serializes tests that toggle process-wide state (the enabled flag,
/// the logger level).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_are_inert_while_disabled() {
        let _lock = test_lock();
        set_enabled(false);
        count!("lib.inert_counter");
        observe!("lib.inert_hist", Unit::Count, 5);
        high_water!("lib.inert_gauge", 5);
        let snap = global().snapshot();
        assert!(!snap.counters.contains_key("lib.inert_counter"));
        assert!(!snap.histograms.contains_key("lib.inert_hist"));
        assert!(!snap.gauges.contains_key("lib.inert_gauge"));
    }

    #[test]
    fn macros_record_when_enabled() {
        let _lock = test_lock();
        set_enabled(true);
        count!("lib.counter");
        count!("lib.counter", 4);
        observe!("lib.hist", Unit::Bytes, 64);
        high_water!("lib.gauge", 9);
        high_water!("lib.gauge", 3);
        set_enabled(false);
        let snap = global().snapshot();
        assert_eq!(snap.counters["lib.counter"], 5);
        assert_eq!(snap.histograms["lib.hist"].sum, 64);
        assert_eq!(snap.gauges["lib.gauge"], 9);
    }

    #[test]
    fn enabled_defaults_off_and_toggles() {
        let _lock = test_lock();
        // Other tests restore the flag; the important invariant is that
        // toggling round-trips.
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
