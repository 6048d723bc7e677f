//! Phase profiles of the serving sweep: where simulated time goes.
//!
//! The serve section answers "how do the latency percentiles move";
//! this module answers "*why*": every simulated request's latency is an
//! exact sum of three phases on the simulated clock —
//!
//! * **queue** — arrival until the shard starts serving (FIFO wait),
//! * **replay** — the mechanism-independent part of the service time
//!   (volatile work plus store/flush issue costs), and
//! * **fence stall** — ordering charges at fences plus persist-buffer
//!   overflow stalls, as accumulated by
//!   [`hops::Replayer::stall_total_ns`].
//!
//! Aggregating the phases per app × mechanism gives the inclusive
//! totals; the **tail attribution** table restricts the same sum to
//! requests at or above each sweep point's reported p99, so the
//! percentages say what the p99+ tail is actually made of — queue
//! build-up past the knee, fence stalls below it. The identity
//! `latency = queue + replay + fence_stall` holds per request, so each
//! row's percentages sum to exactly 100.
//!
//! Everything here derives from the same samples that feed the serve
//! histograms (simulated clock only), so the `profile` report section
//! is deterministic per `(scale, seed, shards, arrival)` — like
//! `serve`, it sits outside the golden deterministic subset.

use crate::section::{cell, fixed, plain, rows, Col, Section};
use crate::serve::{sweep_shape, ServeConfig};
use hops::PersistModel;
use pmobs::Json;

/// Tail attribution at one sweep point: what the p99+ requests spent
/// their time on.
#[derive(Debug, Clone, PartialEq)]
pub struct TailPoint {
    /// Offered load as a fraction of baseline capacity
    /// ([`LOAD_FRACTIONS`](crate::serve::LOAD_FRACTIONS) entry).
    pub load_fraction: f64,
    /// Offered load (req/s).
    pub offered_rps: f64,
    /// The point's reported (interpolated) p99 latency — the tail
    /// threshold.
    pub p99_ns: u64,
    /// Requests with latency ≥ `p99_ns` (never zero: the interpolated
    /// p99 is at most the observed maximum).
    pub tail_requests: u64,
    /// Total latency of those requests (ns).
    pub tail_total_ns: u64,
    /// Share of `tail_total_ns` spent queueing (percent).
    pub queue_pct: f64,
    /// Share spent in mechanism-independent replay (percent).
    pub replay_pct: f64,
    /// Share spent in fence/ofence/dfence + PB-overflow stalls
    /// (percent).
    pub fence_stall_pct: f64,
}

/// Phase totals for one mechanism of one app, across every sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismProfile {
    /// The persistence mechanism.
    pub model: PersistModel,
    /// Exclusive queueing time over all simulated requests (ns).
    pub queue_ns: u64,
    /// Exclusive mechanism-independent replay time (ns).
    pub replay_ns: u64,
    /// Exclusive ordering-stall time (ns).
    pub fence_stall_ns: u64,
    /// Inclusive service time: `replay_ns + fence_stall_ns`.
    pub service_ns: u64,
    /// Inclusive latency: `queue_ns + service_ns`.
    pub total_ns: u64,
    /// One row per [`LOAD_FRACTIONS`](crate::serve::LOAD_FRACTIONS) entry.
    pub tail: Vec<TailPoint>,
}

/// Phase profile of one Table 1 application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Table 1 name.
    pub name: String,
    /// One entry per [`SERVE_MODELS`](crate::serve::SERVE_MODELS) entry, in that order.
    pub mechanisms: Vec<MechanismProfile>,
}

#[rustfmt::skip]
const TAIL: [Col<TailPoint>; 8] = [
    Col("load_fraction", "load", " >5", |t| t.load_fraction.into(), fixed::<2>),
    Col::json("offered_rps", |t| t.offered_rps.into()),
    Col("p99_ns", "p99 (us)", " >10", |t| t.p99_ns.into(), |c| format!("{:.1}", c.as_f64().unwrap_or(0.0) / 1000.0)),
    Col("tail_requests", "tail-req", " >10", |t| t.tail_requests.into(), plain),
    Col::json("tail_total_ns", |t| t.tail_total_ns.into()),
    // Its head is one wider than its cells.
    Col("queue_pct", "    queue%", " >9", |t| t.queue_pct.into(), fixed::<1>),
    Col("replay_pct", "replay%", " >9", |t| t.replay_pct.into(), fixed::<1>),
    Col("fence_stall_pct", "stall%", " >8", |t| t.fence_stall_pct.into(), fixed::<1>),
];

#[rustfmt::skip]
const MECHANISM: [Col<MechanismProfile>; 7] = [
    Col("model", "mechanism", "    <15", |m| m.model.to_string().into(), plain),
    Col::json("queue_ns", |m| m.queue_ns.into()),
    Col::json("replay_ns", |m| m.replay_ns.into()),
    Col::json("fence_stall_ns", |m| m.fence_stall_ns.into()),
    Col::json("service_ns", |m| m.service_ns.into()),
    Col::json("total_ns", |m| m.total_ns.into()),
    Col::json("tail", |m| rows(&m.tail, &TAIL).into()),
];

#[rustfmt::skip]
const APP: [Col<AppProfile>; 2] = [
    Col::json("name", |p| p.name.as_str().into()),
    Col::json("mechanisms", |p| rows(&p.mechanisms, &MECHANISM).into()),
];

/// The `profile` section of the report and the tail-attribution tables
/// `--profile` prints, one block per app.
pub fn section(profiles: &[AppProfile], cfg: &ServeConfig) -> Section {
    let title = "Phase profile: where p99+ tail time goes (queue / replay / fence stall)";
    let section = Section::new("profile", title)
        .table(profiles, &APP)
        .cols(&MECHANISM)
        .cols(&TAIL)
        .expand(&["mechanisms", "tail"])
        .before(|app| vec![String::new(), format!("  {}", plain(cell(app, "name")))]);
    sweep_shape(section, cfg)
}

/// The `profile` section of the JSON report ([`section`]).
pub fn profile_json(profiles: &[AppProfile], cfg: &ServeConfig) -> Json {
    section(profiles, cfg).json()
}

/// The `--profile` tables ([`section`]).
pub fn profile_table(profiles: &[AppProfile]) -> String {
    section(profiles, &ServeConfig::quick()).text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Arrival;

    fn sample_profiles() -> Vec<AppProfile> {
        vec![AppProfile {
            name: "hashmap".into(),
            mechanisms: vec![MechanismProfile {
                model: PersistModel::X86Nvm,
                queue_ns: 600,
                replay_ns: 300,
                fence_stall_ns: 100,
                service_ns: 400,
                total_ns: 1000,
                tail: vec![TailPoint {
                    load_fraction: 1.25,
                    offered_rps: 5e5,
                    p99_ns: 9000,
                    tail_requests: 3,
                    tail_total_ns: 30_000,
                    queue_pct: 80.0,
                    replay_pct: 15.0,
                    fence_stall_pct: 5.0,
                }],
            }],
        }]
    }

    #[test]
    fn profile_json_shape() {
        let cfg = ServeConfig {
            scale: 0.05,
            seed: 42,
            shards: 4,
            arrival: Arrival::Bursty,
            parallelism: 1,
            worker_threads: 4,
        };
        let doc = profile_json(&sample_profiles(), &cfg);
        let parsed = pmobs::json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed.get("shards").and_then(Json::as_f64), Some(4.0));
        let apps = parsed.get("apps").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(apps.len(), 1);
        let mech = apps[0].get("mechanisms").and_then(|m| m.as_arr()).unwrap();
        let tail = mech[0].get("tail").and_then(|t| t.as_arr()).unwrap();
        let row = &tail[0];
        for key in [
            "load_fraction",
            "offered_rps",
            "p99_ns",
            "tail_requests",
            "tail_total_ns",
            "queue_pct",
            "replay_pct",
            "fence_stall_pct",
        ] {
            assert!(row.get(key).is_some(), "tail row missing {key}");
        }
    }

    #[test]
    fn profile_table_mentions_every_phase() {
        let text = profile_table(&sample_profiles());
        assert!(text.contains("hashmap"));
        assert!(text.contains("queue%"));
        assert!(text.contains("x86-64 (NVM)"));
    }
}
