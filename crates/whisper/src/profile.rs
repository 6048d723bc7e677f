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

use crate::serve::{ServeConfig, LOAD_FRACTIONS, SERVE_MODELS};
use hops::PersistModel;
use pmobs::Json;

/// Tail attribution at one sweep point: what the p99+ requests spent
/// their time on.
#[derive(Debug, Clone, PartialEq)]
pub struct TailPoint {
    /// Offered load as a fraction of baseline capacity
    /// ([`LOAD_FRACTIONS`] entry).
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
    /// One row per [`LOAD_FRACTIONS`] entry.
    pub tail: Vec<TailPoint>,
}

/// Phase profile of one Table 1 application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Table 1 name.
    pub name: String,
    /// One entry per [`SERVE_MODELS`] entry, in that order.
    pub mechanisms: Vec<MechanismProfile>,
}

/// Serialize profiles for the report's schema-v5 `profile` section.
pub fn profile_json(profiles: &[AppProfile], cfg: &ServeConfig) -> Json {
    let apps: Vec<Json> = profiles
        .iter()
        .map(|p| {
            let mechanisms: Vec<Json> = p
                .mechanisms
                .iter()
                .map(|m| {
                    let tail: Vec<Json> = m
                        .tail
                        .iter()
                        .map(|t| {
                            Json::obj()
                                .field("load_fraction", t.load_fraction)
                                .field("offered_rps", t.offered_rps)
                                .field("p99_ns", t.p99_ns)
                                .field("tail_requests", t.tail_requests)
                                .field("tail_total_ns", t.tail_total_ns)
                                .field("queue_pct", t.queue_pct)
                                .field("replay_pct", t.replay_pct)
                                .field("fence_stall_pct", t.fence_stall_pct)
                        })
                        .collect();
                    Json::obj()
                        .field("model", m.model.to_string().as_str())
                        .field("queue_ns", m.queue_ns)
                        .field("replay_ns", m.replay_ns)
                        .field("fence_stall_ns", m.fence_stall_ns)
                        .field("service_ns", m.service_ns)
                        .field("total_ns", m.total_ns)
                        .field("tail", tail)
                })
                .collect();
            Json::obj()
                .field("name", p.name.as_str())
                .field("mechanisms", mechanisms)
        })
        .collect();
    Json::obj()
        .field("shards", cfg.shards as u64)
        .field("arrival", cfg.arrival.to_string().as_str())
        .field(
            "load_fractions",
            LOAD_FRACTIONS
                .iter()
                .copied()
                .map(Json::from)
                .collect::<Vec<_>>(),
        )
        .field(
            "models",
            SERVE_MODELS
                .iter()
                .map(|m| Json::from(m.to_string()))
                .collect::<Vec<_>>(),
        )
        .field("apps", apps)
}

/// Render the tail-attribution tables as text (one block per app,
/// mirroring the serve table's layout).
pub fn profile_table(profiles: &[AppProfile]) -> String {
    let mut out = String::new();
    out.push_str("Phase profile: where p99+ tail time goes (queue / replay / fence stall)\n");
    for p in profiles {
        out.push_str(&format!("\n  {}\n", p.name));
        out.push_str(
            "    mechanism        load   p99 (us)   tail-req     queue%   replay%   stall%\n",
        );
        for m in &p.mechanisms {
            for t in &m.tail {
                out.push_str(&format!(
                    "    {:<15} {:>5.2} {:>10.1} {:>10} {:>9.1} {:>9.1} {:>8.1}\n",
                    m.model.to_string(),
                    t.load_fraction,
                    t.p99_ns as f64 / 1000.0,
                    t.tail_requests,
                    t.queue_pct,
                    t.replay_pct,
                    t.fence_stall_pct
                ));
            }
        }
    }
    out
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
