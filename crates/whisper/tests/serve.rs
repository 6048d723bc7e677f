//! Serving-engine gates: the open-loop sweep must be deterministic
//! across shard counts and worker parallelism, cover every Table 1 app
//! with full curves, and produce non-vacuous latency histograms whose
//! queueing component grows past the saturation knee.

use whisper::serve::{
    arrival_schedule, key_stream, run_serve_profiled, serve_json, Arrival, ServeConfig,
    LOAD_FRACTIONS, SERVE_MODELS,
};

/// The arrival schedule and key stream are functions of the seed alone:
/// shard count and worker parallelism never enter, so two configs that
/// differ only there drive the very same open-loop request stream.
#[test]
fn arrival_schedule_is_shard_and_parallelism_independent() {
    for arrival in [Arrival::Paced, Arrival::Bursty] {
        let a = arrival_schedule(42, 2_000, 5e5, arrival);
        let b = arrival_schedule(42, 2_000, 5e5, arrival);
        assert_eq!(a, b, "{arrival}: schedule is pure in (seed, n, rate)");
        assert_eq!(a.len(), 2_000);
    }
    // Keys likewise; shard routing is `key % shards`, applied later.
    assert_eq!(key_stream(42, 2_000), key_stream(42, 2_000));
}

/// The acceptance gate: at quick scale, every Table 1 app gets a
/// throughput/latency curve per mechanism across every offered-load
/// point, and the serve JSON is byte-identical whatever the worker
/// count — the same parallelism-invariance the crash campaign pins.
#[test]
fn serve_sweep_covers_every_app_and_is_parallelism_invariant() {
    let serial = ServeConfig {
        scale: 0.008,
        seed: 42,
        shards: 2,
        arrival: Arrival::Bursty,
        parallelism: 1,
        worker_threads: 4,
    };
    let fanned = ServeConfig {
        parallelism: 4,
        ..serial
    };
    let a = run_serve_profiled(&serial).0;
    let b = run_serve_profiled(&fanned).0;

    assert_eq!(a.len(), 11, "one row per Table 1 app");
    for r in &a {
        assert_eq!(r.curves.len(), SERVE_MODELS.len());
        assert!(r.offered_rps.len() >= 4, "{}: need ≥4 load points", r.name);
        for c in &r.curves {
            assert_eq!(c.points.len(), LOAD_FRACTIONS.len());
            for p in &c.points {
                assert!(p.requests > 0, "{}: empty histogram", r.name);
                assert!(p.p50_ns > 0, "{}: vacuous latency", r.name);
                assert!(
                    p.p50_ns <= p.p90_ns && p.p90_ns <= p.p99_ns && p.p99_ns <= p.p999_ns,
                    "{}: percentiles out of order",
                    r.name
                );
            }
        }
    }

    // Digest-pinned determinism: the entire serve document reproduces
    // byte-for-byte across worker counts.
    assert_eq!(a, b, "structs must match across parallelism");
    assert_eq!(
        serve_json(&a, &serial).to_pretty(),
        serve_json(&b, &serial).to_pretty(),
        "serve JSON must be byte-identical across parallelism"
    );
}

/// Open-loop latency must feel the knee: past the baseline's capacity
/// the queueing wait dominates, below it the tail stays near service
/// time.
#[test]
fn latency_grows_past_the_knee() {
    let cfg = ServeConfig {
        scale: 0.01,
        seed: 7,
        shards: 2,
        arrival: Arrival::Bursty,
        parallelism: 2,
        worker_threads: 4,
    };
    let reports = run_serve_profiled(&cfg).0;
    let hashmap = reports.iter().find(|r| r.name == "hashmap").unwrap();
    // Baseline mechanism, below-knee vs past-knee points.
    let base = &hashmap.curves[0];
    let below = &base.points[0];
    let above = base.points.last().unwrap();
    assert!(
        above.p99_ns > below.p99_ns,
        "p99 must grow with offered load: {} vs {}",
        above.p99_ns,
        below.p99_ns
    );
    assert!(
        above.mean_wait_ns > below.mean_wait_ns * 2.0,
        "queueing wait must dominate past the knee"
    );
    // Achieved throughput saturates below offered once past capacity.
    assert!(
        above.achieved_rps < above.offered_rps,
        "cannot serve more than capacity"
    );
}

/// The serving comparison itself: a mechanism with cheaper ordering
/// (HOPS) sustains a higher capacity than the clwb baseline on every
/// app but redis. The interleaved redis port writes its log-free dict
/// in place, so requests carry almost no fence-stall time for HOPS to
/// recover (EXPERIMENTS.md deviation 6): there the two tie within 5 %,
/// HOPS a little behind (0.991 of clwb here), as in Figure 10.
#[test]
fn hops_outserves_the_baseline() {
    let cfg = ServeConfig {
        scale: 0.008,
        seed: 42,
        shards: 2,
        arrival: Arrival::Paced,
        parallelism: 4,
        worker_threads: 4,
    };
    let mut not_faster = Vec::new();
    for r in run_serve_profiled(&cfg).0 {
        let base = &r.curves[0]; // x86-64 (NVM)
        let hops = &r.curves[1]; // HOPS (NVM)
        if hops.capacity_rps <= base.capacity_rps {
            assert!(
                hops.capacity_rps > base.capacity_rps * 0.95,
                "{}: HOPS {} should tie clwb {}",
                r.name,
                hops.capacity_rps,
                base.capacity_rps
            );
            not_faster.push(r.name);
        }
    }
    assert_eq!(
        not_faster,
        ["redis"],
        "redis alone is not served faster under HOPS(NVM)"
    );
}
