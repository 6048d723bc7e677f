//! Concurrency tests: recording from many threads must lose nothing,
//! and per-worker snapshots must merge to the same totals as one shared
//! registry — the property the parallel suite runner relies on.

use pmobs::{MetricsSnapshot, Registry, Unit};

const THREADS: usize = 8;
const OPS: u64 = 10_000;

#[test]
fn shared_registry_loses_no_updates() {
    let reg = Registry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("ops");
                let h = reg.histogram("latency", Unit::Nanos);
                let g = reg.gauge("high");
                for i in 0..OPS {
                    c.add(1);
                    h.record(i);
                    g.observe(t as u64 * OPS + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    let n = THREADS as u64 * OPS;
    assert_eq!(snap.counters["ops"], n);
    assert_eq!(snap.histograms["latency"].count, n);
    // Every thread records 0..OPS, so the sum is THREADS * sum(0..OPS).
    assert_eq!(
        snap.histograms["latency"].sum,
        THREADS as u64 * (OPS * (OPS - 1) / 2)
    );
    assert_eq!(snap.histograms["latency"].min, Some(0));
    assert_eq!(snap.histograms["latency"].max, Some(OPS - 1));
    assert_eq!(snap.gauges["high"], THREADS as u64 * OPS - 1);
}

#[test]
fn per_worker_snapshots_merge_to_shared_totals() {
    // One registry per worker (as if each suite worker were its own
    // process), merged afterwards...
    let per_worker: Vec<MetricsSnapshot> = (0..THREADS)
        .map(|t| {
            let reg = Registry::new();
            let h = reg.histogram("latency", Unit::Nanos);
            for i in 0..OPS {
                reg.counter("ops").add(1);
                h.record(i * (t as u64 + 1));
                reg.gauge("high").observe(t as u64);
            }
            reg.snapshot()
        })
        .collect();
    let mut merged = MetricsSnapshot::default();
    for s in &per_worker {
        merged.merge(s);
    }

    // ...must equal one registry that saw every event.
    let shared = Registry::new();
    let h = shared.histogram("latency", Unit::Nanos);
    for t in 0..THREADS {
        for i in 0..OPS {
            shared.counter("ops").add(1);
            h.record(i * (t as u64 + 1));
            shared.gauge("high").observe(t as u64);
        }
    }
    assert_eq!(merged, shared.snapshot());
}

#[test]
fn merge_is_associative_enough_for_tree_reduction() {
    // Merging pairwise then combining equals merging sequentially.
    let snaps: Vec<MetricsSnapshot> = (0..4u64)
        .map(|t| {
            let reg = Registry::new();
            reg.counter("c").add(t + 1);
            reg.histogram("h", Unit::Count).record(1 << t);
            reg.snapshot()
        })
        .collect();
    let mut seq = MetricsSnapshot::default();
    for s in &snaps {
        seq.merge(s);
    }
    let mut left = snaps[0].clone();
    left.merge(&snaps[1]);
    let mut right = snaps[2].clone();
    right.merge(&snaps[3]);
    left.merge(&right);
    assert_eq!(seq, left);
}
