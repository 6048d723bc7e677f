//! Concurrency test: recording into one registry from many threads
//! must lose nothing — the property the parallel suite runner relies
//! on, since every worker records into [`pmobs::global`].

use pmobs::{Registry, Unit};

const THREADS: usize = 8;
const OPS: u64 = 10_000;

#[test]
fn shared_registry_loses_no_updates() {
    let reg = Registry::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("ops");
                let h = reg.histogram("latency", Unit::Nanos);
                for i in 0..OPS {
                    c.add(1);
                    h.record(i);
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
}
