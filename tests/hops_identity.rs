//! Byte-identity pins for everything the `hops` replayer prices.
//!
//! For every Table 1 application at scale 0.05 / seed 42, at four and
//! at one scheduler worker, three FNV-1a digests are compared against
//! constants generated on the commit *before* the replayer moved onto
//! the dependency-ordered persist buffer: the [`RuntimeReport`] of all
//! five Figure 10 models (per-thread runtimes included), the serve
//! engine's per-request `(service, stall)` pools for [`SERVE_MODELS`]
//! at [`request_bounds`], and each model's final `stall_total_ns`.
//! The Figure 10 golden only sees the normalised bars; these pins see
//! every per-thread and per-request number underneath them.
//!
//! To regenerate after an *intended* output change:
//! `cargo test --test hops_identity -- --ignored --nocapture`
//! and paste the printed table over [`PINS`].
//!
//! [`RuntimeReport`]: hops::RuntimeReport

use hops::{replay, HopsConfig, PersistModel, Replayer, TimingConfig};
use pmem::hash::Fnv1a;
use pmtrace::Event;
use whisper::serve::{request_bounds, service_times_with_stalls, SERVE_MODELS};
use whisper::suite::{run_named_threads, SuiteConfig, APP_NAMES};

/// What each digest in a [`PINS`] row covers, in order.
const FACETS: [&str; 3] = ["runtime", "serve", "stall"];

/// `(app, worker threads, [runtime, serve, stall])`.
#[rustfmt::skip]
const PINS: &[(&str, u32, [u64; 3])] = &[
    ("echo", 4, [0x03bdb996525fabe3, 0xc0db462eabce8b15, 0xa19e0c8478277997]),
    ("nstore-ycsb", 4, [0xdd6e7b18d2b25d5d, 0x1d0b293f7539331a, 0xdf3d349a93d12de7]),
    ("nstore-tpcc", 4, [0x1e4df976c3eb9ec6, 0xeaedd682a6a6af8c, 0xe74dbb84ffca6674]),
    ("redis", 4, [0xf4602b7a2f225205, 0x05553f09ab4fc939, 0xd666e1ddf93b1168]),
    ("ctree", 4, [0xda11fc5fca845e91, 0x79a8ab72c95ee83a, 0xa9584c3250020a23]),
    ("hashmap", 4, [0x6fee9297daaec190, 0xe7a210f5698aca83, 0x62d201bf2804c13a]),
    ("vacation", 4, [0x48ff1ccedd694973, 0x486248b5b6292d37, 0x85e00099891987a5]),
    ("memcached", 4, [0x5236f6832e12a8ca, 0x018979647c74a7c1, 0x3b2ea7a6387a8e53]),
    ("nfs", 4, [0xc35243a57df6f071, 0x4500adcffe21e6bb, 0x503c198a6ae426fb]),
    ("exim", 4, [0x0cbe92c60a2b712e, 0x652c90d36edf968d, 0x9f37670a38eef62e]),
    ("mysql", 4, [0xec61628d67aeb9f8, 0x67eb6f2071e5a436, 0xbbddcc69a1ca9da3]),
    ("echo", 1, [0x03bdb996525fabe3, 0xc0db462eabce8b15, 0xa19e0c8478277997]),
    ("nstore-ycsb", 1, [0xdd6e7b18d2b25d5d, 0x1d0b293f7539331a, 0xdf3d349a93d12de7]),
    ("nstore-tpcc", 1, [0x1e4df976c3eb9ec6, 0xeaedd682a6a6af8c, 0xe74dbb84ffca6674]),
    ("redis", 1, [0x1a9834e4a372d544, 0xec6323bbdbb49d15, 0x74f5b752f289eeb8]),
    ("ctree", 1, [0xda11fc5fca845e91, 0x79a8ab72c95ee83a, 0xa9584c3250020a23]),
    ("hashmap", 1, [0x6fee9297daaec190, 0xe7a210f5698aca83, 0x62d201bf2804c13a]),
    ("vacation", 1, [0x433ac464bb97b0e0, 0xbaa5849f9089f882, 0xe5b8da5659b204d7]),
    ("memcached", 1, [0xb3e833df17aa9a0c, 0xa0c0c404c6e12b20, 0xfe541338e33aeadd]),
    ("nfs", 1, [0xc35243a57df6f071, 0x4500adcffe21e6bb, 0x503c198a6ae426fb]),
    ("exim", 1, [0x0cbe92c60a2b712e, 0x652c90d36edf968d, 0x9f37670a38eef62e]),
    ("mysql", 1, [0xec61628d67aeb9f8, 0x67eb6f2071e5a436, 0xbbddcc69a1ca9da3]),
];

/// The quick-scale trace of `name` and its op count.
fn trace(name: &str, workers: u32) -> (Vec<Event>, usize) {
    let cfg = SuiteConfig {
        worker_threads: workers,
        parallelism: 1,
        ..SuiteConfig::quick()
    };
    let ops = cfg.effective_ops(name).expect("Table 1 name");
    (run_named_threads(name, ops, cfg.seed, workers).events, ops)
}

fn digests(events: &[Event], ops: usize) -> [u64; 3] {
    let (t, h) = (TimingConfig::default(), HopsConfig::default());

    let mut runtime = Fnv1a::default();
    for model in PersistModel::ALL {
        let r = replay(events, &t, &h, model);
        runtime.bytes(model.to_string().as_bytes());
        runtime.u64(r.per_thread_ns.len() as u64);
        for ns in &r.per_thread_ns {
            runtime.u64(*ns);
        }
        runtime.u64(r.runtime_ns);
    }

    let mut serve = Fnv1a::default();
    let bounds = request_bounds(events, ops);
    for model in SERVE_MODELS {
        let pool = service_times_with_stalls(events, &bounds, model);
        serve.u64(pool.len() as u64);
        for (service, stall) in pool {
            serve.u64(service).u64(stall);
        }
    }

    let mut stall = Fnv1a::default();
    for model in PersistModel::ALL {
        let mut r = Replayer::new(&t, &h, model);
        for ev in events {
            r.step(ev);
        }
        stall.u64(r.stall_total_ns());
    }

    [runtime.finish(), serve.finish(), stall.finish()]
}

fn rows() -> impl Iterator<Item = (&'static str, u32)> {
    [4u32, 1]
        .into_iter()
        .flat_map(|w| APP_NAMES.into_iter().map(move |n| (n, w)))
}

#[test]
fn replay_output_is_byte_identical_to_the_pinned_commit() {
    assert_eq!(PINS.len(), rows().count(), "one pin per (app, threads)");
    for ((name, workers), (pin_name, pin_workers, pinned)) in rows().zip(PINS.iter().copied()) {
        assert_eq!((name, workers), (pin_name, pin_workers), "pin order");
        let (events, ops) = trace(name, workers);
        let got = digests(&events, ops);
        for ((facet, got), want) in FACETS.iter().zip(got).zip(pinned) {
            assert_eq!(
                got, want,
                "{name} at {workers} worker(s): {facet} digest {got:#018x} != pinned {want:#018x}"
            );
        }
    }
}

/// Prints the [`PINS`] table for the current commit.
#[test]
#[ignore = "generator: prints the PINS table, asserts nothing"]
fn print_pins() {
    for (name, workers) in rows() {
        let (events, ops) = trace(name, workers);
        let d = digests(&events, ops);
        println!(
            "    ({name:?}, {workers}, [{:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2]
        );
    }
}
