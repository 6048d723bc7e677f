//! HOPS semantics across crates: the functional persist-buffer model
//! and the timing replay must agree with the paper's Section 6 on
//! traces produced by the real substrate.

use hops::{replay, HopsConfig, HopsSystem, PersistModel, TimingConfig};
use miniprop::prelude::*;
use pmem::{AddrRange, Line};

#[test]
fn fig10_ordering_on_real_app_traces() {
    // On every simulated application's trace, the five models keep the
    // paper's order and the paper's two headline relations hold:
    // HOPS(NVM) beats x86-64(PWQ), and the PWQ helps HOPS far less
    // than it helps x86-64.
    for name in whisper::suite::SIM_APPS {
        let cfg = whisper::suite::SuiteConfig {
            scale: 0.015,
            seed: 11,
            parallelism: 1,
            worker_threads: 4,
        };
        let r = whisper::suite::run_app(name, &cfg);
        let bars = &r.analysis.fig10;
        if name == "redis" {
            // The interleaved log-free dict leaves almost no
            // persistence cost on the trace, so the four real
            // mechanisms tie within noise (EXPERIMENTS.md deviation
            // 6); only the no-persistence IDEAL bound must still win.
            let ideal = bars[4].1;
            for (model, runtime) in &bars[..4] {
                assert!(
                    ideal <= *runtime,
                    "{name}: IDEAL must be the fastest, but {model} ran at {runtime}"
                );
            }
            continue;
        }
        let x86_gain = bars[0].1 - bars[1].1;
        let hops_gain = bars[2].1 - bars[3].1;
        assert!(
            hops_gain < x86_gain,
            "{name}: PWQ should matter less under HOPS ({hops_gain} vs {x86_gain})"
        );
        assert!(
            bars[2].1 < bars[1].1,
            "{name}: HOPS(NVM) must beat x86(PWQ)"
        );
    }
}

#[test]
fn replay_is_deterministic() {
    let r = whisper::suite::run_app(
        "hashmap",
        &whisper::suite::SuiteConfig {
            scale: 0.01,
            seed: 3,
            parallelism: 1,
            worker_threads: 4,
        },
    );
    let t = TimingConfig::default();
    let h = HopsConfig::default();
    let a = replay(&r.run.events, &t, &h, PersistModel::HopsNvm);
    let b = replay(&r.run.events, &t, &h, PersistModel::HopsNvm);
    assert_eq!(a, b);
}

#[test]
fn bigger_pb_never_hurts() {
    let t = TimingConfig::default();
    let pb = |entries: usize| HopsConfig {
        pb_entries: entries,
        flush_threshold: entries / 2,
        ..HopsConfig::default()
    };
    let r = whisper::apps::micro::hashmap_unpaced(1500, 4);
    let mut last = u64::MAX;
    for entries in [4usize, 8, 16, 32, 64] {
        let rt = replay(&r.events, &t, &pb(entries), PersistModel::HopsNvm).runtime_ns;
        assert!(rt <= last, "{entries}-entry PB slower than smaller PB");
        last = rt;
    }

    // The PB-sizing ablation: echo's large batched transactions stress
    // PB capacity hardest, yet HOPS(NVM) / x86-64(NVM) barely moves
    // from 8 to 64 entries ("sustaining high performance with
    // small-sized PBs"; the paper evaluates 32, flushing at 16).
    let echo = whisper::apps::echo::run_unpaced(1200, 42);
    let normalized: Vec<f64> = [8usize, 16, 32, 64]
        .into_iter()
        .map(|entries| {
            let runtime = |model| replay(&echo.events, &t, &pb(entries), model).runtime_ns as f64;
            runtime(PersistModel::HopsNvm) / runtime(PersistModel::X86Nvm)
        })
        .collect();
    assert!(
        normalized.windows(2).all(|w| w[1] <= w[0]),
        "{normalized:?}"
    );
    let shown: Vec<String> = normalized.iter().map(|r| format!("{r:.3}")).collect();
    assert_eq!(shown, ["0.786", "0.785", "0.784", "0.782"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Functional model: per-thread epoch-prefix durability holds for
    /// arbitrary multi-threaded store/ofence interleavings and crash
    /// seeds.
    #[test]
    fn epoch_prefix_durability(
        script in collection::vec((0usize..3, 0u64..16, any::<bool>()), 1..40),
        crash_seed in any::<u64>(),
    ) {
        let mut sys = HopsSystem::new(HopsConfig::default(), AddrRange::new(0, 1 << 20), 3);
        // Per-thread: every epoch writes a fresh line with the epoch
        // index so prefixes are checkable. Threads use disjoint lines.
        let mut epoch_idx = [0u64; 3];
        let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (tid, _key, fence) in script {
            let e = epoch_idx[tid];
            if e >= 64 {
                continue;
            }
            let line = (tid as u64 * 64 + e) * 64;
            sys.store(tid, line, &(e + 1).to_le_bytes()).unwrap();
            committed[tid].push(e);
            if fence {
                sys.ofence(tid).unwrap();
                epoch_idx[tid] += 1;
            }
        }
        let img = sys.crash(crash_seed);
        for tid in 0..3usize {
            // The durable epochs of each thread form a prefix.
            let mut seen_gap = false;
            for e in 0..64u64 {
                let addr = (tid as u64 * 64 + e) * 64;
                let v = u64::from_le_bytes(img.read_vec(addr, 8).try_into().unwrap());
                if v == 0 {
                    seen_gap = true;
                } else {
                    prop_assert!(
                        !seen_gap,
                        "thread {} epoch {} durable after a gap",
                        tid,
                        e
                    );
                    prop_assert_eq!(v, e + 1);
                }
            }
        }
    }

    /// dfence makes everything the thread wrote durable, regardless of
    /// what came before.
    #[test]
    fn dfence_drains_thread(
        writes in collection::vec((0u64..32, any::<u64>()), 1..32),
    ) {
        let mut sys = HopsSystem::new(HopsConfig::default(), AddrRange::new(0, 1 << 20), 2);
        for (i, (slot, val)) in writes.iter().enumerate() {
            sys.store(0, slot * 64, &val.to_le_bytes()).unwrap();
            if i % 3 == 0 {
                sys.ofence(0).unwrap();
            }
        }
        sys.dfence(0).unwrap();
        prop_assert_eq!(sys.pb_len(0).unwrap(), 0);
        // Durable state equals functional state for every written slot.
        for (slot, _) in &writes {
            let addr = slot * 64;
            let functional = sys.load_vec(addr, 8);
            let durable = sys.durable_u64(addr).to_le_bytes().to_vec();
            prop_assert_eq!(functional, durable);
        }
    }

    /// Multi-versioning: buffered version count for a line equals the
    /// number of distinct epochs that wrote it (until capacity flushes).
    #[test]
    fn multiversion_counts(epochs in 1usize..8) {
        let mut sys = HopsSystem::new(HopsConfig::default(), AddrRange::new(0, 1 << 20), 1);
        for e in 0..epochs {
            sys.store(0, 0x40, &(e as u64).to_le_bytes()).unwrap();
            sys.ofence(0).unwrap();
        }
        prop_assert_eq!(sys.buffered_versions(0, Line::containing(0x40)).unwrap(), epochs);
    }
}
