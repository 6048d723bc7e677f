//! HOPS semantics across crates: the persist buffer and the timing
//! replay that steps it must agree with the paper's Section 6, on
//! arbitrary scripts and on traces produced by the real substrate.

use hops::{replay, Entry, HopsConfig, PersistBuffer, PersistModel, TimingConfig};
use miniprop::prelude::*;
use pmem::Line;
use pmtrace::Tid;

#[test]
fn fig10_ordering_on_real_app_traces() {
    // On every simulated application's trace, IDEAL is the floor and
    // HOPS(NVM) beats x86-64(NVM), except on redis: its interleaved
    // log-free dict leaves almost no persistence cost on the trace, so
    // the persist buffer's overhead outweighs what it saves
    // (EXPERIMENTS.md deviation 6; 1.012 here, 1.0152 in the golden).
    // Elsewhere the paper's two headline relations hold: HOPS(NVM)
    // beats x86-64(PWQ), and the PWQ helps HOPS far less than it helps
    // x86-64.
    let mut not_faster = Vec::new();
    for name in whisper::suite::SIM_APPS {
        let cfg = whisper::suite::SuiteConfig {
            scale: 0.015,
            seed: 11,
            parallelism: 1,
            worker_threads: 4,
        };
        let r = whisper::suite::run_app(name, &cfg);
        let bars = &r.analysis.fig10;
        let ideal = bars[4].1;
        for (model, runtime) in &bars[..4] {
            assert!(
                ideal <= *runtime,
                "{name}: IDEAL must be the fastest, but {model} ran at {runtime}"
            );
        }
        if bars[2].1 >= 1.0 {
            not_faster.push(name);
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
    assert_eq!(
        not_faster,
        ["redis"],
        "redis alone is not faster under HOPS(NVM)"
    );
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
    // small-sized PBs"; the paper evaluates 32).
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

/// Each thread's landed entries are a prefix of what it buffered, made
/// of whole epochs, and closed under dependency pointers: an entry that
/// landed with dependency `(s, e)` implies every entry of `s` with
/// epoch `e` or older landed too.
fn assert_epoch_prefix_closed(buffered: &[(Tid, Entry)], landed: &[(Tid, Entry)]) {
    let of = |set: &[(Tid, Entry)], tid: Tid| -> Vec<Entry> {
        set.iter()
            .filter(|(t, _)| *t == tid)
            .map(|(_, e)| *e)
            .collect()
    };
    for &(tid, _) in buffered {
        let (all, got) = (of(buffered, tid), of(landed, tid));
        assert_eq!(
            all[..got.len()],
            got[..],
            "{tid}: landed is not a FIFO prefix"
        );
        if let (Some(last), Some(next)) = (got.last(), all.get(got.len())) {
            assert!(
                next.epoch > last.epoch,
                "{tid}: epoch {} landed in part",
                last.epoch
            );
        }
    }
    for (tid, e) in landed {
        if let Some((src, epoch)) = e.dep {
            let lost = of(buffered, src).len() - of(landed, src).len();
            let missing = of(buffered, src)
                .iter()
                .rev()
                .take(lost)
                .any(|s| s.epoch <= epoch);
            assert!(
                !missing,
                "{tid}'s {e:?} landed before {src} retired epoch {epoch}"
            );
        }
    }
}

/// Threads get buffers on first sight with no cap on their ids: a
/// sparse pair shares lines and keeps its dependency.
#[test]
fn sparse_thread_ids_share_the_owner_index() {
    let pair = || {
        let mut pb = PersistBuffer::new(&HopsConfig::default());
        let (a, b) = (pb.thread(Tid(0)), pb.thread(Tid(300)));
        pb.store(a, 0x40, 8);
        pb.store(b, 0x40, 8);
        (pb, a, b)
    };
    let (mut pb, a, b) = pair();
    assert_eq!((a, b), (0, 1), "handles count up whatever the ids");
    let buffered: Vec<_> = pb.entries().collect();
    assert_eq!(buffered[1].0, Tid(300));
    assert_eq!(buffered[1].1.dep, Some((Tid(0), 1)));
    for seed in 0..32 {
        assert_epoch_prefix_closed(&buffered, &pair().0.crash(seed));
    }
    pb.dfence(b);
    assert_eq!((pb.len(a), pb.len(b), pb.retired()), (0, 0, 2));
}

/// Retiring a dependent entry first retires its source through the
/// epoch the dependency names, and no further.
#[test]
fn retiring_a_dependent_entry_retires_its_source_epoch() {
    let mut pb = PersistBuffer::new(&HopsConfig::default());
    let (t0, t1) = (pb.thread(Tid(0)), pb.thread(Tid(1)));
    pb.store(t0, 0x40, 8);
    pb.store(t0, 0x80, 8);
    pb.store(t1, 0x40, 8); // depends on t0's epoch 1
    pb.ofence(t0);
    pb.store(t0, 0xc0, 8); // t0's epoch 2
    assert_eq!(pb.retire(t1, 1), 0, "nothing past capacity");
    assert_eq!((pb.len(t0), pb.len(t1), pb.retired()), (1, 0, 3));
    let left: Vec<_> = pb.entries().map(|(t, e)| (t, e.first, e.epoch)).collect();
    assert_eq!(left, [(Tid(0), Line::containing(0xc0), 2)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `retire(k)` against a closed-form model of one thread's FIFO:
    /// it retires the `min(k, len)` oldest lines, then whatever is left
    /// beyond capacity, and returns that overflow. Stores write 1–3
    /// lines; `ofence` only restamps the following stores.
    #[test]
    fn retire_matches_a_fifo_model(
        cap in 1usize..41,
        script in collection::vec((0u8..3, 0u64..16, 1u64..4, 0usize..4), 1..64),
    ) {
        let mut pb = PersistBuffer::new(&HopsConfig {
            pb_entries: cap,
            ..HopsConfig::default()
        });
        let t = pb.thread(Tid(0));
        // Buffered (line, epoch) pairs, oldest first.
        let mut model: std::collections::VecDeque<(u64, u64)> = Default::default();
        let (mut epoch, mut retired) = (1, 0);
        for (op, line, lines, ki) in script {
            match op {
                0 => {
                    pb.store(t, line * 64, lines as usize * 64);
                    model.extend((line..line + lines).map(|l| (l, epoch)));
                }
                1 => {
                    pb.ofence(t);
                    epoch += 1;
                }
                _ => {
                    let k = [0, 1, 5, u64::MAX][ki];
                    let len = model.len() as u64;
                    let overflow = (len - k.min(len)).saturating_sub(cap as u64);
                    prop_assert_eq!(pb.retire(t, k), overflow);
                    let gone = k.min(len) + overflow;
                    model.drain(..gone as usize);
                    retired += gone;
                    prop_assert_eq!((pb.len(t), pb.retired()), (model.len() as u64, retired));
                    let held: Vec<(u64, u64)> = pb
                        .entries()
                        .flat_map(|(_, e)| {
                            (e.first.0..e.first.0 + e.lines).map(move |l| (l, e.epoch))
                        })
                        .collect();
                    prop_assert_eq!(&held, &model.iter().copied().collect::<Vec<_>>());
                }
            }
        }
    }

    /// Per-thread epoch-prefix durability holds for arbitrary
    /// multi-threaded store/ofence interleavings and crash seeds.
    #[test]
    fn epoch_prefix_durability(
        script in collection::vec((0u32..3, 0u64..16, any::<bool>()), 1..40),
        crash_seed in any::<u64>(),
    ) {
        let mut pb = PersistBuffer::new(&HopsConfig::default());
        // Per-thread: every epoch writes a fresh line numbered by the
        // epoch index, so prefixes are checkable. Threads use disjoint
        // lines.
        let mut epoch_idx = [0u64; 3];
        for (tid, _key, fence) in script {
            let (t, e) = (pb.thread(Tid(tid)), epoch_idx[tid as usize]);
            pb.store(t, (u64::from(tid) * 64 + e) * 64, 8);
            if fence {
                pb.ofence(t);
                epoch_idx[tid as usize] += 1;
            }
        }
        let landed = pb.crash(crash_seed);
        for tid in 0..3u32 {
            // The durable epochs of each thread form a prefix.
            let epochs: Vec<u64> = landed
                .iter()
                .filter(|(t, _)| *t == Tid(tid))
                .map(|(_, e)| e.first.0 - u64::from(tid) * 64)
                .collect();
            let mut want = epochs.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(&want, &(0..want.len() as u64).collect::<Vec<_>>());
            prop_assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "thread {} out of order", tid);
        }
    }

    /// Cross-thread dependencies: random 3-thread scripts over 8 shared
    /// lines, with ofences and dfences, crash into dependency-closed
    /// per-thread epoch prefixes.
    #[test]
    fn crash_lands_dependency_closed_epoch_prefixes(
        script in collection::vec((0u32..3, 0u64..8, 0u8..6), 1..48),
        crash_seed in any::<u64>(),
    ) {
        let mut pb = PersistBuffer::new(&HopsConfig::default());
        for (tid, line, op) in script {
            let t = pb.thread(Tid(tid));
            pb.store(t, line * 64, 8);
            match op {
                0 => pb.dfence(t),
                1 | 2 => pb.ofence(t),
                _ => {}
            }
        }
        let buffered: Vec<_> = pb.entries().collect();
        assert_epoch_prefix_closed(&buffered, &pb.crash(crash_seed));
    }

    /// dfence retires everything the thread wrote, and every epoch of
    /// the other thread its entries depend on, regardless of what came
    /// before.
    #[test]
    fn dfence_drains_thread(
        writes in collection::vec((0u64..32, any::<bool>()), 1..32),
    ) {
        let mut pb = PersistBuffer::new(&HopsConfig::default());
        let t0 = pb.thread(Tid(0));
        for (i, (slot, other)) in writes.iter().enumerate() {
            let t = pb.thread(Tid(u32::from(*other)));
            pb.store(t, slot * 64, 8);
            if i % 3 == 0 {
                pb.ofence(t);
            }
        }
        let needed = pb
            .entries()
            .filter(|(t, _)| *t == Tid(0))
            .filter_map(|(_, e)| e.dep.map(|(_, epoch)| epoch))
            .max()
            .unwrap_or(0);
        pb.dfence(t0);
        prop_assert_eq!(pb.len(t0), 0);
        prop_assert!(pb.entries().all(|(_, e)| e.epoch > needed));
    }

    /// Multi-versioning: buffered version count for a line equals the
    /// number of distinct epochs that wrote it (until capacity flushes).
    #[test]
    fn multiversion_counts(epochs in 1usize..8) {
        let mut pb = PersistBuffer::new(&HopsConfig::default());
        let t = pb.thread(Tid(0));
        for _ in 0..epochs {
            pb.store(t, 0x40, 8);
            pb.ofence(t);
        }
        prop_assert_eq!(pb.versions(t, Line::containing(0x40)), epochs);
    }
}
