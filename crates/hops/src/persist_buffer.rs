//! The HOPS persist buffers (Section 6.3): the one state machine that
//! decides when a buffered PM line becomes durable.
//!
//! Every hardware thread owns a FIFO of buffered stores and an epoch
//! stamp (the Thread TS register). `ofence` bumps the stamp and flushes
//! nothing; entries retire to PM strictly oldest-first, so a thread's
//! durable state is always a prefix of its epochs, and a line can be
//! buffered in several versions at once (Consequence 6).
//!
//! A store to a line whose last writer is *another* thread that still
//! buffers it records a dependency pointer to that thread's current
//! epoch — the conservative
//! choice the paper makes "to simplify the hardware", and the
//! cross-dependencies Consequence 5 calls "rare but required for
//! correctness". The entry may not retire before its source has retired
//! through that epoch, so retiring it first retires the source. Two
//! threads that each wrote a line the other still buffers point at each
//! other; the hardware "splits the epoch", and here a dependency on a
//! thread that is already retiring extends that retirement instead of
//! waiting on it, so the cycle lands as one.
//!
//! Entries are run-length — consecutive lines of one store share an
//! entry — and an owner map records each line's last buffered writer
//! with the writer's line sequence number, so "does the writer still
//! buffer this line?" is one comparison against the writer's retired
//! count. The map is swept of retired lines as it grows, so it holds
//! about what the buffers hold — a few hundred lines, whatever the
//! trace's footprint — and a replay allocates next to nothing for it.
//! [`PersistBuffer::retire`] has one shortcut, measured to pay for
//! itself: a queue holding no dependency pointer retires its oldest
//! lines without checking each entry for one.
//! The buffer holds no bytes (`memsim` owns data): what it decides is
//! *which* entries have landed, read by the
//! Figure 10 replay as occupancy and by [`PersistBuffer::crash`] as a
//! crash state.

use crate::config::HopsConfig;
use pmem::{lines_spanning, Addr, FxHashMap, Line};
use pmrand::{Rng, SeedableRng, SmallRng};
use pmtrace::Tid;
use std::collections::VecDeque;

/// One buffered store: `lines` consecutive lines from `first`, written
/// in one epoch of its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// First line of the run.
    pub first: Line,
    /// Lines in the run (at least one).
    pub lines: u64,
    /// The writer's epoch stamp at the store.
    pub epoch: u64,
    /// `(source thread, source epoch)`: this entry may not become
    /// durable before the source has retired every entry of that epoch
    /// and older.
    pub dep: Option<(Tid, u64)>,
}

/// One thread's persist buffer.
#[derive(Debug, Clone, Default)]
struct Queue {
    /// The thread's [`Tid`].
    tid: u32,
    /// Epoch stamp of the next store.
    epoch: u64,
    entries: VecDeque<Entry>,
    /// Lines ever buffered: the next line's sequence number.
    pushed: u64,
    /// Lines ever retired. Line `seq` is still buffered iff
    /// `seq >= retired`.
    retired: u64,
    /// `pushed` when the current epoch began; coalescing looks no
    /// further back.
    epoch_start: u64,
    /// Buffered entries that carry a dependency pointer.
    deps: usize,
    /// While this queue is retiring, the epoch it must retire through;
    /// a cyclic dependency raises it instead of recursing.
    through: Option<u64>,
}

impl Queue {
    /// Retire up to `n` lines of the oldest entry; returns how many.
    fn pop_front(&mut self, n: u64) -> u64 {
        let e = self.entries.front_mut().expect("front exists");
        let n = n.min(e.lines);
        e.first.0 += n;
        e.lines -= n;
        self.retired += n;
        if e.lines == 0 {
            self.deps -= usize::from(e.dep.is_some());
            self.entries.pop_front();
        }
        n
    }
}

/// The per-thread persist buffers of one machine, under Buffered Epoch
/// Persistency. A thread gets its buffer from [`PersistBuffer::thread`]
/// on first sight, whatever its id; every per-thread call takes the
/// handle that returns.
#[derive(Debug)]
pub struct PersistBuffer {
    capacity: u64,
    coalesce: bool,
    /// One queue per thread, a flat vector rather than a map: traces
    /// have a handful of threads but millions of events.
    queues: Vec<Queue>,
    /// Each line's last buffered writer: queue index + 1 and the
    /// sequence number of its newest version there.
    owners: FxHashMap<Line, (u32, u64)>,
    /// Size of `owners` at which [`PersistBuffer::store`] drops the
    /// lines their writer has retired: twice what survived the last
    /// sweep, and at least 512.
    sweep_at: usize,
}

impl PersistBuffer {
    /// Empty buffers sized by `cfg`.
    pub fn new(cfg: &HopsConfig) -> PersistBuffer {
        PersistBuffer {
            capacity: cfg.pb_entries as u64,
            coalesce: cfg.coalesce,
            queues: Vec::new(),
            owners: FxHashMap::default(),
            sweep_at: 0,
        }
    }

    /// The handle of `tid`'s buffer, created empty on first sight.
    /// Handles count up from 0 in order of first sight.
    pub fn thread(&mut self, tid: Tid) -> usize {
        self.position(tid).unwrap_or_else(|| {
            let (tid, epoch) = (tid.0, 1);
            self.queues.push(Queue {
                tid,
                epoch,
                ..Queue::default()
            });
            self.queues.len() - 1
        })
    }

    fn position(&self, tid: Tid) -> Option<usize> {
        self.queues.iter().position(|q| q.tid == tid.0)
    }

    /// Lines thread `t` buffers — its persist-buffer occupancy.
    pub fn len(&self, t: usize) -> u64 {
        self.queues[t].pushed - self.queues[t].retired
    }

    /// The epoch stamp thread `t`'s next store gets (1 before its
    /// first fence).
    pub fn epoch(&self, t: usize) -> u64 {
        self.queues[t].epoch
    }

    /// How many buffered versions of `line` thread `t` holds.
    pub fn versions(&self, t: usize, line: Line) -> usize {
        let holds = |e: &&Entry| (e.first.0..e.first.0 + e.lines).contains(&line.0);
        self.queues[t].entries.iter().filter(holds).count()
    }

    /// Lines written back to PM so far, over all threads.
    pub fn retired(&self) -> u64 {
        self.queues.iter().map(|q| q.retired).sum()
    }

    /// Every buffered entry, thread by thread, each thread's oldest
    /// first.
    pub fn entries(&self) -> impl Iterator<Item = (Tid, Entry)> + '_ {
        self.queues
            .iter()
            .flat_map(|q| q.entries.iter().map(move |e| (Tid(q.tid), *e)))
    }

    /// A PM store of `len` bytes at `addr` by thread `i`: one entry per
    /// run of lines (Table 2, "L1 write hit/miss"). With coalescing on,
    /// a line the thread already buffers in its current epoch is
    /// absorbed.
    #[inline]
    pub fn store(&mut self, i: usize, addr: Addr, len: usize) {
        if self.owners.len() >= self.sweep_at {
            let queues = &self.queues;
            self.owners
                .retain(|_, &mut (o, seq)| seq >= queues[o as usize - 1].retired);
            self.sweep_at = 2 * self.owners.len().max(256);
        }
        for (line, _, _) in lines_spanning(addr, len) {
            let slot = self.owners.entry(line).or_default();
            let (owner, seq) = *slot;
            let q = &self.queues[i];
            let mine = owner as usize == i + 1;
            if mine && self.coalesce && seq >= q.epoch_start.max(q.retired) {
                continue;
            }
            let dep = match (owner as usize).checked_sub(1).map(|s| &self.queues[s]) {
                Some(src) if !mine && seq >= src.retired => Some((Tid(src.tid), src.epoch)),
                _ => None,
            };
            let q = &mut self.queues[i];
            *slot = (i as u32 + 1, q.pushed);
            q.pushed += 1;
            match q.entries.back_mut() {
                Some(b) if b.first.0 + b.lines == line.0 && b.epoch == q.epoch && b.dep == dep => {
                    b.lines += 1;
                }
                _ => {
                    q.deps += usize::from(dep.is_some());
                    q.entries.push_back(Entry {
                        first: line,
                        lines: 1,
                        epoch: q.epoch,
                        dep,
                    });
                }
            }
        }
    }

    /// `ofence`: "increment Thread TS to end current epoch" — purely
    /// local, nothing flushes (Table 2).
    pub fn ofence(&mut self, t: usize) {
        let q = &mut self.queues[t];
        q.epoch += 1;
        q.epoch_start = q.pushed;
    }

    /// `dfence`: end the epoch and retire everything thread `t`
    /// buffers.
    pub fn dfence(&mut self, t: usize) {
        self.ofence(t);
        self.retire(t, u64::MAX);
    }

    /// Retire thread `i`'s `k` oldest lines (all of them if it buffers
    /// fewer), then whatever it still buffers beyond capacity —
    /// `pb_entries` lines, a hardware PB entry holding one line — and
    /// return how many lines that overflow was.
    #[inline]
    pub fn retire(&mut self, i: usize, k: u64) -> u64 {
        let q = &mut self.queues[i];
        if q.deps == 0 {
            // Nothing to wait on: the oldest lines simply go, as
            // `retire_queue` would retire them. Measured to pay: this
            // path takes 98.5-99.2 % of the calls on the benchmark's
            // workloads; without it Figure 10's replay took 1.4x as
            // long, and `wall_s` rose 10-19 % on trace-consumers and
            // suite-default, worse in 7 of 10 pairs (DESIGN.md
            // § Performance).
            let len = q.pushed - q.retired;
            let excess = len.saturating_sub(k).saturating_sub(self.capacity);
            let mut n = k.saturating_add(excess);
            if n >= len {
                q.entries.clear();
                q.retired = q.pushed;
            } else {
                while n > 0 {
                    n -= q.pop_front(n);
                }
            }
            return excess;
        }
        // Epochs start at 1, so retiring "through epoch 0" asks for the
        // lines alone.
        self.retire_queue(i, k, 0);
        let q = &self.queues[i];
        let excess = (q.pushed - q.retired).saturating_sub(self.capacity);
        self.retire_queue(i, excess, 0);
        excess
    }

    /// Retire at least `lines` of queue `i`'s oldest lines, then every
    /// entry of epoch `through` or older. Before an entry retires, its
    /// source retires through the epoch its dependency names.
    fn retire_queue(&mut self, i: usize, mut lines: u64, through: u64) {
        if let Some(t) = self.queues[i].through.as_mut() {
            // Already retiring further up: a dependency cycle. Extend
            // that retirement, which then covers this one's need.
            *t = (*t).max(through);
            return;
        }
        self.queues[i].through = Some(through);
        while let Some(&front) = self.queues[i].entries.front() {
            if lines == 0 && self.queues[i].through.is_some_and(|t| front.epoch > t) {
                break;
            }
            if let Some((src, epoch)) = front.dep {
                let s = self.position(src).expect("dependency source has a queue");
                let pending = self.queues[s].entries.front().map(|e| e.epoch);
                if pending.is_some_and(|e| e <= epoch) {
                    let before = self.queues[s].retired;
                    self.retire_queue(s, 0, epoch);
                    pmobs::count!("hops.dep_retires", self.queues[s].retired - before);
                }
            }
            let n = self.queues[i].pop_front(if lines == 0 { u64::MAX } else { lines });
            lines = lines.saturating_sub(n);
        }
        self.queues[i].through = None;
    }

    /// Power failure. Each thread's buffer drains a seed-chosen number
    /// of its oldest whole epochs, dependency pointers honoured, and
    /// everything else is lost. Returns the entries that landed, thread
    /// by thread, each thread's oldest first: per-thread epoch prefixes,
    /// closed under dependency pointers.
    pub fn crash(mut self, seed: u64) -> Vec<(Tid, Entry)> {
        let before: Vec<VecDeque<Entry>> = self.queues.iter().map(|q| q.entries.clone()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = self.queues.len();
        for _ in 0..n * 4 {
            let i = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                if let Some(epoch) = self.queues[i].entries.front().map(|e| e.epoch) {
                    self.retire_queue(i, 0, epoch);
                }
            }
        }
        before
            .into_iter()
            .zip(&self.queues)
            .flat_map(|(b, q)| {
                let landed = b.len() - q.entries.len();
                b.into_iter().take(landed).map(move |e| (Tid(q.tid), e))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handles of `Tid(0)` and `Tid(1)` in [`with`]'s buffers.
    const T0: usize = 0;
    const T1: usize = 1;

    /// A buffer that has seen `Tid(0)`..`Tid(3)`, so handle `t` is
    /// `Tid(t)`'s.
    fn with(cfg: &HopsConfig) -> PersistBuffer {
        let mut s = PersistBuffer::new(cfg);
        for t in 0..4 {
            assert_eq!(s.thread(Tid(t)), t as usize);
        }
        s
    }

    fn pb() -> PersistBuffer {
        with(&HopsConfig::default())
    }

    /// The lines of thread `t` among `landed`, in order.
    fn landed_lines(landed: &[(Tid, Entry)], t: usize) -> Vec<u64> {
        landed
            .iter()
            .filter(|(tid, _)| tid.0 as usize == t)
            .flat_map(|(_, e)| e.first.0..e.first.0 + e.lines)
            .collect()
    }

    #[test]
    fn instruments_record_persist_buffer_activity() {
        // Counters are global and monotonic, and sibling tests may run
        // while recording is briefly enabled, so compare with >=.
        let dep_retires = || {
            let snap = pmobs::global().snapshot();
            snap.counters.get("hops.dep_retires").copied().unwrap_or(0)
        };
        let before = dep_retires();
        pmobs::set_enabled(true);
        let mut s = pb();
        s.store(T0, 0x80, 8);
        s.store(T0, 0xc0, 8);
        s.store(T1, 0x80, 8);
        s.dfence(T1);
        pmobs::set_enabled(false);
        assert!(
            dep_retires() >= before + 2,
            "t0's epoch retired for t1's dependency"
        );
    }

    #[test]
    fn paper_worked_example() {
        // mov A, 10; ofence; mov A, 20; dfence — Section 6.3.
        let mut s = pb();
        let a = Line::containing(0x100);
        s.store(T0, 0x100, 8);
        assert_eq!(s.epoch(T0), 1);
        s.ofence(T0);
        assert_eq!(s.epoch(T0), 2, "ofence is a local TS bump");
        s.store(T0, 0x100, 8);
        assert_eq!(s.versions(T0, a), 2);
        let epochs: Vec<u64> = s.entries().map(|(_, e)| e.epoch).collect();
        assert_eq!(epochs, [1, 2], "both versions buffered, oldest first");
        assert_eq!(s.retired(), 0, "nothing durable yet");
        s.dfence(T0);
        assert_eq!(s.epoch(T0), 3);
        assert_eq!(s.len(T0), 0);
        // Both versions were written to media.
        assert_eq!(s.retired(), 2);
    }

    #[test]
    fn ofence_does_not_flush() {
        let mut s = pb();
        s.store(T0, 0, 8);
        s.ofence(T0);
        assert_eq!(s.len(T0), 1);
        assert_eq!(s.retired(), 0);
    }

    #[test]
    fn epoch_prefix_durability_under_crash() {
        // Whatever the seed, the durable state is an epoch prefix:
        // seeing epoch k's line implies epochs < k are durable.
        for seed in 0..50 {
            let mut s = pb();
            for i in 0..6u64 {
                s.store(T0, i * 64, 8);
                s.ofence(T0);
            }
            let landed = landed_lines(&s.crash(seed), T0);
            let k = landed.len() as u64;
            assert_eq!(landed, (0..k).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn multi_version_crash_never_skips_old_version() {
        // A=10 (e1), A=20 (e2): the landed versions are none, e1, or
        // e1 then e2 — never e2 alone.
        for seed in 0..30 {
            let mut s = pb();
            s.store(T0, 0x40, 8);
            s.ofence(T0);
            s.store(T0, 0x40, 8);
            let epochs: Vec<u64> = s.crash(seed).iter().map(|(_, e)| e.epoch).collect();
            assert!(
                epochs.is_empty() || epochs == [1] || epochs == [1, 2],
                "seed {seed}: {epochs:?}"
            );
        }
    }

    #[test]
    fn cross_thread_dependency_ordering() {
        // t0 buffers line L; t1 then writes L. t1's version carries a
        // dependency on t0's epoch and must never be durable while
        // t0's earlier version is not.
        let mut fired = 0;
        for seed in 0..50 {
            let mut s = pb();
            s.store(T0, 0x80, 8);
            s.store(T1, 0x80, 8);
            let deps: Vec<_> = s.entries().map(|(_, e)| e.dep).collect();
            assert_eq!(deps, [None, Some((Tid(0), 1))]);
            let landed = s.crash(seed);
            let t1_landed = !landed_lines(&landed, T1).is_empty();
            let t0_landed = !landed_lines(&landed, T0).is_empty();
            assert!(!t1_landed || t0_landed, "seed {seed}: t1 landed before t0");
            fired += usize::from(t1_landed);
        }
        assert!(fired > 0, "some seed lands the dependent version");
    }

    #[test]
    fn dfence_with_cross_dep_flushes_source_thread() {
        let mut s = pb();
        s.store(T0, 0x80, 8);
        s.store(T1, 0x80, 8);
        s.dfence(T1);
        // Draining t1 required draining t0 first.
        assert_eq!(s.len(T0), 0, "source thread drained by dependency");
        assert_eq!(s.retired(), 2, "both versions reached PM");
    }

    #[test]
    fn dependency_cycle_splits_instead_of_recursing() {
        // Each thread writes a line the other still buffers: t0's B
        // waits on t1's epoch 1, t1's A waits on t0's epoch 1.
        let cycle = || {
            let mut s = pb();
            s.store(T0, 0x00, 8);
            s.store(T1, 0x40, 8);
            s.store(T0, 0x40, 8);
            s.store(T1, 0x00, 8);
            s
        };
        let mut s = cycle();
        s.dfence(T0);
        assert_eq!((s.len(T0), s.len(T1), s.retired()), (0, 0, 4));
        for seed in 0..64 {
            let landed = cycle().crash(seed);
            assert!(
                landed.is_empty() || landed.len() == 4,
                "seed {seed}: {landed:?}"
            );
        }
    }

    #[test]
    fn owner_sweeps_keep_lines_still_buffered() {
        // t0 keeps A buffered while t1 streams through thousands of
        // lines, retiring as it goes: the sweeps that drop t1's retired
        // lines must keep A's owner, so t1's store to A still depends
        // on t0.
        let mut s = pb();
        s.store(T0, 0x40, 8);
        for i in 0..4096u64 {
            s.store(T1, 0x10_0000 + i * 64, 8);
            s.retire(T1, 1);
        }
        s.store(T1, 0x40, 8);
        let deps: Vec<_> = s.entries().map(|(t, e)| (t, e.dep)).collect();
        assert_eq!(deps, [(Tid(0), None), (Tid(1), Some((Tid(0), 1)))]);
    }

    #[test]
    fn pb_capacity_triggers_background_flush() {
        // 40 singleton stores in one epoch overflow a 32-entry PB by 8.
        let mut s = pb();
        for i in 0..40u64 {
            s.store(T0, i * 64, 8);
        }
        assert_eq!(s.retire(T0, 0), 8);
        assert_eq!((s.len(T0), s.retired()), (32, 8));
        assert_eq!(s.retire(T0, 0), 0, "nothing left past capacity");
    }

    #[test]
    fn shutdown_drains_everything() {
        let mut s = pb();
        for t in 0..4 {
            s.store(t, 0x1000 + t as u64 * 64, 8);
        }
        for t in 0..4 {
            s.dfence(t);
        }
        assert_eq!(s.retired(), 4);
        assert!(s.crash(7).is_empty(), "nothing left in flight");
    }

    #[test]
    fn independent_threads_flush_independently() {
        let mut s = pb();
        s.store(T0, 0, 8);
        s.store(T1, 64, 8);
        s.dfence(T0);
        assert_eq!(s.len(T0), 0);
        assert_eq!(s.len(T1), 1, "no conflict → t1 untouched");
    }

    #[test]
    fn coalescing_merges_same_epoch_writes() {
        let cfg = HopsConfig {
            coalesce: true,
            ..HopsConfig::default()
        };
        let mut s = with(&cfg);
        // Three stores to one line in one epoch: one PB entry.
        for _ in 0..3 {
            s.store(T0, 0x40, 8);
        }
        assert_eq!(s.len(T0), 1);
        // Across epochs, versions still multi-buffer.
        s.ofence(T0);
        s.store(T0, 0x40, 8);
        assert_eq!(s.versions(T0, Line::containing(0x40)), 2);
        s.dfence(T0);
        assert_eq!(s.retired(), 2, "coalescing saved two media writes");

        // The coalescing ablation: 64 epochs, each storing 4 times to a
        // hot counter line and to a line of its own, retire 512 lines
        // plainly and 128 coalesced.
        for (coalesce, writes) in [(false, 512), (true, 128)] {
            let mut s = with(&HopsConfig {
                coalesce,
                ..HopsConfig::default()
            });
            for e in 0..64u64 {
                for _ in 0..4 {
                    s.store(T0, 0x40, 8);
                    s.store(T0, 0x80 + e * 64, 8);
                }
                s.ofence(T0);
            }
            s.dfence(T0);
            assert_eq!(s.retired(), writes, "coalesce: {coalesce}");
        }
    }

    #[test]
    fn multi_line_store_spans_entries() {
        let mut s = pb();
        s.store(T0, 60, 10); // crosses a line boundary
        assert_eq!(s.len(T0), 2);
        let entries: Vec<Entry> = s.entries().map(|(_, e)| e).collect();
        assert_eq!(entries.len(), 1, "one run-length entry per store");
        assert_eq!((entries[0].first, entries[0].lines), (Line(0), 2));
        s.retire(T0, 1);
        assert_eq!((s.len(T0), s.retired()), (1, 1), "retire splits a run");
        s.dfence(T0);
        assert_eq!(s.retired(), 2);
    }
}
