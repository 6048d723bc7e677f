//! Power-failure simulation: crash specs, planned mid-run crash
//! points, and the image materializer recovery code runs against.

use crate::machine::{Machine, PendingLine};
use pmem::hash::Fnv1a;
use pmem::{FxHashSet, Line, PmImage, LINE_SIZE};
use pmrand::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeMap;

const LINE: usize = LINE_SIZE as usize;

/// How a simulated power failure treats in-flight PM writes.
///
/// After an `sfence`, the fenced data is durable in every mode. What
/// varies is the fate of writes that were *in flight*: dirty lines in
/// caches, `clwb` snapshots not yet fenced, and write-combining buffer
/// entries. Real hardware gives no ordering among these, so recovery
/// code must tolerate *any* subset reaching PM — which is exactly what
/// [`CrashSpec::Adversarial`] tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSpec {
    /// Only explicitly persisted data survives: all caches, pending
    /// flushes, and WCBs are lost. The "everything in flight was lost"
    /// corner.
    DropVolatile,
    /// Every in-flight write happens to land before the failure. The
    /// "everything in flight made it" corner (equivalent to a whole-
    /// machine flush-on-failure, which recovery must also tolerate).
    PersistAll,
    /// Each in-flight line independently survives with probability 1/2,
    /// decided by the seed. Sweeping seeds explores the subset lattice
    /// between the two corners.
    Adversarial {
        /// RNG seed selecting which in-flight lines persist.
        seed: u64,
    },
}

/// Which PM events a [`CrashPlan`]'s ordinals count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashCounter {
    /// Cacheable and non-temporal PM store events (one per store call,
    /// matching the trace's store events).
    Stores,
    /// `clwb`/`clflushopt` events.
    Flushes,
    /// `sfence`/`sfence_durable` events.
    Fences,
    /// Every PM event: stores, flushes, and fences.
    PmEvents,
}

/// The event-kind tag the machine's hooks feed the armed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanEvent {
    Store,
    Flush,
    Fence,
}

impl CrashCounter {
    pub(crate) fn matches(self, ev: PlanEvent) -> bool {
        matches!(
            (self, ev),
            (CrashCounter::PmEvents, _)
                | (CrashCounter::Stores, PlanEvent::Store)
                | (CrashCounter::Flushes, PlanEvent::Flush)
                | (CrashCounter::Fences, PlanEvent::Fence)
        )
    }
}

/// Where to interrupt a run: after the K-th matching PM event, for
/// each K in the plan's point list, the machine captures a
/// [`CrashState`] and *keeps running* — one run yields every swept
/// crash point. Arm with [`Machine::set_crash_plan`], harvest with
/// [`Machine::take_crash_states`].
#[derive(Debug, Clone)]
pub struct CrashPlan {
    counter: CrashCounter,
    /// Sorted, deduplicated, 1-based event ordinals.
    points: Vec<u64>,
}

impl CrashPlan {
    /// A plan capturing after each of the given event ordinals
    /// (1-based: point 1 fires after the first matching event).
    ///
    /// # Panics
    ///
    /// Panics on a zero ordinal — "before any event" is just the
    /// durable image at arm time.
    pub fn at_points(counter: CrashCounter, mut points: Vec<u64>) -> CrashPlan {
        assert!(
            points.iter().all(|&p| p > 0),
            "crash points are 1-based event ordinals"
        );
        points.sort_unstable();
        points.dedup();
        CrashPlan { counter, points }
    }

    /// A plan that captures nothing but still counts events — arm it,
    /// run the workload, and read [`Machine::crash_event_count`] to
    /// learn the run's total so real points can be chosen.
    pub fn probe(counter: CrashCounter) -> CrashPlan {
        CrashPlan {
            counter,
            points: Vec::new(),
        }
    }
}

/// The armed per-machine plan state.
#[derive(Debug)]
pub(crate) struct PlanState {
    counter: CrashCounter,
    points: Vec<u64>,
    next: usize,
    count: u64,
    captured: Vec<CrashState>,
}

impl PlanState {
    pub(crate) fn new(plan: CrashPlan) -> PlanState {
        PlanState {
            counter: plan.counter,
            points: plan.points,
            next: 0,
            count: 0,
            captured: Vec::new(),
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Advance the event count; returns the just-reached ordinal when
    /// a capture is due at this event.
    pub(crate) fn advance(&mut self, ev: PlanEvent) -> Option<u64> {
        if !self.counter.matches(ev) {
            return None;
        }
        self.count += 1;
        if self.next < self.points.len() && self.count == self.points[self.next] {
            self.next += 1;
            Some(self.count)
        } else {
            None
        }
    }

    pub(crate) fn push_captured(&mut self, state: CrashState) {
        self.captured.push(state);
    }

    pub(crate) fn take_captured(&mut self) -> Vec<CrashState> {
        std::mem::take(&mut self.captured)
    }
}

/// A snapshot of everything a power failure decides over: the durable
/// PM image plus the in-flight writes (dirty cache lines, pending
/// `clwb` snapshots, live write-combining entries) at the capture
/// point. Captured mid-run by a [`CrashPlan`] without disturbing the
/// machine; [`CrashState::materialize`] then applies any number of
/// [`CrashSpec`]s to the same point.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// The 1-based ordinal of the event this state was captured after
    /// (0 for an end-of-run state with no armed plan).
    pub(crate) at: u64,
    /// The workload's last [`Machine::note_progress`] value.
    pub(crate) progress: u64,
    pub(crate) durable: PmImage,
    /// Per-thread dirty lines (sorted) with their current contents.
    pub(crate) dirty: Vec<Vec<(Line, [u8; LINE])>>,
    /// Per-thread pending `clwb` snapshots in issue order.
    pub(crate) pending: Vec<Vec<PendingLine>>,
    /// Per-thread live write-combining entries in arrival order.
    pub(crate) wcbs: Vec<Vec<PendingLine>>,
}

impl CrashState {
    /// The 1-based event ordinal this state was captured after (0 when
    /// taken at end of run without a plan).
    pub fn at(&self) -> u64 {
        self.at
    }

    /// The workload's [`Machine::note_progress`] value at capture —
    /// by convention the number of fully committed operations.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// The in-flight lines `spec` lets reach PM, each with the bytes it
    /// ends up holding, in ascending line order — the one place a
    /// spec's survivors are drawn.
    ///
    /// `clwb` snapshots and WCB entries carry their own (snapshot)
    /// data; dirty cache lines carry the newest (current) contents.
    /// They apply in that order, later writes to a line overwriting
    /// earlier ones. Under [`CrashSpec::PersistAll`] everything lands
    /// and the newest value wins. Under [`CrashSpec::Adversarial`],
    /// each in-flight line survives independently — and when both a
    /// pending snapshot and the same line's dirty entry survive, the
    /// *winner* is also seed-chosen: real hardware orders neither
    /// writeback ahead of the other, so recovery must tolerate either
    /// value. [`CrashSpec::DropVolatile`] lands nothing.
    ///
    /// A line whose bytes the durable image already holds is left out,
    /// so the result is canonical: two specs produce equal images
    /// exactly when their landed sets are equal. A line the durable
    /// image lacks stays even when it lands as zeros — a written line
    /// and an unwritten one differ in a [`PmImage`].
    pub fn landed(&self, spec: CrashSpec) -> Vec<(Line, [u8; LINE])> {
        let mut rng = match spec {
            CrashSpec::Adversarial { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        let keep = |rng: &mut Option<SmallRng>| match (&spec, rng) {
            (CrashSpec::DropVolatile, _) => false,
            (CrashSpec::PersistAll, _) => true,
            (CrashSpec::Adversarial { .. }, Some(r)) => r.gen_bool(0.5),
            (CrashSpec::Adversarial { .. }, None) => unreachable!(),
        };

        let mut landed: BTreeMap<Line, [u8; LINE]> = BTreeMap::new();
        // clwb snapshots and WCB entries carry their own data.
        let mut snap_applied: FxHashSet<Line> = FxHashSet::default();
        for per_thread in self.pending.iter().chain(self.wcbs.iter()) {
            for e in per_thread {
                if keep(&mut rng) {
                    landed.insert(e.line, e.data);
                    if rng.is_some() {
                        snap_applied.insert(e.line);
                    }
                }
            }
        }
        // Dirty cache lines persist with their current contents.
        for per_thread in &self.dirty {
            for (line, data) in per_thread {
                if keep(&mut rng) {
                    // Apply-order tie-break: if a snapshot of this line
                    // also survived, neither writeback is ordered ahead
                    // of the other — draw the winner instead of letting
                    // the dirty (newer) value always prevail.
                    if snap_applied.contains(line) {
                        if let Some(r) = rng.as_mut() {
                            if r.gen_bool(0.5) {
                                continue; // snapshot value wins
                            }
                        }
                    }
                    landed.insert(*line, *data);
                }
            }
        }
        landed
            .into_iter()
            .filter(|(line, data)| self.durable.line(*line) != Some(data))
            .collect()
    }

    /// The PM image a reboot at this point would observe under `spec`:
    /// the durable image with [`landed`](CrashState::landed) spliced in.
    pub fn materialize(&self, spec: CrashSpec) -> PmImage {
        self.image_with(&self.landed(spec))
    }

    /// The durable image with `landed` spliced in — how every crash
    /// image is built. Callers that judge many specs build one image
    /// per distinct landed set.
    pub fn image_with(&self, landed: &[(Line, [u8; LINE])]) -> PmImage {
        let mut img = self.durable.clone();
        for &(line, data) in landed {
            img.set_line(line, data);
        }
        img
    }

    /// FNV-1a digest of the full state (durable lines and every
    /// in-flight entry, in deterministic order) — lets tests assert two
    /// capture paths produced bit-identical states without comparing
    /// whole images.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.u64(self.at);
        h.u64(self.progress);
        for (line, data) in self.durable.lines() {
            h.u64(line.0);
            h.bytes(data);
        }
        for per_thread in &self.dirty {
            h.u64(per_thread.len() as u64);
            for (line, data) in per_thread {
                h.u64(line.0);
                h.bytes(data);
            }
        }
        for group in [&self.pending, &self.wcbs] {
            for per_thread in group {
                h.u64(per_thread.len() as u64);
                for e in per_thread {
                    h.u64(e.line.0);
                    h.u64(e.seq);
                    h.bytes(&e.data);
                }
            }
        }
        h.finish()
    }
}

impl Machine {
    /// Power off the machine, returning the PM image recovery will see.
    ///
    /// Consumes the machine: DRAM, caches, pending flushes, and WCBs
    /// are gone. Equivalent to [`Machine::into_crash_state`] followed
    /// by [`CrashState::materialize`] — planned mid-run captures and
    /// end-of-run crashes share one materializer.
    pub fn crash(self, spec: CrashSpec) -> PmImage {
        self.into_crash_state().materialize(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use miniprop::prelude::*;
    use pmem::Addr;
    use pmtrace::{Category, Tid};

    fn m() -> Machine {
        Machine::new(MachineConfig::tiny_for_tests())
    }

    fn pm_base(m: &Machine) -> Addr {
        m.config().map.pm.base
    }

    #[test]
    fn fenced_data_survives_every_mode() {
        for spec in [
            CrashSpec::DropVolatile,
            CrashSpec::PersistAll,
            CrashSpec::Adversarial { seed: 3 },
        ] {
            let mut mc = m();
            let t = Tid(0);
            let pa = pm_base(&mc);
            mc.store(t, pa, b"fenced!!", Category::UserData);
            mc.clwb(t, pa);
            mc.sfence(t);
            let img = mc.crash(spec);
            assert_eq!(img.read_vec(pa, 8), b"fenced!!", "{spec:?}");
        }
    }

    #[test]
    fn drop_volatile_loses_unfenced() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[9; 8], Category::UserData);
        let img = mc.crash(CrashSpec::DropVolatile);
        assert_eq!(img.read_vec(pa, 8), vec![0; 8]);
    }

    #[test]
    fn persist_all_keeps_unfenced() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[9; 8], Category::UserData);
        let img = mc.crash(CrashSpec::PersistAll);
        assert_eq!(img.read_vec(pa, 8), vec![9; 8]);
    }

    #[test]
    fn persist_all_keeps_pending_and_wcb() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[1; 8], Category::UserData);
        mc.clwb(t, pa); // pending
        mc.store_nt(t, pa + 64, &[2; 8], Category::RedoLog); // wcb
        let img = mc.crash(CrashSpec::PersistAll);
        assert_eq!(img.read_vec(pa, 8), vec![1; 8]);
        assert_eq!(img.read_vec(pa + 64, 8), vec![2; 8]);
    }

    #[test]
    fn adversarial_is_deterministic_per_seed() {
        let run = |seed| {
            let mut mc = m();
            let t = Tid(0);
            let pa = pm_base(&mc);
            for i in 0..4u64 {
                mc.store(t, pa + i * 64, &[i as u8 + 1; 8], Category::UserData);
            }
            mc.crash(CrashSpec::Adversarial { seed })
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn adversarial_seeds_explore_subsets() {
        // Across many seeds we should see at least one line both kept
        // and dropped.
        let mut seen_kept = false;
        let mut seen_lost = false;
        for seed in 0..32 {
            let mut mc = m();
            let t = Tid(0);
            let pa = pm_base(&mc);
            mc.store(t, pa, &[5; 8], Category::UserData);
            let img = mc.crash(CrashSpec::Adversarial { seed });
            if img.read_vec(pa, 8) == vec![5; 8] {
                seen_kept = true;
            } else {
                seen_lost = true;
            }
        }
        assert!(seen_kept && seen_lost);
    }

    #[test]
    fn pending_snapshot_value_survives_not_newer() {
        // store 1, clwb, store 2 (unflushed): the in-flight writes are
        // one pending snapshot (value 1) and one dirty line (value 2)
        // on the same line. Mirror the materializer's draw sequence to
        // predict exactly which value each seed must produce, and
        // assert both winners occur when snapshot and dirty both
        // survive — dirty-always-wins was the apply-order bias.
        let mut snapshot_won = false;
        let mut dirty_won = false;
        for seed in 0..64 {
            let mut mc = m();
            let t = Tid(0);
            let pa = pm_base(&mc);
            mc.store(t, pa, &[1; 8], Category::UserData);
            mc.clwb(t, pa);
            mc.store(t, pa, &[2; 8], Category::UserData);
            let img = mc.crash(CrashSpec::Adversarial { seed });
            let v = img.read_vec(pa, 1)[0];

            let mut r = SmallRng::seed_from_u64(seed);
            let keep_snapshot = r.gen_bool(0.5);
            let keep_dirty = r.gen_bool(0.5);
            let expected = match (keep_snapshot, keep_dirty) {
                (false, false) => 0,
                (true, false) => 1,
                (false, true) => 2,
                (true, true) => {
                    if r.gen_bool(0.5) {
                        snapshot_won = true;
                        1
                    } else {
                        dirty_won = true;
                        2
                    }
                }
            };
            assert_eq!(v, expected, "seed {seed}");
        }
        assert!(
            snapshot_won && dirty_won,
            "both apply orders must occur across seeds \
             (snapshot_won={snapshot_won}, dirty_won={dirty_won})"
        );
    }

    #[test]
    fn plan_captures_at_exact_points_and_run_continues() {
        let t = Tid(0);
        let mut mc = m();
        let pa = pm_base(&mc);
        mc.set_crash_plan(CrashPlan::at_points(CrashCounter::Stores, vec![1, 3]));
        for i in 0..4u64 {
            mc.store(t, pa + i * 64, &[i as u8 + 1; 8], Category::UserData);
            mc.note_progress(i + 1);
        }
        assert_eq!(mc.crash_event_count(), 4);
        let states = mc.take_crash_states();
        assert_eq!(states.len(), 2);
        assert_eq!((states[0].at(), states[0].progress()), (1, 0));
        assert_eq!((states[1].at(), states[1].progress()), (3, 2));
        // After store 1 only line 0 is in flight; after store 3, three.
        assert_eq!(states[0].landed(CrashSpec::PersistAll).len(), 1);
        assert_eq!(states[1].landed(CrashSpec::PersistAll).len(), 3);
        let img = states[1].materialize(CrashSpec::PersistAll);
        assert_eq!(img.read_vec(pa + 2 * 64, 8), vec![3; 8]);
        assert_eq!(img.read_vec(pa + 3 * 64, 8), vec![0; 8], "store 4 later");
        // The machine kept running: a normal end-of-run crash still works.
        assert_eq!(
            mc.crash(CrashSpec::PersistAll).read_vec(pa + 3 * 64, 8),
            vec![4; 8]
        );
    }

    #[test]
    fn plan_counters_select_event_kinds() {
        let t = Tid(0);
        let run = |counter| {
            let mut mc = m();
            let pa = pm_base(&mc);
            mc.set_crash_plan(CrashPlan::probe(counter));
            mc.store(t, pa, &[1; 8], Category::UserData);
            mc.clwb(t, pa);
            mc.sfence(t);
            mc.store_nt(t, pa + 64, &[2; 8], Category::RedoLog);
            mc.sfence_durable(t);
            mc.crash_event_count()
        };
        assert_eq!(run(CrashCounter::Stores), 2);
        assert_eq!(run(CrashCounter::Flushes), 1);
        assert_eq!(run(CrashCounter::Fences), 2);
        assert_eq!(run(CrashCounter::PmEvents), 5);
    }

    #[test]
    fn captured_state_matches_end_of_run_crash() {
        // A capture at the run's last event must materialize exactly
        // what crashing the machine there would have produced.
        for spec in [
            CrashSpec::DropVolatile,
            CrashSpec::PersistAll,
            CrashSpec::Adversarial { seed: 11 },
        ] {
            let t = Tid(0);
            let build = |plan: Option<CrashPlan>| {
                let mut mc = m();
                let pa = pm_base(&mc);
                if let Some(p) = plan {
                    mc.set_crash_plan(p);
                }
                mc.store(t, pa, &[1; 8], Category::UserData);
                mc.clwb(t, pa);
                mc.store(t, pa, &[2; 8], Category::UserData);
                mc.store_nt(t, pa + 64, &[3; 8], Category::RedoLog);
                mc
            };
            let mut planned = build(Some(CrashPlan::at_points(CrashCounter::PmEvents, vec![4])));
            let state = planned.take_crash_states().pop().unwrap();
            let direct = build(None).crash(spec);
            assert_eq!(state.materialize(spec), direct, "{spec:?}");
        }
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let t = Tid(0);
        let run = |extra: bool| {
            let mut mc = m();
            let pa = pm_base(&mc);
            mc.set_crash_plan(CrashPlan::at_points(CrashCounter::Stores, vec![2]));
            mc.store(t, pa, &[1; 8], Category::UserData);
            mc.store(t, pa + 64, &[2; 8], Category::UserData);
            if extra {
                mc.store(t, pa + 128, &[3; 8], Category::UserData);
            }
            mc.take_crash_states().pop().unwrap().digest()
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(false), run(true), "capture precedes the extra store");
        let mut mc = m();
        let pa = pm_base(&mc);
        mc.set_crash_plan(CrashPlan::at_points(CrashCounter::Stores, vec![1]));
        mc.store(t, pa, &[9; 8], Category::UserData);
        let other = mc.take_crash_states().pop().unwrap().digest();
        assert_ne!(run(false), other);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_crash_point_panics() {
        CrashPlan::at_points(CrashCounter::PmEvents, vec![0]);
    }

    /// The materializer `landed` replaced: splice every surviving
    /// in-flight line straight into a clone of the durable image, in
    /// apply order. `landed` must draw exactly what this draws.
    fn reference(state: &CrashState, spec: CrashSpec) -> PmImage {
        let mut img = state.durable.clone();
        let mut rng = match spec {
            CrashSpec::Adversarial { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        let keep = |rng: &mut Option<SmallRng>| match (&spec, rng) {
            (CrashSpec::DropVolatile, _) => false,
            (CrashSpec::PersistAll, _) => true,
            (CrashSpec::Adversarial { .. }, Some(r)) => r.gen_bool(0.5),
            (CrashSpec::Adversarial { .. }, None) => unreachable!(),
        };
        let mut snap_applied: FxHashSet<Line> = FxHashSet::default();
        for per_thread in state.pending.iter().chain(state.wcbs.iter()) {
            for e in per_thread {
                if keep(&mut rng) {
                    img.set_line(e.line, e.data);
                    if rng.is_some() {
                        snap_applied.insert(e.line);
                    }
                }
            }
        }
        for per_thread in &state.dirty {
            for (line, data) in per_thread {
                if keep(&mut rng) {
                    if snap_applied.contains(line) {
                        if let Some(r) = rng.as_mut() {
                            if r.gen_bool(0.5) {
                                continue;
                            }
                        }
                    }
                    img.set_line(*line, *data);
                }
            }
        }
        img
    }

    /// Lines present in `a` but absent or different in `b`.
    fn diff_lines(a: &PmImage, b: &PmImage) -> Vec<Line> {
        a.lines()
            .filter(|(l, d)| b.line(*l) != Some(*d))
            .map(|(l, _)| l)
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Store { t: u32, slot: u64, val: u8 },
        StoreNt { t: u32, slot: u64, val: u8 },
        Clwb { t: u32, slot: u64 },
        Sfence { t: u32 },
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Eight shared lines, four threads, three values (zero
        // among them, so rewrites to the durable value are common).
        collection::vec(
            prop_oneof![
                (0u32..4, 0u64..8, 0u8..3).prop_map(|(t, slot, val)| Op::Store { t, slot, val }),
                (0u32..4, 0u64..8, 0u8..3).prop_map(|(t, slot, val)| Op::StoreNt { t, slot, val }),
                (0u32..4, 0u64..8).prop_map(|(t, slot)| Op::Clwb { t, slot }),
                (0u32..4).prop_map(|t| Op::Sfence { t }),
            ],
            0..60,
        )
    }

    /// Run the random history, then leave every in-flight shape
    /// `landed` has to get right on lines of its own: a pending
    /// `clwb` snapshot beside a newer dirty copy (slot 20, the
    /// tie-break), two threads' WCB entries for one line (slot
    /// 21), a zero-filled dirty line the durable image lacks (slot
    /// 22), and a dirty line rewritten to its durable value (slot
    /// 23).
    fn capture(history: &[Op]) -> CrashState {
        let mut mc = m();
        let base = pm_base(&mc);
        let at = |slot: u64| base + slot * 64;
        let (t0, t1, t2, t3) = (Tid(0), Tid(1), Tid(2), Tid(3));
        let cat = Category::UserData;
        for op in history {
            match *op {
                Op::Store { t, slot, val } => mc.store(Tid(t), at(slot), &[val; 8], cat),
                Op::StoreNt { t, slot, val } => mc.store_nt(Tid(t), at(slot), &[val; 8], cat),
                Op::Clwb { t, slot } => mc.clwb(Tid(t), at(slot)),
                Op::Sfence { t } => mc.sfence(Tid(t)),
            }
        }
        mc.store(t3, at(23), &[5; 8], cat);
        mc.clwb(t3, at(23));
        mc.sfence(t3);
        mc.store(t3, at(23), &[5; 8], cat);
        mc.store(t0, at(20), &[1; 8], cat);
        mc.clwb(t0, at(20));
        mc.store(t0, at(20), &[2; 8], cat);
        mc.store_nt(t1, at(21), &[3; 8], cat);
        mc.store_nt(t2, at(21), &[4; 8], cat);
        mc.store(t2, at(22), &[0; 8], cat);
        mc.into_crash_state()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn landed_matches_the_splicing_reference(history in ops()) {
            let state = capture(&history);
            let line = |slot: u64| Line::containing(state.durable.range().base + slot * 64);
            let holds = |entries: &[PendingLine], slot| entries.iter().any(|e| e.line == line(slot));
            prop_assert!(holds(&state.pending[0], 20) && state.dirty[0].iter().any(|e| e.0 == line(20)));
            prop_assert!(holds(&state.wcbs[1], 21) && holds(&state.wcbs[2], 21));
            prop_assert!(state.dirty[3].iter().any(|e| e.0 == line(23)));
            let persist_all = state.landed(CrashSpec::PersistAll);
            prop_assert!(persist_all.contains(&(line(22), [0; 64])));
            prop_assert!(persist_all.iter().all(|(l, _)| *l != line(23)));
            prop_assert_eq!(state.landed(CrashSpec::DropVolatile), Vec::new());

            let base = reference(&state, CrashSpec::DropVolatile);
            let seeds = (1..=64).map(|seed| CrashSpec::Adversarial { seed });
            for spec in [CrashSpec::DropVolatile, CrashSpec::PersistAll].into_iter().chain(seeds) {
                let want = reference(&state, spec);
                let landed = state.landed(spec);
                prop_assert_eq!(&state.materialize(spec), &want, "{:?}", spec);
                prop_assert!(landed.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", spec);
                prop_assert!(
                    landed.iter().all(|(l, d)| state.durable.line(*l) != Some(d)),
                    "{:?} lands a line the durable image already holds", spec
                );
                let lines: Vec<Line> = landed.iter().map(|(l, _)| *l).collect();
                prop_assert_eq!(lines, diff_lines(&want, &base), "{:?}", spec);
            }
        }
    }
}
