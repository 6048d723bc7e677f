//! Durable multi-producer single-consumer queue with detectable
//! recovery.
//!
//! WHISPER's server applications move work between threads through
//! shared persistent state — the paper's Section 5.2 measures how such
//! sharing turns into *cross-thread epoch dependencies*: "a thread's
//! epoch depends on another thread's epoch if it reads or writes a
//! cache line modified by the other epoch". This queue is the
//! repository's concentrated source of that pattern: every producer
//! links onto the same chain tail and bumps the same allocation
//! cursor, so enqueues from different scheduler workers form exactly
//! the fence-release → store-acquire chains Figure 5 counts.
//!
//! The design is a *detectable* durable queue: each operation runs the
//! announce protocol of [`crate::header`] (shared with
//! [`crate::CHash`]), so recovery can determine for every in-flight
//! operation whether it completed, and either roll it forward or
//! discard it — the caller learns which.
//!
//! Crash-consistency discipline (all line-granular, no transaction
//! engine):
//!
//! 1. *Prepare epoch* — write the node (a single 64-byte line: next,
//!    sequence tag, payload), bump the durable allocation cursor, and
//!    publish the announce (`Pending`, node address, sequence); flush
//!    and `dfence`.
//! 2. *Link epoch* — a single 8-byte store hooks the node onto the
//!    chain (predecessor's `next`, or the header's `head` when empty);
//!    flush and `dfence`.
//! 3. *Retire epoch* — announce flips to `Done`; flush and `dfence`.
//!
//! A crash between 1 and 2 leaves the node unreachable (leaked, never
//! half-visible); recovery sees a valid `Pending` announce and rolls
//! the operation forward. A crash between 2 and 3 leaves the node
//! linked; recovery detects reachability and reports the operation
//! completed.

use crate::header::{self, Announces, OpFate, Recovery, NODE_SEQ};
use crate::DsError;
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const MAGIC: u64 = 0x5044_5155_4555_4531; // "PDQUEUE1"

// Header line layout (offsets within the first 64-byte line).
const H_MAGIC: u64 = 0;
const H_HEAD: u64 = 8;
const H_CURSOR: u64 = 16;
const H_PRODUCERS: u64 = 24;
const H_CAPACITY: u64 = 32;

// Node line layout (a node is exactly one 64-byte line).
const N_NEXT: u64 = 0;
const N_SEQ: u64 = NODE_SEQ;
const N_LEN: u64 = 16;
const N_PAYLOAD: u64 = 20;

/// Largest payload an inline single-line node can carry.
pub const DQUEUE_MAX_PAYLOAD: usize = 44;

/// A durable MPSC queue: `producers` enqueue slots, one dequeue slot,
/// single-line nodes carved from a bump arena inside the region.
///
/// The `tail_hint` is volatile by design: after a crash it is rebuilt
/// by walking the chain, so no durable tail pointer can ever disagree
/// with the links (the classic durable-queue tail problem).
#[derive(Debug, Clone)]
pub struct DurableQueue {
    head: Addr,
    producers: u64,
    capacity: u64,
    tail_hint: Addr,
}

impl DurableQueue {
    /// Bytes of PM needed for a queue with `producers` enqueue slots
    /// and room for `capacity` nodes.
    pub fn region_bytes(producers: u32, capacity: u64) -> u64 {
        // The consumer's announce slot follows the producers'.
        Announces::new(0, u64::from(producers) + 1).end() + capacity * 64
    }

    /// The producers' announce slots, then the consumer's (slot
    /// `producers`).
    fn announces(&self) -> Announces {
        Announces::new(self.head, self.producers + 1)
    }

    fn arena(&self) -> Addr {
        self.announces().end()
    }

    /// Create a fresh queue in `region` (never-written, zeroed PM).
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` for uniformity with
    /// the other structures.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small or `producers` is zero.
    pub fn create(
        m: &mut Machine,
        tid: Tid,
        region: AddrRange,
        producers: u32,
        capacity: u64,
    ) -> Result<DurableQueue, DsError> {
        assert!(producers > 0, "need at least one producer slot");
        assert!(
            region.len >= Self::region_bytes(producers, capacity),
            "region too small for {producers} producers / {capacity} nodes"
        );
        let producers = u64::from(producers);
        let mut w = PmWriter::new(tid);
        w.write_u64(m, region.base + H_HEAD, 0, Category::AppMeta);
        w.write_u64(m, region.base + H_CURSOR, 0, Category::AllocMeta);
        w.write_u64(m, region.base + H_PRODUCERS, producers, Category::AppMeta);
        w.write_u64(m, region.base + H_CAPACITY, capacity, Category::AppMeta);
        // Magic last, same line: the header line becomes valid
        // atomically at the fence.
        w.write_u64(m, region.base + H_MAGIC, MAGIC, Category::AppMeta);
        w.durability_fence(m);
        Ok(DurableQueue {
            head: region.base,
            producers,
            capacity,
            tail_hint: 0,
        })
    }

    /// Re-attach after a crash. Call [`DurableQueue::recover`] next to
    /// resolve in-flight operations before using the queue.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `head` does not hold a queue.
    pub fn open(m: &mut Machine, tid: Tid, head: Addr) -> Result<DurableQueue, DsError> {
        header::open(m, tid, head + H_MAGIC, MAGIC)?;
        let producers = m.load_u64(tid, head + H_PRODUCERS);
        let capacity = m.load_u64(tid, head + H_CAPACITY);
        Ok(DurableQueue {
            head,
            producers,
            capacity,
            tail_hint: 0,
        })
    }

    /// Address of the last chain node, walking from `from` (0 = start
    /// at the head pointer). Returns 0 for an empty queue.
    fn find_tail(&self, m: &mut Machine, tid: Tid, from: Addr) -> Addr {
        let mut node = if from != 0 {
            from
        } else {
            m.load_u64(tid, self.head + H_HEAD)
        };
        if node == 0 {
            return 0;
        }
        loop {
            let next = m.load_u64(tid, node + N_NEXT);
            if next == 0 {
                return node;
            }
            node = next;
        }
    }

    /// Enqueue `payload` from producer `slot`, tagged with the
    /// application-chosen `seq` (must be non-zero — it doubles as the
    /// node's torn-write detector).
    ///
    /// # Errors
    ///
    /// [`DsError::BadSlot`] for an out-of-range producer,
    /// [`DsError::TooLarge`] for an oversized payload,
    /// [`DsError::Full`] when the node arena is exhausted.
    pub fn enqueue(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        slot: u32,
        seq: u64,
        payload: &[u8],
    ) -> Result<(), DsError> {
        header::check_slot(slot, self.producers as u32)?;
        assert!(seq != 0, "sequence tags start at 1");
        if payload.len() > DQUEUE_MAX_PAYLOAD {
            return Err(DsError::TooLarge { len: payload.len() });
        }
        let cursor = m.load_u64(tid, self.head + H_CURSOR);
        if cursor >= self.capacity {
            return Err(DsError::Full {
                capacity: self.capacity,
            });
        }
        let node = self.arena() + cursor * 64;
        let mut w = PmWriter::new(tid);

        // Prepare epoch: node line + cursor bump + announce, one fence.
        let mut line = Vec::with_capacity(N_PAYLOAD as usize + payload.len());
        line.extend_from_slice(&0u64.to_le_bytes()); // next
        line.extend_from_slice(&seq.to_le_bytes());
        line.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        line.extend_from_slice(payload);
        w.write(m, node, &line, Category::UserData);
        w.write_u64(m, self.head + H_CURSOR, cursor + 1, Category::AllocMeta);
        self.announces().publish(m, &mut w, slot, node, seq);

        // Link epoch: one pointer store makes the node reachable.
        let tail = self.find_tail(m, tid, self.tail_hint);
        let link = if tail == 0 {
            self.head + H_HEAD
        } else {
            tail + N_NEXT
        };
        w.write_u64(m, link, node, Category::UserData);
        w.durability_fence(m);
        self.tail_hint = node;

        self.announces().retire(m, &mut w, slot);
        Ok(())
    }

    /// Dequeue the oldest payload (single consumer; uses the dedicated
    /// consumer announce slot). Returns `(seq, payload)`.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond the `Option`; kept as `Result` for
    /// interface uniformity.
    #[allow(clippy::type_complexity)]
    pub fn dequeue(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        seq: u64,
    ) -> Result<Option<(u64, Vec<u8>)>, DsError> {
        let node = m.load_u64(tid, self.head + H_HEAD);
        if node == 0 {
            return Ok(None);
        }
        let node_seq = m.load_u64(tid, node + N_SEQ);
        let len = m.load_u32(tid, node + N_LEN) as usize;
        let payload = m.load_vec(tid, node + N_PAYLOAD, len);
        let next = m.load_u64(tid, node + N_NEXT);

        let consumer = self.producers as u32;
        let mut w = PmWriter::new(tid);
        self.announces().publish(m, &mut w, consumer, node, seq);

        w.write_u64(m, self.head + H_HEAD, next, Category::UserData);
        w.durability_fence(m);
        if self.tail_hint == node {
            self.tail_hint = 0;
        }

        self.announces().retire(m, &mut w, consumer);
        Ok(Some((node_seq, payload)))
    }

    /// Resolve every in-flight operation after a crash: roll forward
    /// prepared-but-unlinked enqueues, detect completed operations,
    /// discard torn preparations, and repair the allocation cursor.
    /// Idempotent.
    pub fn recover(&mut self, m: &mut Machine, tid: Tid) -> Recovery {
        let mut w = PmWriter::new(tid);

        // Chain facts first: reachable set and true tail.
        let mut reachable = Vec::new();
        let mut node = m.load_u64(tid, self.head + H_HEAD);
        while node != 0 {
            reachable.push(node);
            node = m.load_u64(tid, node + N_NEXT);
        }
        self.tail_hint = reachable.last().copied().unwrap_or(0);

        // The cursor must never re-issue a line that holds a reachable
        // node (its bump may have been torn away while a link
        // survived an earlier fence — impossible under our epoch
        // order, but recovery re-derives rather than trusts).
        let arena = self.arena();
        let mut cursor = m.load_u64(tid, self.head + H_CURSOR);
        for &n in &reachable {
            cursor = cursor.max((n - arena) / 64 + 1);
        }

        // Producer announces roll forward or discard; the consumer's
        // pop either moved the head or it didn't.
        let consumer = self.producers as u32;
        let report = self
            .announces()
            .recover(m, &mut w, |m, w, slot, node, seq| {
                if slot == consumer {
                    if m.load_u64(tid, self.head + H_HEAD) == node {
                        OpFate::Discarded
                    } else {
                        OpFate::Completed
                    }
                } else if reachable.contains(&node) {
                    OpFate::Completed
                } else if header::prepared(m, tid, node, seq) {
                    // Durable prepared node, never linked: link it now.
                    w.write_u64(m, node + N_NEXT, 0, Category::UserData);
                    let link = if self.tail_hint == 0 {
                        self.head + H_HEAD
                    } else {
                        self.tail_hint + N_NEXT
                    };
                    w.write_u64(m, link, node, Category::UserData);
                    w.durability_fence(m);
                    self.tail_hint = node;
                    cursor = cursor.max((node - arena) / 64 + 1);
                    OpFate::RolledForward
                } else {
                    OpFate::Discarded
                }
            });

        w.write_u64(m, self.head + H_CURSOR, cursor, Category::AllocMeta);
        w.durability_fence(m);
        report
    }

    /// Non-destructive scan of `(seq, payload)` from oldest to newest.
    pub fn iter_snapshot(&self, m: &mut Machine, tid: Tid) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut node = m.load_u64(tid, self.head + H_HEAD);
        while node != 0 {
            let seq = m.load_u64(tid, node + N_SEQ);
            let len = m.load_u32(tid, node + N_LEN) as usize;
            out.push((seq, m.load_vec(tid, node + N_PAYLOAD, len)));
            node = m.load_u64(tid, node + N_NEXT);
        }
        out
    }

    /// Queue length (walks the chain).
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        let mut n = 0;
        let mut node = m.load_u64(tid, self.head + H_HEAD);
        while node != 0 {
            n += 1;
            node = m.load_u64(tid, node + N_NEXT);
        }
        n
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self, m: &mut Machine, tid: Tid) -> bool {
        m.load_u64(tid, self.head + H_HEAD) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};

    const TID: Tid = Tid(0);

    fn setup() -> (Machine, DurableQueue, Addr) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let base = m.config().map.pm.base;
        let region = AddrRange::new(base, DurableQueue::region_bytes(4, 256));
        let q = DurableQueue::create(&mut m, TID, region, 4, 256).unwrap();
        (m, q, base)
    }

    #[test]
    fn fifo_round_trip_across_producers() {
        let (mut m, mut q, _) = setup();
        for (i, slot) in [(1u64, 0u32), (2, 1), (3, 2), (4, 3), (5, 0)] {
            q.enqueue(&mut m, TID, slot, i, &[i as u8; 4]).unwrap();
        }
        assert_eq!(q.len(&mut m, TID), 5);
        for i in 1..=5u64 {
            let (seq, payload) = q.dequeue(&mut m, TID, 100 + i).unwrap().unwrap();
            assert_eq!(seq, i);
            assert_eq!(payload, vec![i as u8; 4]);
        }
        assert!(q.is_empty(&mut m, TID));
        assert_eq!(q.dequeue(&mut m, TID, 999).unwrap(), None);
    }

    #[test]
    fn rejects_bad_slot_oversize_and_overflow() {
        let (mut m, mut q, _) = setup();
        assert!(matches!(
            q.enqueue(&mut m, TID, 4, 1, b"x"),
            Err(DsError::BadSlot { slot: 4, slots: 4 })
        ));
        let big = [0u8; DQUEUE_MAX_PAYLOAD + 1];
        assert!(matches!(
            q.enqueue(&mut m, TID, 0, 1, &big),
            Err(DsError::TooLarge { .. })
        ));
        let mut m2 = Machine::new(MachineConfig::asplos17());
        let base = m2.config().map.pm.base;
        let region = AddrRange::new(base, DurableQueue::region_bytes(1, 2));
        let mut q2 = DurableQueue::create(&mut m2, TID, region, 1, 2).unwrap();
        q2.enqueue(&mut m2, TID, 0, 1, b"a").unwrap();
        q2.enqueue(&mut m2, TID, 0, 2, b"b").unwrap();
        assert!(matches!(
            q2.enqueue(&mut m2, TID, 0, 3, b"c"),
            Err(DsError::Full { capacity: 2 })
        ));
    }

    #[test]
    fn open_rejects_garbage_and_reattaches() {
        let (mut m, mut q, base) = setup();
        q.enqueue(&mut m, TID, 0, 7, b"keep").unwrap();
        assert!(matches!(
            DurableQueue::open(&mut m, TID, base + (1 << 20)),
            Err(DsError::BadHeader { .. })
        ));
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut q2 = DurableQueue::open(&mut m2, TID, base).unwrap();
        let report = q2.recover(&mut m2, TID);
        assert!(report.ops.is_empty(), "no in-flight ops to resolve");
        assert_eq!(q2.iter_snapshot(&mut m2, TID), vec![(7, b"keep".to_vec())]);
    }

    /// Crash at every PM event of an in-flight enqueue, under the full
    /// crash-spec lattice: after recovery the committed prefix
    /// survives and the in-flight op is either wholly present or
    /// wholly absent — and the recovery report says which.
    #[test]
    fn crash_at_every_point_of_an_enqueue_is_detectable() {
        use memsim::{CrashCounter, CrashPlan};
        let mut rolled = 0u32;
        let mut discarded = 0u32;
        let (mut m, mut q, base) = setup();
        q.enqueue(&mut m, TID, 0, 1, b"first").unwrap();
        m.set_crash_plan(CrashPlan::at_points(
            CrashCounter::PmEvents,
            (1..=24).collect(),
        ));
        q.enqueue(&mut m, TID, 1, 2, b"second").unwrap();
        let states = m.take_crash_states();
        assert!(!states.is_empty(), "plan captured nothing");
        for state in &states {
            for spec in std::iter::once(CrashSpec::DropVolatile)
                .chain(std::iter::once(CrashSpec::PersistAll))
                .chain((1..=8).map(|seed| CrashSpec::Adversarial { seed }))
            {
                let img = state.materialize(spec);
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                let mut q2 = DurableQueue::open(&mut m2, TID, base).unwrap();
                let report = q2.recover(&mut m2, TID);
                let snap = q2.iter_snapshot(&mut m2, TID);
                // The fully-fenced first element must always survive.
                assert!(
                    snap.first() == Some(&(1, b"first".to_vec())),
                    "{spec:?} at {}: committed op lost: {snap:?}",
                    state.at()
                );
                for (_, _, fate) in &report.ops {
                    match fate {
                        OpFate::RolledForward => rolled += 1,
                        OpFate::Discarded => discarded += 1,
                        OpFate::Completed => {}
                    }
                }
                // Whatever recovery decided, the queue is internally
                // consistent: sequences unique, structure usable.
                let mut seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
                seqs.sort_unstable();
                seqs.dedup();
                assert_eq!(seqs.len(), snap.len(), "duplicate nodes: {snap:?}");
                q2.enqueue(&mut m2, TID, 0, 99, b"post").unwrap();
                assert_eq!(
                    q2.iter_snapshot(&mut m2, TID).last().unwrap(),
                    &(99, b"post".to_vec())
                );
            }
        }
        // The sweep must actually exercise both recovery paths.
        assert!(rolled > 0, "no prepared-but-unlinked op rolled forward");
        assert!(discarded > 0, "no torn preparation discarded");
    }

    #[test]
    fn crash_mid_dequeue_pops_at_most_once() {
        use memsim::{CrashCounter, CrashPlan};
        let (mut m, mut q, base) = setup();
        q.enqueue(&mut m, TID, 0, 1, b"a").unwrap();
        q.enqueue(&mut m, TID, 0, 2, b"b").unwrap();
        m.set_crash_plan(CrashPlan::at_points(
            CrashCounter::PmEvents,
            (1..=12).collect(),
        ));
        q.dequeue(&mut m, TID, 50).unwrap();
        for state in m.take_crash_states() {
            for seed in 0..8u64 {
                let img = state.materialize(CrashSpec::Adversarial { seed });
                let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
                let mut q2 = DurableQueue::open(&mut m2, TID, base).unwrap();
                q2.recover(&mut m2, TID);
                let snap = q2.iter_snapshot(&mut m2, TID);
                // Element 2 must survive; element 1 is at the pop
                // boundary (gone once the head move persisted,
                // present otherwise).
                assert!(
                    snap == vec![(2, b"b".to_vec())]
                        || snap == vec![(1, b"a".to_vec()), (2, b"b".to_vec())],
                    "seed {seed} at {}: {snap:?}",
                    state.at()
                );
            }
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut m, mut q, base) = setup();
        q.enqueue(&mut m, TID, 0, 1, b"x").unwrap();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut q2 = DurableQueue::open(&mut m2, TID, base).unwrap();
        q2.recover(&mut m2, TID);
        let again = q2.recover(&mut m2, TID);
        assert!(again.ops.is_empty());
        assert_eq!(q2.len(&mut m2, TID), 1);
    }
}
