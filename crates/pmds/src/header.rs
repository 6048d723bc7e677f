//! The two protocols the structures share, each written once.
//!
//! * **The structure header.** Every structure starts with a 64-byte
//!   header line whose first word is its magic; `open` checks it. The
//!   four transactional maps (crit-bit tree, hash map, red-black tree,
//!   B-tree) follow it with [`COUNT_SHARDS`] per-thread count lines,
//!   so concurrent inserts do not collide on one hot counter line —
//!   the paper names shared persistent counters as a source of
//!   cross-thread epoch dependencies (Section 5.2); real stores shard
//!   or elide such counters.
//! * **The announce slot.** [`crate::CHash`] and
//!   [`crate::DurableQueue`] make every operation *detectable* in the
//!   Friedman et al. / memento style: before touching the structure a
//!   writer publishes a `Pending` record (node address, sequence tag)
//!   on its own announce line, and retires it to `Done` after the
//!   link. Recovery finds every `Pending` slot, lets the structure
//!   decide the operation's [`OpFate`], and retires the slot — the
//!   caller learns, per in-flight operation, which way it went.

use crate::DsError;
use memsim::{Machine, PmWriter};
use pmem::Addr;
use pmtrace::{Category, Tid};
use pmtx::TxMem;

/// Per-thread count lines after the header line.
const COUNT_SHARDS: u64 = 4;

/// Bytes of PM a sharded structure's header needs: the header line
/// plus its count shards. The crit-bit, red-black and B-trees need
/// exactly this; [`crate::PHashMap`] puts its buckets right after it.
pub const HEADER_BYTES: u64 = 64 + COUNT_SHARDS * 64;

/// The magic check on `open`: `Ok` when the header line at `base`
/// carries `magic`.
pub(crate) fn open(m: &mut Machine, tid: Tid, base: Addr, magic: u64) -> Result<(), DsError> {
    if m.load_u64(tid, base) == magic {
        Ok(())
    } else {
        Err(DsError::BadHeader { addr: base })
    }
}

/// The item count of the sharded structure at `base`.
///
/// Each shard holds a signed (two's-complement) delta: a thread that
/// removes a key another thread inserted drives its own shard
/// negative. Only the total is non-negative, and summing modulo 2^64
/// recovers it exactly.
pub(crate) fn len(m: &mut Machine, tid: Tid, base: Addr) -> u64 {
    (0..COUNT_SHARDS)
        .map(|s| m.load_u64(tid, base + 64 + s * 64))
        .fold(0, u64::wrapping_add)
}

/// Add `delta` to the calling thread's count shard, inside the open
/// transaction.
#[inline]
pub(crate) fn bump<E: TxMem>(
    m: &mut Machine,
    eng: &mut E,
    tid: Tid,
    base: Addr,
    delta: i64,
) -> Result<(), DsError> {
    let shard = base + 64 + (u64::from(tid.0) % COUNT_SHARDS) * 64;
    let n = eng.tx_read_u64(m, tid, shard).wrapping_add_signed(delta);
    Ok(eng.tx_write_u64(m, tid, shard, n, Category::AppMeta)?)
}

// Announce line layout (one 64-byte line per slot; 0 is idle, which
// the formatted region already is).
const A_STATE: u64 = 0;
const A_NODE: u64 = 8;
const A_SEQ: u64 = 16;
const STATE_PENDING: u64 = 1;
const STATE_DONE: u64 = 2;

/// Where an announced node keeps its sequence tag.
pub(crate) const NODE_SEQ: u64 = 8;

/// Whether a `Pending` slot's node was durably prepared: it carries
/// the slot's (non-zero) sequence tag.
pub(crate) fn prepared(m: &mut Machine, tid: Tid, node: Addr, seq: u64) -> bool {
    seq != 0 && node != 0 && m.load_u64(tid, node + NODE_SEQ) == seq
}

/// What recovery decided about one in-flight operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFate {
    /// The operation had fully taken effect; recovery marked it done.
    Completed,
    /// The prepared node was durable but unlinked; recovery linked it.
    RolledForward,
    /// The preparation was torn, or the operation never took effect;
    /// recovery discarded it.
    Discarded,
}

/// Recovery report — the *detectability* interface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// `(slot, sequence, fate)` for every announce slot found
    /// mid-operation, with the sequence the application tagged it with.
    pub ops: Vec<(u32, u64, OpFate)>,
}

/// `Ok` when `slot` is one of the first `slots` announce slots.
pub(crate) fn check_slot(slot: u32, slots: u32) -> Result<(), DsError> {
    if slot < slots {
        Ok(())
    } else {
        Err(DsError::BadSlot { slot, slots })
    }
}

/// The announce lines right after the header line at `head`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Announces {
    head: Addr,
    /// Announce lines, all visited by [`Announces::recover`].
    lines: u64,
}

impl Announces {
    pub(crate) fn new(head: Addr, lines: u64) -> Announces {
        Announces { head, lines }
    }

    /// The first byte after the announce lines.
    pub(crate) fn end(&self) -> Addr {
        self.head + 64 + self.lines * 64
    }

    fn line(&self, slot: u32) -> Addr {
        self.head + 64 + u64::from(slot) * 64
    }

    /// Publish `slot`'s `Pending` record for the operation on `node`
    /// tagged `seq` with a durability fence — the fence that ends the
    /// operation's prepare epoch.
    pub(crate) fn publish(
        &self,
        m: &mut Machine,
        w: &mut PmWriter,
        slot: u32,
        node: Addr,
        seq: u64,
    ) {
        let rec = [STATE_PENDING, node, seq].map(u64::to_le_bytes).concat();
        w.write(m, self.line(slot), &rec, Category::AppMeta);
        w.durability_fence(m);
    }

    /// Retire `slot`'s operation: `Done`, then a durability fence.
    pub(crate) fn retire(&self, m: &mut Machine, w: &mut PmWriter, slot: u32) {
        w.write_u64(m, self.line(slot) + A_STATE, STATE_DONE, Category::AppMeta);
        w.durability_fence(m);
    }

    /// Resolve every `Pending` slot in slot order: `resolve` gets the
    /// slot, its node and its sequence and decides the fate, then the
    /// slot is retired (unfenced — the caller fences once at the end).
    pub(crate) fn recover(
        &self,
        m: &mut Machine,
        w: &mut PmWriter,
        mut resolve: impl FnMut(&mut Machine, &mut PmWriter, u32, Addr, u64) -> OpFate,
    ) -> Recovery {
        let tid = w.tid();
        let mut report = Recovery::default();
        for slot in 0..self.lines as u32 {
            let ann = self.line(slot);
            if m.load_u64(tid, ann + A_STATE) != STATE_PENDING {
                continue;
            }
            let node = m.load_u64(tid, ann + A_NODE);
            let seq = m.load_u64(tid, ann + A_SEQ);
            let fate = resolve(m, w, slot, node, seq);
            w.write_u64(m, ann + A_STATE, STATE_DONE, Category::AppMeta);
            report.ops.push((slot, seq, fate));
        }
        report
    }
}
