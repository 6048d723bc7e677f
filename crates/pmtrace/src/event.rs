//! Trace event types.

use crate::codec::CodecError;
use pmem::Addr;

/// A (hardware) thread identifier.
///
/// The paper's simulated system has four cores with one hardware thread
/// each (Table 3); the suite driver interleaves logical client threads
/// onto these ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A per-thread durable-transaction identifier.
pub type TxId = u64;

/// What a PM write was *for*.
///
/// Section 5 repeatedly distinguishes user data from the metadata that
/// recovery mechanisms add ("the dominant cause of small epochs was not
/// application data but metadata writes from memory allocation and
/// logging"), and the write-amplification analysis (Section 5.2) needs
/// bytes attributed to logs and allocators. Every store in the
/// reproduction carries one of these tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Application payload the user asked to persist.
    UserData,
    /// Redo-log entries (Mnemosyne-style).
    RedoLog,
    /// Undo-log entries (NVML/PMFS/N-store-style).
    UndoLog,
    /// Log descriptors/status words (commit markers, entry clears).
    LogMeta,
    /// Persistent allocator metadata (bitmaps, free lists, block states).
    AllocMeta,
    /// Filesystem metadata (inodes, directories, bitmaps).
    FsMeta,
    /// Application metadata that is neither log nor allocator state
    /// (e.g. Echo's descriptor status words, Vacation's global counters).
    AppMeta,
}

impl Category {
    /// All categories, for exhaustive reporting.
    pub const ALL: [Category; 7] = [
        Category::UserData,
        Category::RedoLog,
        Category::UndoLog,
        Category::LogMeta,
        Category::AllocMeta,
        Category::FsMeta,
        Category::AppMeta,
    ];

    /// This category's position in [`Category::ALL`] — the index of
    /// every per-category array.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Category::UserData => "user-data",
            Category::RedoLog => "redo-log",
            Category::UndoLog => "undo-log",
            Category::LogMeta => "log-meta",
            Category::AllocMeta => "alloc-meta",
            Category::FsMeta => "fs-meta",
            Category::AppMeta => "app-meta",
        };
        f.write_str(s)
    }
}

/// The kind of a trace event: what the machine records of a PM
/// program — writes, flushes, fences and transaction boundaries
/// (Section 4). Loads are not traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A store to persistent memory (cacheable or non-temporal).
    PmStore {
        /// Target byte address.
        addr: Addr,
        /// Length in bytes.
        len: u32,
        /// True for a non-temporal (cache-bypassing) store.
        nt: bool,
        /// What the write was for.
        cat: Category,
    },
    /// A `clwb`/`clflushopt` of the line containing `addr`.
    Flush {
        /// Address whose line is flushed.
        addr: Addr,
    },
    /// An ordering point: `sfence` on x86-64, `ofence` under HOPS.
    /// Ends the current epoch on the issuing thread.
    Fence,
    /// A durability point: `sfence` draining flushes on x86-64,
    /// `dfence` under HOPS. Also ends the current epoch.
    DFence,
    /// Start of a durable transaction.
    TxBegin {
        /// Per-thread transaction id.
        id: TxId,
    },
    /// Commit of a durable transaction.
    TxEnd {
        /// Per-thread transaction id.
        id: TxId,
    },
}

/// One trace record: who, when (simulated nanoseconds), what.
///
/// In memory an event is two words, 16 bytes. `head` holds `at_ns` in
/// its low 48 bits, then the thread id (10 bits), the record tag (3
/// bits: store, non-temporal store, flush, fence, dfence, begin, end)
/// and a store's category (3 bits). `body` holds a store's address in
/// its low 40 bits and its length in the high 24, or a flush's
/// address, or a transaction id, whole. A kept trace is one such
/// record per PM operation; [`kind`](Event::kind) rebuilds the
/// [`EventKind`] view on demand. Every bit a tag does not use is zero,
/// so two events are equal exactly when their thread, time and kind
/// are. The `.wtr` archive ([`crate::codec`]) stores these two words
/// as they are.
///
/// The record's domain, which [`Event::new`] asserts:
/// - thread id < 2^10 (the machine runs at most 64 threads);
/// - `at_ns` < 2^48, about 3.3 days of simulated time;
/// - store address < 2^40 (the PM map ends below 2^33);
/// - store length < 2^24.
///
/// Flush addresses and transaction ids keep all 64 bits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Event {
    head: u64,
    body: u64,
}

// A kept trace costs 16 bytes per PM operation.
const _: () = assert!(size_of::<Event>() == 16);

/// Bits of `head` that hold `at_ns`; above them sit the tid, the tag and
/// the category.
const TIME_BITS: u32 = 48;
/// Bits of the thread id.
const TID_BITS: u32 = 10;
/// Bits of `body` that hold a store's address; its length sits above.
const ADDR_BITS: u32 = 40;
/// Bits of a store's length.
const LEN_BITS: u32 = 24;

const TID_SHIFT: u32 = TIME_BITS;
const TAG_SHIFT: u32 = TID_SHIFT + TID_BITS;
const CAT_SHIFT: u32 = TAG_SHIFT + 3;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;
const TID_MASK: u64 = (1 << TID_BITS) - 1;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

impl Event {
    /// The record of `kind`, issued by `tid` at `at_ns`.
    ///
    /// # Panics
    ///
    /// If a part lies outside the record's domain: a `tid` of 2^10 or
    /// more, an `at_ns` of 2^48 or more, or a store at 2^40 or beyond
    /// or of 2^24 bytes or more.
    #[inline]
    pub fn new(tid: Tid, at_ns: u64, kind: EventKind) -> Event {
        assert!(
            u64::from(tid.0) <= TID_MASK,
            "thread id {} does not fit the trace record's 10-bit tid (limit 2^10)",
            tid.0
        );
        assert!(
            at_ns <= TIME_MASK,
            "time {at_ns} ns does not fit the trace record's 48-bit at_ns (limit 2^48)"
        );
        let (tag, cat, body) = match kind {
            EventKind::PmStore { addr, len, nt, cat } => {
                assert!(
                    addr <= ADDR_MASK,
                    "store at {addr:#x} does not fit the trace record's 40-bit address (limit 2^40)"
                );
                assert!(
                    len < 1 << LEN_BITS,
                    "store of {len} bytes does not fit the trace record's 24-bit length (limit 2^24)"
                );
                (
                    u64::from(nt),
                    cat.index() as u64,
                    addr | u64::from(len) << ADDR_BITS,
                )
            }
            EventKind::Flush { addr } => (2, 0, addr),
            EventKind::Fence => (3, 0, 0),
            EventKind::DFence => (4, 0, 0),
            EventKind::TxBegin { id } => (5, 0, id),
            EventKind::TxEnd { id } => (6, 0, id),
        };
        Event {
            head: at_ns | u64::from(tid.0) << TID_SHIFT | tag << TAG_SHIFT | cat << CAT_SHIFT,
            body,
        }
    }

    /// The record's `head` and `body` words, as the archive stores them.
    #[inline]
    pub(crate) fn words(&self) -> (u64, u64) {
        (self.head, self.body)
    }

    /// The event whose record words are `head` and `body`, as
    /// [`words`](Event::words) gave them out. Every pair of words fits
    /// the domain, so only three codes are refused: tag 7 and category
    /// 7 as [`CodecError::BadTag`], and a store of no bytes as
    /// [`CodecError::BadStore`]. The bits a tag does not use are
    /// ignored: the event is rebuilt through [`Event::new`], which zeroes
    /// them.
    pub(crate) fn from_words(head: u64, body: u64) -> Result<Event, CodecError> {
        let tag = (head >> TAG_SHIFT) & 7;
        let store = tag <= 1;
        if tag == 7 || store && head >> CAT_SHIFT == 7 {
            return Err(CodecError::BadTag { tag: 7 });
        }
        if store && body >> ADDR_BITS == 0 {
            let addr = body & ADDR_MASK;
            return Err(CodecError::BadStore { addr, len: 0 });
        }
        let raw = Event { head, body };
        Ok(Event::new(raw.tid(), raw.at_ns(), raw.kind()))
    }

    /// Issuing hardware thread.
    #[inline]
    pub fn tid(&self) -> Tid {
        Tid(((self.head >> TID_SHIFT) & TID_MASK) as u32)
    }

    /// Simulated global timestamp, nanoseconds. WHISPER's traces carry
    /// "a timestamp for each operation using a global clock" (Section 4).
    #[inline]
    pub fn at_ns(&self) -> u64 {
        self.head & TIME_MASK
    }

    /// The event itself.
    #[inline]
    pub fn kind(&self) -> EventKind {
        let b = self.body;
        match (self.head >> TAG_SHIFT) & 7 {
            tag @ (0 | 1) => EventKind::PmStore {
                addr: b & ADDR_MASK,
                len: (b >> ADDR_BITS) as u32,
                nt: tag == 1,
                // A match, not an index into `Category::ALL`: no bounds
                // check on every store read. `new` writes codes 0..=6.
                cat: match self.head >> CAT_SHIFT {
                    0 => Category::UserData,
                    1 => Category::RedoLog,
                    2 => Category::UndoLog,
                    3 => Category::LogMeta,
                    4 => Category::AllocMeta,
                    5 => Category::FsMeta,
                    _ => Category::AppMeta,
                },
            },
            2 => EventKind::Flush { addr: b },
            3 => EventKind::Fence,
            4 => EventKind::DFence,
            5 => EventKind::TxBegin { id: b },
            // `new` writes tags 0..=6.
            _ => EventKind::TxEnd { id: b },
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("tid", &self.tid())
            .field("at_ns", &self.at_ns())
            .field("kind", &self.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_distinct_and_displayable() {
        let mut seen = std::collections::HashSet::new();
        for c in Category::ALL {
            assert!(seen.insert(format!("{c}")), "duplicate display for {c:?}");
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn tid_display() {
        assert_eq!(format!("{}", Tid(3)), "t3");
    }

    #[test]
    #[should_panic(expected = "10-bit tid")]
    fn a_thread_id_of_2_pow_10_cannot_be_recorded() {
        Event::new(Tid(1 << 10), 0, EventKind::Fence);
    }

    #[test]
    #[should_panic(expected = "48-bit at_ns")]
    fn a_time_of_2_pow_48_cannot_be_recorded() {
        Event::new(Tid(0), 1 << 48, EventKind::Fence);
    }

    #[test]
    #[should_panic(expected = "40-bit address")]
    fn a_store_at_2_pow_40_cannot_be_recorded() {
        let kind = EventKind::PmStore {
            addr: 1 << 40,
            len: 8,
            nt: false,
            cat: Category::UserData,
        };
        Event::new(Tid(0), 0, kind);
    }

    #[test]
    #[should_panic(expected = "24-bit length")]
    fn a_store_of_2_pow_24_bytes_cannot_be_recorded() {
        let kind = EventKind::PmStore {
            addr: 0,
            len: 1 << 24,
            nt: false,
            cat: Category::UserData,
        };
        Event::new(Tid(0), 0, kind);
    }

    #[test]
    fn event_is_copy_and_comparable() {
        let e = Event::new(Tid(0), 5, EventKind::Fence);
        let f = e;
        assert_eq!(e, f);
        assert_eq!(
            format!("{e:?}"),
            "Event { tid: Tid(0), at_ns: 5, kind: Fence }"
        );
    }
}
