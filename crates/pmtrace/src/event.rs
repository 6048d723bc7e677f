//! Trace event types.

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
/// In memory an event is its 24-byte archive record (see
/// [`crate::codec`]): four words, `head = tag | tid << 8`, `a` (a
/// store's `len << 8 | category`), `b` (the address or transaction id)
/// and `at_ns`. A kept trace is one such record per PM operation, so
/// no padding is spent on the [`EventKind`] enum; [`kind`](Event::kind)
/// rebuilds that view on demand. Every word a tag does not use is zero,
/// so two events are equal exactly when their thread, time and kind are.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Event {
    head: u32,
    a: u32,
    b: u64,
    at_ns: u64,
}

// A kept trace costs 24 bytes per PM operation, as its archive does.
const _: () = assert!(size_of::<Event>() == 24);

/// Thread ids and store lengths are 24-bit fields of the record.
const FIELD_LIMIT: u32 = 1 << 24;

impl Event {
    /// The record of `kind`, issued by `tid` at `at_ns`.
    ///
    /// # Panics
    ///
    /// If `tid` or a store's `len` is 2^24 or more: the record keeps
    /// 24 bits of each.
    #[inline]
    pub fn new(tid: Tid, at_ns: u64, kind: EventKind) -> Event {
        assert!(
            tid.0 < FIELD_LIMIT,
            "thread id {} does not fit the trace record's 24-bit tid (limit 2^24)",
            tid.0
        );
        let (tag, a, b) = match kind {
            EventKind::PmStore { addr, len, nt, cat } => {
                assert!(
                    len < FIELD_LIMIT,
                    "store of {len} bytes does not fit the trace record's 24-bit length (limit 2^24)"
                );
                (u32::from(nt), (len << 8) | cat.index() as u32, addr)
            }
            EventKind::Flush { addr } => (2, 0, addr),
            EventKind::Fence => (3, 0, 0),
            EventKind::DFence => (4, 0, 0),
            EventKind::TxBegin { id } => (5, 0, id),
            EventKind::TxEnd { id } => (6, 0, id),
        };
        Event {
            head: tag | (tid.0 << 8),
            a,
            b,
            at_ns,
        }
    }

    /// Issuing hardware thread.
    #[inline]
    pub fn tid(&self) -> Tid {
        Tid(self.head >> 8)
    }

    /// Simulated global timestamp, nanoseconds. WHISPER's traces carry
    /// "a timestamp for each operation using a global clock" (Section 4).
    #[inline]
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// The event itself.
    #[inline]
    pub fn kind(&self) -> EventKind {
        let b = self.b;
        match self.head as u8 {
            tag @ (0 | 1) => EventKind::PmStore {
                addr: b,
                len: self.a >> 8,
                nt: tag == 1,
                // A match, not an index into `Category::ALL`: no bounds
                // check on every store read. `new` writes codes 0..=6.
                cat: match self.a & 0xff {
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

    /// The little-endian archive record: `head`, `a`, `b`, `at_ns`.
    #[inline]
    pub(crate) fn to_le_bytes(self) -> [u8; 24] {
        let mut r = [0; 24];
        r[0..4].copy_from_slice(&self.head.to_le_bytes());
        r[4..8].copy_from_slice(&self.a.to_le_bytes());
        r[8..16].copy_from_slice(&self.b.to_le_bytes());
        r[16..24].copy_from_slice(&self.at_ns.to_le_bytes());
        r
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("tid", &self.tid())
            .field("at_ns", &self.at_ns)
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
    #[should_panic(expected = "24-bit tid")]
    fn a_thread_id_of_2_pow_24_cannot_be_recorded() {
        Event::new(Tid(1 << 24), 0, EventKind::Fence);
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
