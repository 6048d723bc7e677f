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

/// The kind of a trace event.
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
    /// A load from persistent memory.
    ///
    /// The applications do not record their loads (WHISPER traces
    /// writes, flushes, and fences); this event exists for synthetic
    /// and seeded traces where the happens-before engine needs the
    /// read side of a communication edge, and for recovery-phase
    /// checking ([`RecoveryBegin`](EventKind::RecoveryBegin)).
    PmLoad {
        /// Source byte address.
        addr: Addr,
    },
    /// Marks the start of a recovery phase: everything after this
    /// event models post-crash code re-reading persistent state. Used
    /// by seeded traces to exercise the P-RECOVERY-READ rule.
    RecoveryBegin,
}

/// One trace record: who, when (simulated nanoseconds), what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Issuing hardware thread.
    pub tid: Tid,
    /// Simulated global timestamp, nanoseconds. WHISPER's traces carry
    /// "a timestamp for each operation using a global clock" (Section 4).
    pub at_ns: u64,
    /// The event itself.
    pub kind: EventKind,
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
    fn event_is_copy_and_comparable() {
        let e = Event {
            tid: Tid(0),
            at_ns: 5,
            kind: EventKind::Fence,
        };
        let f = e;
        assert_eq!(e, f);
    }
}
