//! Crash-recoverable persistent data structures.
//!
//! The WHISPER applications keep their recoverable state in a small set
//! of persistent structures: chained hash tables (Memcached, Redis,
//! Echo, the NVML `hashmap` micro-benchmark), a crit-bit tree (the NVML
//! `ctree` micro-benchmark, "inserts and deletes ... into a persistent
//! crit-bit tree"), red-black trees and linked lists (Vacation), an
//! append log (Echo's client submission logs), and an LRU list
//! (Memcached's replacement policy). This crate implements each of them
//! once, over the engine-independent [`pmtx::TxMem`] interface, so the
//! same structure runs under NVML-style undo logging or Mnemosyne-style
//! redo logging — mirroring how WHISPER mounts the same logical
//! structures over different access layers.
//!
//! All node allocation goes through a caller-supplied
//! [`pmalloc::PmAllocator`], inside the caller's transaction, so the
//! allocator-metadata epochs land inside transactions exactly as the
//! paper observes.
//!
//! Pointers are raw PM addresses (`u64`), with 0 as null. Every
//! structure has an `open` constructor that re-attaches to its PM
//! header after a crash.
//!
//! Two protocols are written once and shared. The *structure header*:
//! the magic check every `open` runs, and the per-thread count shards
//! of the four transactional maps (a header region of [`HEADER_BYTES`]).
//! The *announce slot* behind [`CHash`]'s and [`DurableQueue`]'s
//! detectable recovery: each operation publishes a `Pending` record
//! before it links and retires it after, and `recover` reports the
//! [`OpFate`] of every operation a crash interrupted in one
//! [`Recovery`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod chash;
mod critbit;
mod dqueue;
mod hashfn;
mod hashmap;
mod header;
mod lru;
mod plog;
mod rbtree;

pub use btree::PBTree;
pub use chash::{CHash, CHASH_MAX_ITEM};
pub use critbit::CritBitTree;
pub use dqueue::{DurableQueue, DQUEUE_MAX_PAYLOAD};
pub use hashfn::fnv1a;
pub use hashmap::PHashMap;
pub use header::{OpFate, Recovery, HEADER_BYTES};
pub use lru::PLruList;
pub use plog::PLog;
pub use rbtree::PRbTree;

/// Errors from persistent data structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsError {
    /// The underlying transaction engine failed.
    Tx(pmtx::TxError),
    /// The underlying allocator failed.
    Alloc(pmalloc::AllocError),
    /// A key or value exceeds the structure's inline limit.
    TooLarge {
        /// Offending length in bytes.
        len: usize,
    },
    /// `open` found no valid structure header at the given address.
    BadHeader {
        /// Address probed.
        addr: pmem::Addr,
    },
    /// A per-thread slot index outside the range the structure was
    /// created with.
    BadSlot {
        /// The offending slot.
        slot: u32,
        /// Slots the structure was created with.
        slots: u32,
    },
    /// The structure's node arena is exhausted.
    Full {
        /// Nodes the structure was created with room for.
        capacity: u64,
    },
}

impl std::fmt::Display for DsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsError::Tx(e) => write!(f, "transaction error: {e}"),
            DsError::Alloc(e) => write!(f, "allocation error: {e}"),
            DsError::TooLarge { len } => write!(f, "item of {len} bytes too large"),
            DsError::BadHeader { addr } => write!(f, "no structure header at {addr:#x}"),
            DsError::BadSlot { slot, slots } => {
                write!(f, "slot {slot} out of range (structure has {slots} slots)")
            }
            DsError::Full { capacity } => {
                write!(f, "node arena full ({capacity} nodes)")
            }
        }
    }
}

impl std::error::Error for DsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsError::Tx(e) => Some(e),
            DsError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pmtx::TxError> for DsError {
    fn from(e: pmtx::TxError) -> DsError {
        DsError::Tx(e)
    }
}

impl From<pmalloc::AllocError> for DsError {
    fn from(e: pmalloc::AllocError) -> DsError {
        DsError::Alloc(e)
    }
}
