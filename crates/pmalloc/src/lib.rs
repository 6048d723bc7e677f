//! Persistent-memory allocators for the WHISPER reproduction.
//!
//! Section 5.2 of the paper finds that "persistent memory allocators
//! have an unexpectedly large impact on behavior": they are invoked
//! inside transactions, their metadata writes are the dominant cause of
//! small (singleton, <10 B) epochs, and their block-recycling causes
//! self- and cross-thread dependencies. This crate implements the three
//! allocator designs the paper analyzes:
//!
//! * [`SlabBitmapAlloc`] — Mnemosyne-style: multiple slabs per size
//!   class, a persistent bitmap of allocated blocks, volatile structures
//!   to speed allocation. Can leak blocks on a crash mid-transaction
//!   (which the paper notes avoids extra logging epochs).
//! * [`SingleHeapAlloc`] — N-store/Echo-style: one heap for all sizes
//!   with "frequent splits and coalescing of blocks, each requiring a
//!   persistent metadata write", plus the FREE/VOLATILE/PERSISTENT
//!   block-state variable whose triple writes cause self-dependencies.
//! * [`BuddyAlloc`] — the buddy system behind N-store's 200–1400 %
//!   write amplification.
//!
//! All metadata writes go through the instrumented machine tagged
//! [`pmtrace::Category::AllocMeta`], so the trace analysis attributes
//! them exactly as the paper does. Each allocator persists its metadata
//! in its own epoch (a `clwb; sfence` after the metadata store), which
//! is what makes allocator traffic visible as singleton epochs.
//!
//! # Example
//!
//! ```
//! use memsim::{Machine, MachineConfig, PmWriter};
//! use pmalloc::{PmAllocator, SlabBitmapAlloc};
//! use pmem::AddrRange;
//! use pmtrace::Tid;
//!
//! let mut m = Machine::new(MachineConfig::asplos17());
//! let pm = m.config().map.pm;
//! let mut w = PmWriter::new(Tid(0));
//! let mut a = SlabBitmapAlloc::format(&mut m, &mut w, AddrRange::new(pm.base, 1 << 20));
//! let p = a.alloc(&mut m, &mut w, 48).unwrap();
//! a.free(&mut m, &mut w, p).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buddy;
mod sharded;
mod single_heap;
mod slab;

pub use buddy::BuddyAlloc;
pub use sharded::ShardedSlab;
pub use single_heap::{BlockState, SingleHeapAlloc};
pub use slab::SlabBitmapAlloc;

use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};

/// Errors returned by persistent allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The region cannot satisfy the request.
    OutOfMemory {
        /// The size that could not be satisfied.
        requested: u64,
    },
    /// `free`/`set_state` of an address this allocator does not consider
    /// an allocated block.
    InvalidFree {
        /// The offending address.
        addr: Addr,
    },
    /// A request for zero bytes or a size above the allocator's limit.
    BadSize {
        /// The offending size.
        requested: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(
                    f,
                    "persistent region exhausted for {requested}-byte request"
                )
            }
            AllocError::InvalidFree { addr } => {
                write!(f, "free of unallocated address {addr:#x}")
            }
            AllocError::BadSize { requested } => {
                write!(f, "unsupported allocation size {requested}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Common interface of the three persistent allocators.
///
/// Allocators take the machine and the caller's [`PmWriter`] because
/// their metadata updates execute on the caller's thread, inside the
/// caller's transaction — exactly how the paper's applications invoke
/// them.
pub trait PmAllocator {
    /// Allocate `size` bytes of PM. The returned block is 64 B-aligned.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadSize`] for zero or oversized requests,
    /// [`AllocError::OutOfMemory`] when the region is exhausted.
    fn alloc(&mut self, m: &mut Machine, w: &mut PmWriter, size: u64) -> Result<Addr, AllocError>;

    /// Release a block previously returned by `alloc`.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is not an allocated block.
    fn free(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr) -> Result<(), AllocError>;

    /// The PM range this allocator manages.
    fn region(&self) -> AddrRange;

    /// Bytes currently allocated (payload, not metadata).
    fn allocated_bytes(&self) -> u64;
}

/// Statistics shared by allocator implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Block splits (single-heap / buddy).
    pub splits: u64,
    /// Block coalesces/merges.
    pub merges: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;
    use pmtrace::analysis::Analyzer;
    use pmtrace::{Category, Tid};

    /// Consequence 8's allocator ablation: epochs and metadata bytes
    /// for 64 cycles of a 96-byte alloc and its free, per design.
    #[test]
    fn allocator_designs_cost_per_alloc_free_cycle() {
        fn cycle<A: PmAllocator>(
            format: impl FnOnce(&mut Machine, &mut PmWriter, AddrRange) -> A,
        ) -> (usize, u64) {
            let mut m = Machine::new(MachineConfig::asplos17());
            let mut w = PmWriter::new(Tid(0));
            let region = AddrRange::new(m.config().map.pm.base, 16 << 20);
            let mut a = format(&mut m, &mut w, region);
            m.trace_mut().clear();
            for _ in 0..64 {
                let p = a.alloc(&mut m, &mut w, 96).unwrap();
                a.free(&mut m, &mut w, p).unwrap();
            }
            let report = Analyzer::analyze_events(m.trace().events());
            (
                report.epoch_count,
                report.amplification.bytes(Category::AllocMeta),
            )
        }
        assert_eq!(cycle(SlabBitmapAlloc::format), (129, 392));
        assert_eq!(cycle(SingleHeapAlloc::format), (256, 3328));
        assert_eq!(cycle(BuddyAlloc::format), (271, 414));
    }
}
