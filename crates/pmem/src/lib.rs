//! Simulated byte-addressable memory devices for the WHISPER/HOPS
//! reproduction.
//!
//! Emerging non-volatile memories (NVM) promise DRAM-like latencies with
//! durability. The WHISPER paper (ASPLOS 2017) defines *persistent memory*
//! (PM) as NVM accessed with byte addressability, at low latency, via
//! regular memory instructions. This crate provides the lowest layer of
//! the reproduction: the *media* — sparse, 64-byte-line-granular byte
//! stores standing in for an NVM DIMM ([`PmDevice`]) and for DRAM
//! ([`DramDevice`]), plus durable snapshots ([`PmImage`]) used to model
//! power failures.
//!
//! Nothing in this crate models caches, fences, or ordering; that is the
//! job of the `memsim` crate, which decides *when* bytes written by a
//! program actually reach the device. A byte that has reached
//! [`PmDevice`] is durable: it survives [`PmDevice::image`] /
//! [`PmDevice::from_image`] round-trips, which is how a crash is
//! simulated.
//!
//! # Example
//!
//! ```
//! use pmem::{AddressMap, PmDevice, LINE_SIZE};
//!
//! let map = AddressMap::asplos17();
//! let mut pm = PmDevice::new(map.pm);
//! let addr = map.pm.base;
//! pm.write(addr, b"hello");
//! assert_eq!(pm.read_vec(addr, 5), b"hello");
//! // One line holds data:
//! assert_eq!(pm.lines_in_use(), 1);
//! assert_eq!(LINE_SIZE, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod hash;
mod image;
mod line;
mod linemap;
mod range;
mod sparse;

pub use device::{DramDevice, PmDevice};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use image::PmImage;
pub use line::{lines_spanning, Line, LineSpan, LINE_SIZE};
pub use linemap::LineMap;
pub use range::{AddrRange, AddressMap, MemoryKind};
pub use sparse::{SparseLineMap, SPARSE_PAGE_LINES};

/// A byte address in the simulated physical address space.
///
/// A single flat address space holds both DRAM and PM; [`AddressMap`]
/// records which range is which, mirroring the paper's heterogeneous
/// memory assumption (Section 1: systems contain both volatile DRAM and
/// NVM, and applications selectively allocate data in PM).
pub type Addr = u64;
