//! The Hands-Off Persistence System (HOPS), paper Section 6.
//!
//! HOPS "orders and persists PM updates in hardware" through per-thread
//! **persist buffers** (PBs) and two ISA primitives: a lightweight
//! ordering fence (`ofence`) that just increments the thread's epoch
//! timestamp, and a heavyweight durability fence (`dfence`) that drains
//! the thread's PB. The design goals, derived from the WHISPER
//! analysis, are: don't disturb the volatile-access path (Consequence
//! 11), make ordering cheap because epochs are common and durability is
//! rare (Consequences 1–2), buffer multiple versions of a line to
//! absorb self-dependencies (Consequence 6), and track cross-thread
//! dependencies — rare but required for correctness (Consequence 5).
//!
//! This crate provides both halves of the reproduction of Section 6:
//!
//! * [`HopsSystem`] — a *functional* model of the persist buffers with
//!   Buffered Epoch Persistency semantics: multi-versioned entries,
//!   per-thread epoch timestamps, dependency pointers captured on loss
//!   of write ownership, a global flushed-timestamp vector, and a crash
//!   model in which each thread's durable state is an epoch *prefix*.
//!   This is what the paper's Table 2 and the worked `mov/ofence/mov/
//!   dfence` example describe.
//! * [`models`] — a trace-replay *timing* model that re-prices a
//!   recorded WHISPER trace under the five configurations of
//!   Figure 10: x86-64 with durability at the NVM device, x86-64 with a
//!   persistent write queue (PWQ) at the memory controller, HOPS(NVM),
//!   HOPS(PWQ), and a non-crash-consistent IDEAL.
//!
//! # Example
//!
//! ```
//! use hops::{HopsConfig, HopsSystem};
//! use pmem::AddrRange;
//!
//! // The paper's worked example: two versions of A buffered at once.
//! let mut sys = HopsSystem::new(HopsConfig::default(), AddrRange::new(0, 1 << 20), 4);
//! sys.store(0, 0x100, &10u64.to_le_bytes())?;
//! sys.ofence(0)?; // cheap, local
//! sys.store(0, 0x100, &20u64.to_le_bytes())?;
//! assert_eq!(sys.buffered_versions(0, pmem::Line::containing(0x100))?, 2);
//! sys.dfence(0)?; // drains: 10 then 20, in epoch order
//! assert_eq!(sys.durable_u64(0x100), 20);
//! # Ok::<(), hops::BadThread>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod config;
pub mod models;
mod persist_buffer;

pub use bloom::CountingBloom;
pub use config::{HopsConfig, TimingConfig};
pub use models::{fig10_invocations, figure10_bars, replay, PersistModel, Replayer, RuntimeReport};
pub use persist_buffer::{BadThread, HopsSystem};
