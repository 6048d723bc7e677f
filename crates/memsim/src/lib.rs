//! Simulated CPU memory system for the WHISPER/HOPS reproduction.
//!
//! This crate models the part of the machine the paper's analysis
//! depends on: a writeback cache hierarchy in front of DRAM and PM, the
//! x86-64 persistence instructions (`clwb`/`clflushopt`, non-temporal
//! stores, `sfence`), write-combining buffers, and a global clock — the
//! substrate on which the ten WHISPER applications run and from which
//! the `pmtrace` event stream is recorded.
//!
//! # Design: one copy of PM — the media plus an overlay
//!
//! The simulator separates two concerns:
//!
//! * **Current contents** are always up to date: a store is
//!   immediately visible to subsequent loads from any thread.
//!   Application logic is therefore always correct, independent of the
//!   cache model.
//! * **Durability state** tracks, per 64 B line of PM, whether the
//!   latest contents would survive a power failure. A cacheable PM store
//!   leaves its line *dirty in cache* (volatile); `clwb` moves a
//!   snapshot into the *flush pending* set; `sfence` makes pending
//!   snapshots and drained write-combining entries *durable*. Dirty
//!   lines may also become durable spontaneously via capacity eviction
//!   — exactly the paper's premise that "write-back processor caches can
//!   re-order updates to PM" (Section 2).
//!
//! PM is stored once. The media ([`pmem::PmDevice`]) holds what would
//! survive a crash, and an *overlay* holds the lines whose current bytes
//! differ from it: a load reads the overlay line when there is one and
//! the media line otherwise. A line enters the overlay when a store
//! first makes it differ and leaves it when a write to the media (a
//! fence, an eviction, a write-combining drain) makes the two equal
//! again. So the overlay holds only lines that are dirty in a cache,
//! flush-pending, held in a write-combining buffer, or re-stored since
//! the snapshot that last reached the media — the lines a crash could
//! lose ([`Machine::undurable_lines`] counts them).
//!
//! A crash ([`Machine::crash`]) returns a [`pmem::PmImage`] containing
//! everything durable plus — under [`CrashSpec::Adversarial`] — an
//! arbitrary seeded subset of the in-flight writes, which is what makes
//! recovery code meaningfully testable.
//!
//! # Example
//!
//! ```
//! use memsim::{Machine, MachineConfig, CrashSpec};
//! use pmtrace::{Category, Tid};
//!
//! let mut m = Machine::new(MachineConfig::asplos17());
//! let tid = Tid(0);
//! let a = m.config().map.pm.base;
//! m.store(tid, a, b"hello", Category::UserData);
//! m.clwb(tid, a);
//! m.sfence(tid);
//! let img = m.crash(CrashSpec::DropVolatile);
//! assert_eq!(img.read_vec(a, 5), b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod crash;
mod elide;
mod machine;
mod overlay;
mod sched;
mod stats;
mod wcb;
mod writer;

pub use config::{pipelined_ns, Latency, MachineConfig, SIM_CLOCK_HZ, SIM_NS_PER_SEC};
pub use crash::{CrashCounter, CrashPlan, CrashSpec, CrashState};
pub use elide::{ElidePlan, ElideStats};
pub use machine::Machine;
pub use sched::{Scheduler, TidError};
pub use stats::MemStats;
pub use writer::PmWriter;
