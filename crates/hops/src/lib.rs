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
//! The crate holds one model of that hardware and one client of it:
//!
//! * [`PersistBuffer`] — the persist buffers under Buffered Epoch
//!   Persistency: run-length entries per thread, epoch stamps,
//!   dependency pointers captured when a thread writes a line another
//!   still buffers, dependency-ordered retirement, and a crash model in
//!   which each thread's durable state is an epoch *prefix*. This is
//!   what the paper's Table 2 and the worked `mov/ofence/mov/dfence`
//!   example describe, and the one place that decides when a buffered
//!   line is durable.
//! * [`models`] — a trace-replay *timing* model that re-prices a
//!   recorded WHISPER trace under the five configurations of
//!   Figure 10: x86-64 with durability at the NVM device, x86-64 with a
//!   persistent write queue (PWQ) at the memory controller, HOPS(NVM),
//!   HOPS(PWQ), and a non-crash-consistent IDEAL. The two HOPS
//!   configurations step a [`PersistBuffer`].
//!
//! # Example
//!
//! The paper's worked example, `mov A,10; ofence; mov A,20; dfence`, as
//! a four-event trace stepped through a HOPS replayer:
//!
//! ```
//! use hops::{HopsConfig, PersistModel, Replayer, TimingConfig};
//! use pmem::Line;
//! use pmtrace::{Category, Tid, TraceBuffer};
//!
//! let t0 = Tid(0);
//! let mut trace = TraceBuffer::new();
//! trace.pm_store(t0, 0x100, 8, false, Category::UserData, 1); // A = 10
//! trace.fence(t0, 2); // ofence: cheap, local
//! trace.pm_store(t0, 0x100, 8, false, Category::UserData, 3); // A = 20
//! trace.dfence(t0, 4);
//! let events = trace.into_events();
//!
//! let mut hops = Replayer::new(
//!     &TimingConfig::default(),
//!     &HopsConfig::default(),
//!     PersistModel::HopsNvm,
//! );
//! for ev in &events[..3] {
//!     hops.step(ev);
//! }
//! // Two versions of A are buffered at once, one per epoch (handle 0
//! // is the first thread the replayer saw).
//! let pb = hops.buffer();
//! assert_eq!(pb.versions(0, Line::containing(0x100)), 2);
//! assert_eq!(pb.entries().map(|(_, e)| e.epoch).collect::<Vec<_>>(), [1, 2]);
//! assert_eq!(pb.retired(), 0, "nothing durable yet");
//!
//! hops.step(&events[3]); // dfence: retires 10, then 20
//! assert_eq!((hops.buffer().len(0), hops.buffer().retired()), (0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod models;
mod persist_buffer;

pub use config::{HopsConfig, TimingConfig};
pub use models::{fig10_invocations, figure10_bars, replay, PersistModel, Replayer, RuntimeReport};
pub use persist_buffer::{Entry, PersistBuffer};
