//! The WHISPER trace framework.
//!
//! WHISPER instruments every mode of updating PM with `PM_*` macros that
//! "emit a trace of PM updates and fences for offline analysis"
//! (Section 4, Figure 2). This crate is the Rust equivalent: a typed
//! event stream ([`Event`]/[`TraceBuffer`]) recorded by the `memsim`
//! machine as applications execute, a binary archive ([`codec`]) that
//! stores each event as the same 16-byte record the program holds, and
//! the complete offline analysis of Section 5:
//!
//! * epoch segmentation — stores between two fences form an [`Epoch`]
//! * epoch sizes in unique 64 B lines (Figure 4) and singleton byte
//!   sizes (Consequence 4)
//! * epochs per durable transaction (Figure 3)
//! * self- and cross-thread write-after-write dependencies inside a
//!   50 µs window (Figure 5)
//! * write amplification by write category (Section 5.2)
//! * the non-temporal store fraction (Consequence 10)
//! * epochs per second (Table 1)
//!
//! # Example
//!
//! ```
//! use pmtrace::{Category, TraceBuffer, Tid, analysis};
//!
//! let mut t = TraceBuffer::new();
//! let tid = Tid(0);
//! t.tx_begin(tid, 1, 0);
//! t.pm_store(tid, 0x1000, 8, false, Category::UserData, 10);
//! t.fence(tid, 20);
//! t.tx_end(tid, 1, 30);
//! let epochs = analysis::split_epochs(t.events());
//! assert_eq!(epochs.len(), 1);
//! assert_eq!(epochs[0].unique_lines(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod buffer;
pub mod codec;
mod event;
pub mod transform;

pub use analysis::Epoch;
pub use buffer::TraceBuffer;
pub use codec::{decode_events, encode_events, CodecError};
pub use event::{Category, Event, EventKind, Tid, TxId};
pub use transform::elide_indices;
