//! Durable-transaction runtimes for the WHISPER reproduction.
//!
//! WHISPER's library-persistence applications run over two transaction
//! systems whose logging disciplines the paper contrasts throughout
//! Section 5:
//!
//! * [`RedoTxEngine`] — Mnemosyne-style. "Mnemosyne achieves consistency
//!   of data structures via a redo log. It updates the log using
//!   non-temporal instructions (NTI) ordered by an sfence. It saves
//!   modified data to a temporary location, and at transaction commit
//!   uses cacheable stores to update data structures followed by
//!   flushing modified cache lines to persist updates." (Section 3.1.)
//!   Redo logging permits batching — all log entries in one epoch, all
//!   data writebacks in another — which is why Mnemosyne apps show
//!   fewer, larger epochs than NVML apps in Figure 4.
//!
//! * [`UndoTxEngine`] — NVML-style. "NVML achieves consistency of data
//!   structures via an undo log. It uses cacheable stores/flushes to
//!   execute all log and data updates to PM." Undo entries "must be
//!   ordered before data writes to ensure the old value is available
//!   for recovery, and thus they fragment a transaction into a series
//!   of alternating epochs to write log entries and to update data"
//!   (Section 5.1) — the source of NVML's singleton-epoch dominance and
//!   ~1000 % write amplification.
//!
//! Both engines clear each log entry in its own epoch after commit,
//! which the paper calls out as a major singleton source ("Mnemosyne,
//! NVML and PMFS process or clear each log entry in its own epoch").
//! That is one logging pattern, so it is written once: the undo and
//! redo logs, [`MinTxEngine`]'s log and the `pmfs` metadata journal are
//! each a [`LogRing`] — the same descriptor line, status word and
//! 24-byte record header, differing only in their [`RingFormat`] —
//! and each protocol issues its own fences around the ring's stores.
//!
//! # Example
//!
//! ```
//! use memsim::{Machine, MachineConfig};
//! use pmem::AddrRange;
//! use pmtrace::{Category, Tid};
//! use pmtx::UndoTxEngine;
//!
//! let mut m = Machine::new(MachineConfig::asplos17());
//! let pm = m.config().map.pm;
//! let log = AddrRange::new(pm.base, 1 << 20);
//! let data = pm.base + (1 << 20);
//! let mut tx = UndoTxEngine::format(&mut m, log, 4);
//! let tid = Tid(0);
//! tx.begin(&mut m, tid)?;
//! tx.set(&mut m, tid, data, &7u64.to_le_bytes(), Category::UserData)?;
//! tx.commit(&mut m, tid)?;
//! assert!(m.is_durable(data, 8));
//! # Ok::<(), pmtx::TxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log;
mod mintx;
mod redo;
mod txmem;
mod undo;

pub use log::{LogRing, Record, RingFormat, TxStatus};
pub use mintx::{MinTxEngine, MIN_TX_MAX_DATA};
pub use redo::RedoTxEngine;
pub use txmem::TxMem;
pub use undo::UndoTxEngine;

/// How commit disposes of log entries.
///
/// The paper observes that Mnemosyne, NVML, and PMFS all "process or
/// clear each log entry in its own epoch", a major source of singleton
/// epochs, and suggests the fix: "this could be avoided without
/// compromising crash consistency by processing or clearing log
/// entries in a batch." Both engines support either policy; for an
/// 8-write undo transaction batching cuts 20 epochs to 13 (pinned by
/// the undo engine's `alternating_epoch_fragmentation` test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClearPolicy {
    /// One epoch per cleared entry — the behavior the paper measured.
    #[default]
    PerEntry,
    /// All entries cleared under a single ordering fence — the paper's
    /// suggested optimization.
    Batched,
}

/// Errors from the transaction engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// `begin` while this thread already has an open transaction.
    NestedTx,
    /// A data operation or `commit`/`abort` with no open transaction.
    NoTx,
    /// The per-thread log buffer cannot hold another entry.
    LogFull,
    /// A single write larger than the maximum loggable entry.
    EntryTooLarge {
        /// The offending length.
        len: usize,
    },
    /// A thread id outside the engine's formatted slot range — the
    /// engine was formatted for `threads` log slots and `tid` names
    /// none of them.
    BadTid {
        /// The offending thread id.
        tid: pmtrace::Tid,
        /// Slots the engine was formatted with.
        threads: u32,
    },
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::NestedTx => write!(f, "transaction already open on this thread"),
            TxError::NoTx => write!(f, "no open transaction on this thread"),
            TxError::LogFull => write!(f, "per-thread transaction log is full"),
            TxError::EntryTooLarge { len } => {
                write!(f, "write of {len} bytes exceeds the log entry limit")
            }
            TxError::BadTid { tid, threads } => {
                write!(f, "thread {tid} out of range (engine has {threads} slots)")
            }
        }
    }
}

impl std::error::Error for TxError {}

/// The validated per-thread slot index for `tid` in an engine formatted
/// with `slots` slots.
pub(crate) fn slot_of(tid: pmtrace::Tid, slots: usize) -> Result<usize, TxError> {
    let t = tid.0 as usize;
    if t < slots {
        Ok(t)
    } else {
        Err(TxError::BadTid {
            tid,
            threads: slots as u32,
        })
    }
}

/// Engines size their per-thread state from a caller-supplied count,
/// but the machine's [`memsim::MachineConfig::threads`] is the single
/// source of truth: a slot no machine thread can ever drive is a
/// configuration bug, caught at format/recover time rather than as an
/// index panic on first use.
///
/// # Panics
///
/// Panics when `threads` is zero or exceeds the machine's thread count.
pub(crate) fn check_engine_threads(m: &memsim::Machine, threads: u32) {
    assert!(
        threads >= 1 && threads <= m.config().threads,
        "engine thread count {threads} outside 1..={} (MachineConfig::threads)",
        m.config().threads
    );
}
