//! The one per-thread transaction table the three engines share.
//!
//! Each thread owns a [`LogRing`] and, while a transaction is open, its
//! [`TxId`] and the engine's own per-transaction state. The table owns
//! everything that is not protocol: the tid check ([`TxError::BadTid`]),
//! [`TxError::NestedTx`] and [`TxError::NoTx`], the fresh id with its
//! `TxBegin`/`TxEnd` markers, and the read-your-writes overlay of a
//! deferred protocol's buffered writes. An engine states only what it
//! persists at begin, write, commit and abort.

use memsim::Machine;
use pmem::Addr;
use pmtrace::{Category, Tid, TxId};

use crate::{LogRing, TxError};

/// One thread's open transaction.
#[derive(Debug, Clone)]
pub(crate) struct Open<S> {
    id: TxId,
    /// Buffered writes, in program order: `(target, data, category)`.
    /// A deferred protocol applies them at commit; undo writes in place
    /// and leaves this empty.
    pub(crate) writes: Vec<(Addr, Vec<u8>, Category)>,
    /// The engine's own per-transaction state.
    pub(crate) state: S,
}

/// Per-thread log rings and open transactions.
#[derive(Debug, Clone)]
pub(crate) struct TxTable<S> {
    rings: Vec<LogRing>,
    open: Vec<Option<Open<S>>>,
}

impl<S> TxTable<S> {
    /// A table over one ring per thread, with nothing open.
    pub(crate) fn new(rings: Vec<LogRing>) -> TxTable<S> {
        let open = rings.iter().map(|_| None).collect();
        TxTable { rings, open }
    }

    /// The validated slot index for `tid`.
    fn slot(&self, tid: Tid) -> Result<usize, TxError> {
        let t = tid.0 as usize;
        if t < self.open.len() {
            Ok(t)
        } else {
            Err(TxError::BadTid {
                tid,
                threads: self.open.len() as u32,
            })
        }
    }

    /// Whether `tid` has an open transaction (false for an out-of-range
    /// `tid`, which can never have one).
    pub(crate) fn in_tx(&self, tid: Tid) -> bool {
        self.open.get(tid.0 as usize).is_some_and(Option::is_some)
    }

    /// Open a transaction on `tid` holding `state`: a fresh id and its
    /// `TxBegin` marker. Returns the thread's ring, for whatever the
    /// protocol persists at begin.
    ///
    /// # Errors
    ///
    /// [`TxError::BadTid`]; [`TxError::NestedTx`] if one is open.
    pub(crate) fn begin(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        state: S,
    ) -> Result<&mut LogRing, TxError> {
        let t = self.slot(tid)?;
        if self.open[t].is_some() {
            return Err(TxError::NestedTx);
        }
        let id = m.fresh_tx_id(tid);
        m.tx_begin(tid, id);
        self.open[t] = Some(Open {
            id,
            writes: Vec::new(),
            state,
        });
        Ok(&mut self.rings[t])
    }

    /// The open transaction on `tid`, and the thread's ring.
    ///
    /// # Errors
    ///
    /// [`TxError::BadTid`]; [`TxError::NoTx`] if none is open.
    pub(crate) fn open(&mut self, tid: Tid) -> Result<(&mut LogRing, &mut Open<S>), TxError> {
        let t = self.slot(tid)?;
        let open = self.open[t].as_mut().ok_or(TxError::NoTx)?;
        Ok((&mut self.rings[t], open))
    }

    /// Close the open transaction on `tid`: `finish` runs the commit or
    /// abort protocol over the thread's ring, then the `TxEnd` marker.
    ///
    /// # Errors
    ///
    /// [`TxError::BadTid`]; [`TxError::NoTx`] if none is open.
    pub(crate) fn end(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        finish: impl FnOnce(&mut Machine, &mut LogRing, Open<S>),
    ) -> Result<(), TxError> {
        let t = self.slot(tid)?;
        let open = self.open[t].take().ok_or(TxError::NoTx)?;
        let id = open.id;
        finish(m, &mut self.rings[t], open);
        m.tx_end(tid, id);
        Ok(())
    }

    /// A read of `buf.len()` bytes at `addr` into `buf`, with `tid`'s
    /// buffered writes overlaid — how a deferred protocol reads its own
    /// writes.
    pub(crate) fn read_through(&self, m: &mut Machine, tid: Tid, addr: Addr, buf: &mut [u8]) {
        // A tid without a machine slot cannot account a load (and can
        // never hold buffered writes) — degrade to zeroes instead of
        // panicking deep in the per-thread dirty state.
        match m.validate_tid(tid) {
            Ok(()) => m.load(tid, addr, buf),
            Err(_) => buf.fill(0),
        }
        let Some(Some(open)) = self.open.get(tid.0 as usize) else {
            return;
        };
        let (rs, re) = (addr, addr + buf.len() as u64);
        for (waddr, wdata, _) in &open.writes {
            let (ws, we) = (*waddr, *waddr + wdata.len() as u64);
            if ws < re && rs < we {
                let lo = ws.max(rs);
                let hi = we.min(re);
                buf[(lo - rs) as usize..(hi - rs) as usize]
                    .copy_from_slice(&wdata[(lo - ws) as usize..(hi - ws) as usize]);
            }
        }
    }
}
