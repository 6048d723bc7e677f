//! Engine-independent transactional memory access.

use crate::{TxError, UndoTxEngine};
use memsim::Machine;
use pmem::Addr;
use pmtrace::{Category, Tid};

/// Uniform read/write interface over an open transaction, implemented
/// by both engines so persistent data structures (the `pmds` crate) can
/// be written once and mounted over either library — the way WHISPER
/// runs hash tables over NVML and red-black trees over Mnemosyne.
///
/// Reads have read-your-writes semantics: an undo engine writes in
/// place, a redo engine overlays its volatile buffer. Every read is
/// [`TxMem::tx_read_into`] a caller's buffer; the fixed-width readers
/// use stack arrays, so they allocate nothing.
pub trait TxMem {
    /// Transactional read of `buf.len()` bytes at `addr` into `buf`.
    fn tx_read_into(&mut self, m: &mut Machine, tid: Tid, addr: Addr, buf: &mut [u8]);

    /// Transactional read of `len` bytes into a fresh vector.
    fn tx_read(&mut self, m: &mut Machine, tid: Tid, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.tx_read_into(m, tid, addr, &mut v);
        v
    }

    /// Transactional write.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`TxError`]s (no open transaction, log
    /// capacity).
    fn tx_write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError>;

    /// Transactional little-endian `u64` read.
    fn tx_read_u64(&mut self, m: &mut Machine, tid: Tid, addr: Addr) -> u64 {
        let mut b = [0; 8];
        self.tx_read_into(m, tid, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Transactional little-endian `u64` write.
    ///
    /// # Errors
    ///
    /// As for [`TxMem::tx_write`].
    fn tx_write_u64(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        val: u64,
        cat: Category,
    ) -> Result<(), TxError> {
        self.tx_write(m, tid, addr, &val.to_le_bytes(), cat)
    }

    /// Transactional little-endian `u32` read.
    fn tx_read_u32(&mut self, m: &mut Machine, tid: Tid, addr: Addr) -> u32 {
        let mut b = [0; 4];
        self.tx_read_into(m, tid, addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Transactional little-endian `u32` write.
    ///
    /// # Errors
    ///
    /// As for [`TxMem::tx_write`].
    fn tx_write_u32(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        val: u32,
        cat: Category,
    ) -> Result<(), TxError> {
        self.tx_write(m, tid, addr, &val.to_le_bytes(), cat)
    }
}

/// A read of `buf.len()` bytes at `addr` into `buf` with `writes` — a
/// transaction's buffered `(target, data, category)` writes, in program
/// order — overlaid, as the redo and 3-epoch engines read their own
/// writes.
pub(crate) fn read_through(
    m: &mut Machine,
    tid: Tid,
    addr: Addr,
    buf: &mut [u8],
    writes: &[(Addr, Vec<u8>, Category)],
) {
    // A tid without a machine slot cannot account a load (and can
    // never hold buffered writes) — degrade to zeroes instead of
    // panicking deep in the per-thread dirty state.
    match m.validate_tid(tid) {
        Ok(()) => m.load(tid, addr, buf),
        Err(_) => buf.fill(0),
    }
    let (rs, re) = (addr, addr + buf.len() as u64);
    for (waddr, wdata, _) in writes {
        let (ws, we) = (*waddr, *waddr + wdata.len() as u64);
        if ws < re && rs < we {
            let lo = ws.max(rs);
            let hi = we.min(re);
            buf[(lo - rs) as usize..(hi - rs) as usize]
                .copy_from_slice(&wdata[(lo - ws) as usize..(hi - ws) as usize]);
        }
    }
}

impl TxMem for UndoTxEngine {
    fn tx_read_into(&mut self, m: &mut Machine, tid: Tid, addr: Addr, buf: &mut [u8]) {
        // Undo logging writes in place; plain loads are current.
        m.load(tid, addr, buf);
    }

    fn tx_write(
        &mut self,
        m: &mut Machine,
        tid: Tid,
        addr: Addr,
        bytes: &[u8],
        cat: Category,
    ) -> Result<(), TxError> {
        self.set(m, tid, addr, bytes, cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RedoTxEngine;
    use memsim::MachineConfig;
    use pmem::AddrRange;

    fn setup() -> (Machine, Addr) {
        let m = Machine::new(MachineConfig::asplos17());
        let data = m.config().map.pm.base + (1 << 20);
        (m, data)
    }

    #[test]
    fn both_engines_read_their_writes() {
        let (mut m, data) = setup();
        let log = AddrRange::new(m.config().map.pm.base, 1 << 20);
        let tid = Tid(0);

        let mut undo = UndoTxEngine::format(&mut m, log, 4);
        undo.begin(&mut m, tid).unwrap();
        undo.tx_write_u64(&mut m, tid, data, 11, Category::UserData)
            .unwrap();
        assert_eq!(undo.tx_read_u64(&mut m, tid, data), 11);
        undo.commit(&mut m, tid).unwrap();

        let (mut m, data) = setup();
        let log = AddrRange::new(m.config().map.pm.base, 1 << 20);
        let mut redo = RedoTxEngine::format(&mut m, log, 4);
        redo.begin(&mut m, tid).unwrap();
        redo.tx_write_u64(&mut m, tid, data, 22, Category::UserData)
            .unwrap();
        assert_eq!(redo.tx_read_u64(&mut m, tid, data), 22);
        redo.commit(&mut m, tid).unwrap();
        assert_eq!(m.load_u64(tid, data), 22);
    }

    #[test]
    fn u32_helpers() {
        let (mut m, data) = setup();
        let log = AddrRange::new(m.config().map.pm.base, 1 << 20);
        let tid = Tid(0);
        let mut undo = UndoTxEngine::format(&mut m, log, 4);
        undo.begin(&mut m, tid).unwrap();
        undo.tx_write_u32(&mut m, tid, data, 0xdead_beef, Category::UserData)
            .unwrap();
        assert_eq!(undo.tx_read_u32(&mut m, tid, data), 0xdead_beef);
        undo.commit(&mut m, tid).unwrap();
    }
}
