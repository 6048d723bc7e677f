//! Engine-independent transactional memory access.

use crate::TxError;
use memsim::Machine;
use pmem::Addr;
use pmtrace::{Category, Tid};

/// Uniform read/write interface over an open transaction, implemented
/// by all three engines so persistent data structures (the `pmds`
/// crate) can be written once and mounted over any of them — the way
/// WHISPER runs hash tables over NVML and red-black trees over
/// Mnemosyne.
///
/// [`TxMem::tx_write`] *is* each engine's transactional write: the
/// engines have no other. Reads have read-your-writes semantics: an
/// undo engine writes in place, a redo or 3-epoch engine overlays its
/// buffered writes. Every read is [`TxMem::tx_read_into`] a caller's
/// buffer; the fixed-width readers use stack arrays, so they allocate
/// nothing.
pub trait TxMem {
    /// Transactional read of `buf.len()` bytes at `addr` into `buf`.
    fn tx_read_into(&mut self, m: &mut Machine, tid: Tid, addr: Addr, buf: &mut [u8]);

    /// Transactional read of `len` bytes into a fresh vector.
    fn tx_read(&mut self, m: &mut Machine, tid: Tid, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.tx_read_into(m, tid, addr, &mut v);
        v
    }

    /// Transactional write of `bytes` at `addr`: the engine's protocol
    /// step for one write.
    ///
    /// # Errors
    ///
    /// [`TxError::NoTx`] without an open transaction;
    /// [`TxError::BadTid`] for a thread the engine has no slot for;
    /// [`TxError::EntryTooLarge`]/[`TxError::LogFull`] on log capacity.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RedoTxEngine, UndoTxEngine};
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
