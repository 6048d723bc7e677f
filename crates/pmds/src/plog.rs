//! Persistent append-only log.

use crate::{header, DsError};
use memsim::Machine;
use pmem::AddrRange;
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x504c_4f47_2121_2121; // "PLOG!!!!"

/// A bounded persistent append log in a caller-provided region.
///
/// Echo's clients "submit updates to key-value pairs, which are stored
/// in a persistent log" before the master folds them into the KVS
/// (Section 3.2.1); this is that structure. It is also the
/// "append-mostly log" the paper gives as an example of a structure
/// that does not need full transactional atomicity (Section 2) — a
/// record becomes visible only when the persistent `len` field is
/// advanced past it, so a crash mid-append loses at most the record
/// being written.
///
/// Layout: header line (`magic`, `len`) then packed records
/// `{len u32, data…}` 8-byte aligned.
#[derive(Debug, Clone, Copy)]
pub struct PLog {
    region: AddrRange,
}

impl PLog {
    /// Create a fresh log in `region`, inside an open transaction.
    ///
    /// # Errors
    ///
    /// Engine errors.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one header line.
    pub fn create<E: TxMem>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        region: AddrRange,
    ) -> Result<PLog, DsError> {
        assert!(region.len >= 128, "log region too small");
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, 0, Category::AppMeta)?;
        Ok(PLog { region })
    }

    /// Re-attach after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `region` does not hold a log.
    pub fn open(m: &mut Machine, tid: Tid, region: AddrRange) -> Result<PLog, DsError> {
        header::open(m, tid, region.base, MAGIC)?;
        Ok(PLog { region })
    }

    /// Current payload bytes used (not counting the header).
    pub fn used(&self, m: &mut Machine, tid: Tid) -> u64 {
        m.load_u64(tid, self.region.base + 8)
    }

    /// Append a record. Returns [`DsError::TooLarge`] when the log is
    /// full (the caller decides whether to truncate or fail).
    ///
    /// # Errors
    ///
    /// [`DsError::TooLarge`] when full; engine errors otherwise.
    pub fn append<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        data: &[u8],
    ) -> Result<(), DsError> {
        // Read through the engine: under redo logging the length
        // updated earlier in this transaction is still buffered.
        let used = eng.tx_read_u64(m, tid, self.region.base + 8);
        let rec = 4 + data.len() as u64;
        let rec_padded = rec.div_ceil(8) * 8;
        if 64 + used + rec_padded > self.region.len {
            return Err(DsError::TooLarge { len: data.len() });
        }
        let at = self.region.base + 64 + used;
        eng.tx_write_u32(m, tid, at, data.len() as u32, Category::UserData)?;
        eng.tx_write(m, tid, at + 4, data, Category::UserData)?;
        // Publishing the new length is what commits the record.
        eng.tx_write_u64(
            m,
            tid,
            self.region.base + 8,
            used + rec_padded,
            Category::AppMeta,
        )?;
        Ok(())
    }

    /// Read every record (non-transactionally).
    pub fn records(&self, m: &mut Machine, tid: Tid) -> Vec<Vec<u8>> {
        let used = self.used(m, tid);
        let mut out = Vec::new();
        let mut off = 0u64;
        while off < used {
            let at = self.region.base + 64 + off;
            let len = m.load_u32(tid, at) as u64;
            out.push(m.load_vec(tid, at + 4, len as usize));
            off += (4 + len).div_ceil(8) * 8;
        }
        out
    }

    /// Reset the log to empty (a single persistent length write).
    ///
    /// # Errors
    ///
    /// Engine errors.
    pub fn truncate<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
    ) -> Result<(), DsError> {
        eng.tx_write_u64(m, tid, self.region.base + 8, 0, Category::AppMeta)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};
    use pmtx::RedoTxEngine;

    const TID: Tid = Tid(0);

    fn setup() -> (Machine, RedoTxEngine, PLog) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let logs = AddrRange::new(pm.base, 1 << 20);
        let mut eng = RedoTxEngine::format(&mut m, logs, 4);
        let region = AddrRange::new(pm.base + (1 << 20), 4096);
        eng.begin(&mut m, TID).unwrap();
        let plog = PLog::create(&mut m, &mut eng, TID, region).unwrap();
        eng.commit(&mut m, TID).unwrap();
        (m, eng, plog)
    }

    #[test]
    fn append_and_read_back() {
        let (mut m, mut eng, plog) = setup();
        eng.begin(&mut m, TID).unwrap();
        plog.append(&mut m, &mut eng, TID, b"first").unwrap();
        plog.append(&mut m, &mut eng, TID, b"second-record")
            .unwrap();
        eng.commit(&mut m, TID).unwrap();
        assert_eq!(
            plog.records(&mut m, TID),
            vec![b"first".to_vec(), b"second-record".to_vec()]
        );
    }

    #[test]
    fn truncate_empties() {
        let (mut m, mut eng, plog) = setup();
        eng.begin(&mut m, TID).unwrap();
        plog.append(&mut m, &mut eng, TID, b"x").unwrap();
        plog.truncate(&mut m, &mut eng, TID).unwrap();
        eng.commit(&mut m, TID).unwrap();
        assert!(plog.records(&mut m, TID).is_empty());
        assert_eq!(plog.used(&mut m, TID), 0);
    }

    #[test]
    fn full_log_reports_too_large() {
        let (mut m, mut eng, plog) = setup();
        eng.begin(&mut m, TID).unwrap();
        let mut appended = 0;
        loop {
            match plog.append(&mut m, &mut eng, TID, &[0u8; 200]) {
                Ok(()) => appended += 1,
                Err(DsError::TooLarge { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        eng.commit(&mut m, TID).unwrap();
        assert!((10..30).contains(&appended));
    }

    #[test]
    fn committed_records_survive_crash() {
        let (mut m, mut eng, plog) = setup();
        let region = plog.region;
        eng.begin(&mut m, TID).unwrap();
        plog.append(&mut m, &mut eng, TID, b"durable").unwrap();
        eng.commit(&mut m, TID).unwrap();
        // Uncommitted append:
        eng.begin(&mut m, TID).unwrap();
        plog.append(&mut m, &mut eng, TID, b"lost").unwrap();
        let img = m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let pm = m2.config().map.pm;
        let _ = RedoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 1 << 20), 4);
        let plog2 = PLog::open(&mut m2, TID, region).unwrap();
        assert_eq!(plog2.records(&mut m2, TID), vec![b"durable".to_vec()]);
    }

    #[test]
    fn open_rejects_garbage() {
        let (mut m, _eng, _plog) = setup();
        let pm = m.config().map.pm;
        assert!(matches!(
            PLog::open(&mut m, TID, AddrRange::new(pm.base + (2 << 20), 4096)),
            Err(DsError::BadHeader { .. })
        ));
    }
}
