//! Persistent doubly-linked LRU list.

use crate::{header, DsError};
use memsim::Machine;
use pmalloc::PmAllocator;
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x504c_5255_4c49_5354; // "PLRULIST"
                                          // Node: prev u64, next u64, payload u64
const NODE_BYTES: u64 = 24;

/// A persistent doubly-linked list maintained in LRU order, as used by
/// the Mnemosyne-modified Memcached, whose object cache pairs "a hash
/// table and an LRU replacement policy" (Section 3.2.2) — with the
/// table and its bookkeeping moved into PM.
///
/// Each node carries an opaque `u64` payload (typically the PM address
/// of the cached item). The header holds `head` (most recent), `tail`
/// (least recent) and `count`.
#[derive(Debug, Clone, Copy)]
pub struct PLruList {
    base: Addr,
}

impl PLruList {
    /// Create a fresh list in `region`, inside an open transaction.
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
    ) -> Result<PLruList, DsError> {
        assert!(region.len >= 64, "LRU region too small");
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, 0, Category::AppMeta)?; // head
        eng.tx_write_u64(m, tid, region.base + 16, 0, Category::AppMeta)?; // tail
        eng.tx_write_u64(m, tid, region.base + 24, 0, Category::AppMeta)?; // count
        Ok(PLruList { base: region.base })
    }

    /// Re-attach after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `base` does not hold a list header.
    pub fn open(m: &mut Machine, tid: Tid, base: Addr) -> Result<PLruList, DsError> {
        header::open(m, tid, base, MAGIC)?;
        Ok(PLruList { base })
    }

    /// Number of nodes.
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        m.load_u64(tid, self.base + 24)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self, m: &mut Machine, tid: Tid) -> bool {
        self.len(m, tid) == 0
    }

    fn set_count<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        delta: i64,
    ) -> Result<(), DsError> {
        let n = eng.tx_read_u64(m, tid, self.base + 24);
        eng.tx_write_u64(
            m,
            tid,
            self.base + 24,
            n.checked_add_signed(delta).expect("count in range"),
            Category::AppMeta,
        )?;
        Ok(())
    }

    /// Insert `payload` at the front (most-recently-used). Returns the
    /// node address for later `touch`/`remove`.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    pub fn push_front<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        payload: u64,
    ) -> Result<Addr, DsError> {
        let mut w = memsim::PmWriter::new(tid);
        let node = alloc.alloc(m, &mut w, NODE_BYTES)?;
        let head = eng.tx_read_u64(m, tid, self.base + 8);
        eng.tx_write_u64(m, tid, node, 0, Category::UserData)?; // prev
        eng.tx_write_u64(m, tid, node + 8, head, Category::UserData)?; // next
        eng.tx_write_u64(m, tid, node + 16, payload, Category::UserData)?;
        if head != 0 {
            eng.tx_write_u64(m, tid, head, node, Category::UserData)?; // head.prev
        } else {
            eng.tx_write_u64(m, tid, self.base + 16, node, Category::AppMeta)?; // tail
        }
        eng.tx_write_u64(m, tid, self.base + 8, node, Category::AppMeta)?; // head
        self.set_count(m, eng, tid, 1)?;
        Ok(node)
    }

    fn unlink<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        node: Addr,
    ) -> Result<u64, DsError> {
        let prev = eng.tx_read_u64(m, tid, node);
        let next = eng.tx_read_u64(m, tid, node + 8);
        let payload = eng.tx_read_u64(m, tid, node + 16);
        if prev != 0 {
            eng.tx_write_u64(m, tid, prev + 8, next, Category::UserData)?;
        } else {
            eng.tx_write_u64(m, tid, self.base + 8, next, Category::AppMeta)?;
        }
        if next != 0 {
            eng.tx_write_u64(m, tid, next, prev, Category::UserData)?;
        } else {
            eng.tx_write_u64(m, tid, self.base + 16, prev, Category::AppMeta)?;
        }
        Ok(payload)
    }

    /// Move an existing node to the front (a cache hit).
    ///
    /// # Errors
    ///
    /// Engine errors.
    pub fn touch<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        node: Addr,
    ) -> Result<(), DsError> {
        let head = eng.tx_read_u64(m, tid, self.base + 8);
        if head == node {
            return Ok(());
        }
        self.unlink(m, eng, tid, node)?;
        let head = eng.tx_read_u64(m, tid, self.base + 8);
        eng.tx_write_u64(m, tid, node, 0, Category::UserData)?;
        eng.tx_write_u64(m, tid, node + 8, head, Category::UserData)?;
        if head != 0 {
            eng.tx_write_u64(m, tid, head, node, Category::UserData)?;
        } else {
            eng.tx_write_u64(m, tid, self.base + 16, node, Category::AppMeta)?;
        }
        eng.tx_write_u64(m, tid, self.base + 8, node, Category::AppMeta)?;
        Ok(())
    }

    /// Evict the least-recently-used node; returns its payload.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    pub fn pop_back<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
    ) -> Result<Option<u64>, DsError> {
        let tail = eng.tx_read_u64(m, tid, self.base + 16);
        if tail == 0 {
            return Ok(None);
        }
        let payload = self.unlink(m, eng, tid, tail)?;
        self.set_count(m, eng, tid, -1)?;
        let mut w = memsim::PmWriter::new(tid);
        alloc.free(m, &mut w, tail)?;
        Ok(Some(payload))
    }

    /// Remove a specific node; returns its payload.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    pub fn remove<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        node: Addr,
    ) -> Result<u64, DsError> {
        let payload = self.unlink(m, eng, tid, node)?;
        self.set_count(m, eng, tid, -1)?;
        let mut w = memsim::PmWriter::new(tid);
        alloc.free(m, &mut w, node)?;
        Ok(payload)
    }

    /// Payloads from most- to least-recently-used (non-transactional).
    pub fn payloads(&self, m: &mut Machine, tid: Tid) -> Vec<u64> {
        let mut out = Vec::new();
        let mut node = m.load_u64(tid, self.base + 8);
        while node != 0 {
            out.push(m.load_u64(tid, node + 16));
            node = m.load_u64(tid, node + 8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;
    use pmalloc::SlabBitmapAlloc;
    use pmtx::UndoTxEngine;

    const TID: Tid = Tid(0);

    struct Fix {
        m: Machine,
        eng: UndoTxEngine,
        alloc: SlabBitmapAlloc,
        lru: PLruList,
    }

    fn setup() -> Fix {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let mut eng = UndoTxEngine::format(&mut m, AddrRange::new(pm.base, 1 << 20), 4);
        let mut w = memsim::PmWriter::new(TID);
        let alloc =
            SlabBitmapAlloc::format(&mut m, &mut w, AddrRange::new(pm.base + (1 << 20), 4 << 20));
        eng.begin(&mut m, TID).unwrap();
        let lru = PLruList::create(
            &mut m,
            &mut eng,
            TID,
            AddrRange::new(pm.base + (6 << 20), 64),
        )
        .unwrap();
        eng.commit(&mut m, TID).unwrap();
        Fix { m, eng, alloc, lru }
    }

    fn tx<T>(fx: &mut Fix, f: impl FnOnce(&mut Fix) -> T) -> T {
        fx.eng.begin(&mut fx.m, TID).unwrap();
        let r = f(fx);
        fx.eng.commit(&mut fx.m, TID).unwrap();
        r
    }

    #[test]
    fn push_order_is_mru_first() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            for p in [1u64, 2, 3] {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap();
            }
        });
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![3, 2, 1]);
        assert_eq!(fx.lru.len(&mut fx.m, TID), 3);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut fx = setup();
        let nodes = tx(&mut fx, |fx| {
            [1u64, 2, 3].map(|p| {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap()
            })
        });
        tx(&mut fx, |fx| {
            fx.lru.touch(&mut fx.m, &mut fx.eng, TID, nodes[0]).unwrap(); // payload 1
        });
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![1, 3, 2]);
    }

    #[test]
    fn touch_of_head_is_noop() {
        let mut fx = setup();
        let n = tx(&mut fx, |fx| {
            fx.lru
                .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 9)
                .unwrap()
        });
        tx(&mut fx, |fx| {
            fx.lru.touch(&mut fx.m, &mut fx.eng, TID, n).unwrap();
        });
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![9]);
    }

    #[test]
    fn pop_back_evicts_lru() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            for p in [1u64, 2, 3] {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap();
            }
        });
        let evicted = tx(&mut fx, |fx| {
            fx.lru
                .pop_back(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc)
                .unwrap()
        });
        assert_eq!(evicted, Some(1));
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![3, 2]);
        assert_eq!(fx.lru.len(&mut fx.m, TID), 2);
    }

    #[test]
    fn pop_back_empty_is_none() {
        let mut fx = setup();
        let evicted = tx(&mut fx, |fx| {
            fx.lru
                .pop_back(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc)
                .unwrap()
        });
        assert_eq!(evicted, None);
    }

    #[test]
    fn remove_middle_node() {
        let mut fx = setup();
        let nodes = tx(&mut fx, |fx| {
            [1u64, 2, 3].map(|p| {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap()
            })
        });
        let payload = tx(&mut fx, |fx| {
            fx.lru
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, nodes[1])
                .unwrap()
        });
        assert_eq!(payload, 2);
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![3, 1]);
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            for p in 0..5u64 {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap();
            }
            while fx
                .lru
                .pop_back(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc)
                .unwrap()
                .is_some()
            {}
        });
        assert!(fx.lru.is_empty(&mut fx.m, TID));
        tx(&mut fx, |fx| {
            fx.lru
                .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 42)
                .unwrap();
        });
        assert_eq!(fx.lru.payloads(&mut fx.m, TID), vec![42]);
    }

    #[test]
    fn survives_crash() {
        let mut fx = setup();
        let base = fx.lru.base;
        tx(&mut fx, |fx| {
            for p in [10u64, 20] {
                fx.lru
                    .push_front(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, p)
                    .unwrap();
            }
        });
        let img = fx.m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let pm = m2.config().map.pm;
        let _ = UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 1 << 20), 4);
        let lru2 = PLruList::open(&mut m2, TID, base).unwrap();
        assert_eq!(lru2.payloads(&mut m2, TID), vec![20, 10]);
    }
}
