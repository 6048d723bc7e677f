//! Persistent chained hash table.

use crate::header::{self, HEADER_BYTES};
use crate::{fnv1a, DsError};
use memsim::Machine;
use pmalloc::PmAllocator;
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x5048_4153_484d_4150; // "PHASHMAP"
const NODE_HDR: u64 = 16; // next u64, key_len u32, val_len u32
/// The bucket array follows the header line and its count shards.
const BUCKETS_OFF: u64 = HEADER_BYTES;
/// Largest key+value payload an inline node can hold (bounded by the
/// transaction engines' fixed log-record payload).
pub(crate) const MAX_ITEM: usize = 400;

/// A persistent hash table with chaining, the workhorse structure of
/// WHISPER: Redis "stores frequently accessed key-value pairs in a hash
/// table and resolves collisions through chaining", Memcached "stores
/// objects in a hash table", Echo's master store is "a persistent hash
/// table", and the NVML `hashmap` micro-benchmark is one too.
///
/// Layout: a header line (`magic`, `nbuckets`, `count`) followed by the
/// bucket pointer array, in a caller-provided PM region; nodes
/// (`next`, key, value inline) come from a persistent allocator. All
/// mutations go through an open transaction on the caller's engine.
#[derive(Debug, Clone, Copy)]
pub struct PHashMap {
    head: Addr,
    nbuckets: u64,
}

impl PHashMap {
    /// Bytes of PM needed for the header, count shards, and buckets.
    pub fn region_bytes(nbuckets: u64) -> u64 {
        BUCKETS_OFF + nbuckets * 8
    }

    /// Create a fresh table in `region` (which must be zeroed, e.g.
    /// never-written PM), inside an open transaction.
    ///
    /// # Errors
    ///
    /// Transaction errors from the engine.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small or `nbuckets` is zero.
    pub fn create<E: TxMem>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        region: AddrRange,
        nbuckets: u64,
    ) -> Result<PHashMap, DsError> {
        assert!(nbuckets > 0, "need at least one bucket");
        assert!(
            region.len >= Self::region_bytes(nbuckets),
            "region too small for {nbuckets} buckets"
        );
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, nbuckets, Category::AppMeta)?;
        Ok(PHashMap {
            head: region.base,
            nbuckets,
        })
    }

    /// Re-attach to a table after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `head` does not hold a table.
    pub fn open(m: &mut Machine, tid: Tid, head: Addr) -> Result<PHashMap, DsError> {
        header::open(m, tid, head, MAGIC)?;
        let nbuckets = m.load_u64(tid, head + 8);
        Ok(PHashMap { head, nbuckets })
    }

    /// Number of entries (sums the per-thread count shards).
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        header::len(m, tid, self.head)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self, m: &mut Machine, tid: Tid) -> bool {
        self.len(m, tid) == 0
    }

    fn bucket_addr(&self, key: &[u8]) -> Addr {
        self.head + BUCKETS_OFF + (fnv1a(key) % self.nbuckets) * 8
    }

    /// Find `key`: returns `(prev_link_addr, node_addr)` where
    /// `prev_link_addr` is the pointer slot that references the node.
    fn find<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        key: &[u8],
    ) -> Option<(Addr, Addr)> {
        let mut link = self.bucket_addr(key);
        let mut node = eng.tx_read_u64(m, tid, link);
        while node != 0 {
            let klen = eng.tx_read_u32(m, tid, node + 8) as usize;
            if klen == key.len() {
                let k = eng.tx_read(m, tid, node + NODE_HDR, klen);
                if k == key {
                    return Some((link, node));
                }
            }
            link = node; // next pointer is the first node field
            node = eng.tx_read_u64(m, tid, node);
        }
        None
    }

    /// Insert or replace. Returns `true` if the key was new.
    ///
    /// # Errors
    ///
    /// [`DsError::TooLarge`] for oversized items; engine/allocator
    /// errors otherwise.
    pub fn insert<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: &[u8],
        val: &[u8],
    ) -> Result<bool, DsError> {
        if key.len() + val.len() > MAX_ITEM {
            return Err(DsError::TooLarge {
                len: key.len() + val.len(),
            });
        }
        if let Some((link, node)) = self.find(m, eng, tid, key) {
            let old_vlen = eng.tx_read_u32(m, tid, node + 12) as usize;
            if old_vlen == val.len() {
                // Overwrite in place.
                eng.tx_write(
                    m,
                    tid,
                    node + NODE_HDR + key.len() as u64,
                    val,
                    Category::UserData,
                )?;
            } else {
                // Replace the node.
                let next = eng.tx_read_u64(m, tid, node);
                let new = self.new_node(m, eng, tid, alloc, key, val, next)?;
                eng.tx_write_u64(m, tid, link, new, Category::UserData)?;
                let mut w = memsim::PmWriter::new(tid);
                alloc.free(m, &mut w, node)?;
            }
            Ok(false)
        } else {
            let bucket = self.bucket_addr(key);
            let next = eng.tx_read_u64(m, tid, bucket);
            let new = self.new_node(m, eng, tid, alloc, key, val, next)?;
            eng.tx_write_u64(m, tid, bucket, new, Category::UserData)?;
            header::bump(m, eng, tid, self.head, 1)?;
            Ok(true)
        }
    }

    #[allow(clippy::too_many_arguments)] // machine + engine + allocator plumbing
    fn new_node<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: &[u8],
        val: &[u8],
        next: Addr,
    ) -> Result<Addr, DsError> {
        let mut w = memsim::PmWriter::new(tid);
        let node = alloc.alloc(m, &mut w, NODE_HDR + (key.len() + val.len()) as u64)?;
        // The node is one contiguous object: a single PM_MEMCPY-style
        // logged write (Figure 2), as NVML copies freshly-allocated
        // objects.
        let mut buf = Vec::with_capacity(NODE_HDR as usize + key.len() + val.len());
        buf.extend_from_slice(&next.to_le_bytes());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(val);
        eng.tx_write(m, tid, node, &buf, Category::UserData)?;
        Ok(node)
    }

    /// Look up `key`.
    pub fn get<E: TxMem>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        key: &[u8],
    ) -> Option<Vec<u8>> {
        let (_, node) = self.find(m, eng, tid, key)?;
        let klen = eng.tx_read_u32(m, tid, node + 8) as usize;
        let vlen = eng.tx_read_u32(m, tid, node + 12) as usize;
        Some(eng.tx_read(m, tid, node + NODE_HDR + klen as u64, vlen))
    }

    /// Remove `key`; returns whether it was present.
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
        key: &[u8],
    ) -> Result<bool, DsError> {
        match self.find(m, eng, tid, key) {
            Some((link, node)) => {
                let next = eng.tx_read_u64(m, tid, node);
                eng.tx_write_u64(m, tid, link, next, Category::UserData)?;
                header::bump(m, eng, tid, self.head, -1)?;
                let mut w = memsim::PmWriter::new(tid);
                alloc.free(m, &mut w, node)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Non-transactional scan of every `(key, value)` pair — used by
    /// recovery checks and garbage collection.
    pub fn for_each(&self, m: &mut Machine, tid: Tid, mut f: impl FnMut(&[u8], &[u8])) {
        for b in 0..self.nbuckets {
            let mut node = m.load_u64(tid, self.head + BUCKETS_OFF + b * 8);
            while node != 0 {
                let klen = m.load_u32(tid, node + 8) as usize;
                let vlen = m.load_u32(tid, node + 12) as usize;
                let k = m.load_vec(tid, node + NODE_HDR, klen);
                let v = m.load_vec(tid, node + NODE_HDR + klen as u64, vlen);
                f(&k, &v);
                node = m.load_u64(tid, node);
            }
        }
    }

    /// Addresses of every live node — for allocator GC integration.
    pub fn node_addrs(&self, m: &mut Machine, tid: Tid) -> Vec<Addr> {
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let mut node = m.load_u64(tid, self.head + BUCKETS_OFF + b * 8);
            while node != 0 {
                out.push(node);
                node = m.load_u64(tid, node);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CrashSpec, MachineConfig};
    use pmalloc::SlabBitmapAlloc;
    use pmtx::UndoTxEngine;

    struct Fix {
        m: Machine,
        eng: UndoTxEngine,
        alloc: SlabBitmapAlloc,
        map: PHashMap,
    }

    const TID: Tid = Tid(0);

    fn setup() -> Fix {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 1 << 20);
        let heap = AddrRange::new(pm.base + (1 << 20), 8 << 20);
        let table = AddrRange::new(pm.base + (9 << 20), PHashMap::region_bytes(64));
        let mut eng = UndoTxEngine::format(&mut m, log, 4);
        let mut w = memsim::PmWriter::new(TID);
        let alloc = SlabBitmapAlloc::format(&mut m, &mut w, heap);
        eng.begin(&mut m, TID).unwrap();
        let map = PHashMap::create(&mut m, &mut eng, TID, table, 64).unwrap();
        eng.commit(&mut m, TID).unwrap();
        Fix { m, eng, alloc, map }
    }

    fn tx<T>(fx: &mut Fix, f: impl FnOnce(&mut Fix) -> T) -> T {
        fx.eng.begin(&mut fx.m, TID).unwrap();
        let r = f(fx);
        fx.eng.commit(&mut fx.m, TID).unwrap();
        r
    }

    #[test]
    fn insert_get_round_trip() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            let fresh = fx
                .map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"alpha", b"one")
                .unwrap();
            assert!(fresh);
        });
        let v = fx.map.get(&mut fx.m, &mut fx.eng, TID, b"alpha");
        assert_eq!(v.as_deref(), Some(&b"one"[..]));
        assert_eq!(fx.map.len(&mut fx.m, TID), 1);
    }

    #[test]
    fn remove_on_a_different_thread_keeps_len_exact() {
        // Count shards are picked by tid: thread 1 removing what thread
        // 0 inserted drives shard 1 negative (mod 2^64). The total
        // must still come back to exactly 0.
        let mut fx = setup();
        let (t0, t1) = (Tid(0), Tid(1));
        for k in [b"a".as_slice(), b"b", b"c"] {
            fx.eng.begin(&mut fx.m, t0).unwrap();
            let fresh = fx
                .map
                .insert(&mut fx.m, &mut fx.eng, t0, &mut fx.alloc, k, b"v");
            assert!(fresh.unwrap());
            fx.eng.commit(&mut fx.m, t0).unwrap();
        }
        assert_eq!(fx.map.len(&mut fx.m, t1), 3);
        for k in [b"a".as_slice(), b"b", b"c"] {
            fx.eng.begin(&mut fx.m, t1).unwrap();
            let removed = fx.map.remove(&mut fx.m, &mut fx.eng, t1, &mut fx.alloc, k);
            assert!(removed.unwrap());
            fx.eng.commit(&mut fx.m, t1).unwrap();
        }
        assert_eq!(fx.map.len(&mut fx.m, t0), 0);
        assert!(fx.map.is_empty(&mut fx.m, t1));
    }

    #[test]
    fn missing_key_is_none() {
        let mut fx = setup();
        assert_eq!(fx.map.get(&mut fx.m, &mut fx.eng, TID, b"ghost"), None);
    }

    #[test]
    fn replace_same_size_in_place() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", b"aaa")
                .unwrap();
        });
        let allocs_before = fx.alloc.stats().allocs;
        tx(&mut fx, |fx| {
            let fresh = fx
                .map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", b"bbb")
                .unwrap();
            assert!(!fresh);
        });
        assert_eq!(
            fx.alloc.stats().allocs,
            allocs_before,
            "no realloc for same size"
        );
        assert_eq!(
            fx.map.get(&mut fx.m, &mut fx.eng, TID, b"k").as_deref(),
            Some(&b"bbb"[..])
        );
        assert_eq!(fx.map.len(&mut fx.m, TID), 1);
    }

    #[test]
    fn replace_different_size_reallocates() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", b"short")
                .unwrap();
        });
        tx(&mut fx, |fx| {
            fx.map
                .insert(
                    &mut fx.m,
                    &mut fx.eng,
                    TID,
                    &mut fx.alloc,
                    b"k",
                    b"a-much-longer-value",
                )
                .unwrap();
        });
        assert_eq!(
            fx.map.get(&mut fx.m, &mut fx.eng, TID, b"k").as_deref(),
            Some(&b"a-much-longer-value"[..])
        );
        assert_eq!(fx.map.len(&mut fx.m, TID), 1);
        assert_eq!(fx.alloc.stats().frees, 1, "old node freed");
    }

    #[test]
    fn remove_unlinks_and_frees() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"x", b"1")
                .unwrap();
            fx.map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"y", b"2")
                .unwrap();
        });
        let removed = tx(&mut fx, |fx| {
            fx.map
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"x")
                .unwrap()
        });
        assert!(removed);
        assert_eq!(fx.map.get(&mut fx.m, &mut fx.eng, TID, b"x"), None);
        assert_eq!(
            fx.map.get(&mut fx.m, &mut fx.eng, TID, b"y").as_deref(),
            Some(&b"2"[..])
        );
        assert_eq!(fx.map.len(&mut fx.m, TID), 1);
        let removed_again = tx(&mut fx, |fx| {
            fx.map
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"x")
                .unwrap()
        });
        assert!(!removed_again);
    }

    #[test]
    fn collisions_chain_correctly() {
        // 1-bucket table forces every key into one chain.
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let log = AddrRange::new(pm.base, 1 << 20);
        let heap = AddrRange::new(pm.base + (1 << 20), 8 << 20);
        let table = AddrRange::new(pm.base + (9 << 20), PHashMap::region_bytes(1));
        let mut eng = UndoTxEngine::format(&mut m, log, 4);
        let mut w = memsim::PmWriter::new(TID);
        let mut alloc = SlabBitmapAlloc::format(&mut m, &mut w, heap);
        eng.begin(&mut m, TID).unwrap();
        let map = PHashMap::create(&mut m, &mut eng, TID, table, 1).unwrap();
        eng.commit(&mut m, TID).unwrap();
        for i in 0..20u32 {
            eng.begin(&mut m, TID).unwrap();
            map.insert(
                &mut m,
                &mut eng,
                TID,
                &mut alloc,
                &i.to_le_bytes(),
                &[i as u8; 5],
            )
            .unwrap();
            eng.commit(&mut m, TID).unwrap();
        }
        for i in 0..20u32 {
            assert_eq!(
                map.get(&mut m, &mut eng, TID, &i.to_le_bytes()),
                Some(vec![i as u8; 5])
            );
        }
        // Remove from middle of chain.
        eng.begin(&mut m, TID).unwrap();
        map.remove(&mut m, &mut eng, TID, &mut alloc, &7u32.to_le_bytes())
            .unwrap();
        eng.commit(&mut m, TID).unwrap();
        assert_eq!(map.get(&mut m, &mut eng, TID, &7u32.to_le_bytes()), None);
        assert_eq!(map.len(&mut m, TID), 19);
    }

    #[test]
    fn oversized_item_rejected() {
        let mut fx = setup();
        fx.eng.begin(&mut fx.m, TID).unwrap();
        let big = vec![0u8; MAX_ITEM + 1];
        let r = fx
            .map
            .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", &big);
        assert!(matches!(r, Err(DsError::TooLarge { .. })));
        fx.eng.abort(&mut fx.m, TID).unwrap();
    }

    #[test]
    fn survives_crash_and_reopen() {
        let mut fx = setup();
        let head = fx.map.head;
        tx(&mut fx, |fx| {
            fx.map
                .insert(
                    &mut fx.m,
                    &mut fx.eng,
                    TID,
                    &mut fx.alloc,
                    b"persist",
                    b"me",
                )
                .unwrap();
        });
        let img = fx.m.crash(CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let pm = m2.config().map.pm;
        let mut eng2 = UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 1 << 20), 4);
        let map2 = PHashMap::open(&mut m2, TID, head).unwrap();
        assert_eq!(
            map2.get(&mut m2, &mut eng2, TID, b"persist").as_deref(),
            Some(&b"me"[..])
        );
        assert_eq!(map2.len(&mut m2, TID), 1);
    }

    #[test]
    fn crash_mid_tx_leaves_map_consistent() {
        for seed in 0..25 {
            let mut fx = setup();
            let head = fx.map.head;
            tx(&mut fx, |fx| {
                fx.map
                    .insert(
                        &mut fx.m,
                        &mut fx.eng,
                        TID,
                        &mut fx.alloc,
                        b"stable",
                        b"val",
                    )
                    .unwrap();
            });
            // Crash mid-insert of a second key.
            fx.eng.begin(&mut fx.m, TID).unwrap();
            fx.map
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"torn", b"half")
                .unwrap();
            let img = fx.m.crash(CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let pm = m2.config().map.pm;
            let mut eng2 = UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 1 << 20), 4);
            let map2 = PHashMap::open(&mut m2, TID, head).unwrap();
            assert_eq!(
                map2.get(&mut m2, &mut eng2, TID, b"stable").as_deref(),
                Some(&b"val"[..]),
                "seed {seed}"
            );
            assert_eq!(
                map2.get(&mut m2, &mut eng2, TID, b"torn"),
                None,
                "seed {seed}: uncommitted insert must roll back"
            );
            assert_eq!(map2.len(&mut m2, TID), 1, "seed {seed}");
        }
    }

    #[test]
    fn open_rejects_garbage() {
        let mut fx = setup();
        let pm_base = fx.m.config().map.pm.base;
        assert!(matches!(
            PHashMap::open(&mut fx.m, TID, pm_base + (20 << 20)),
            Err(DsError::BadHeader { .. })
        ));
    }

    #[test]
    fn for_each_visits_all() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            for i in 0..10u8 {
                fx.map
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, &[i], &[i, i])
                    .unwrap();
            }
        });
        let mut seen = Vec::new();
        fx.map.for_each(&mut fx.m, TID, |k, v| {
            assert_eq!(v, [k[0], k[0]]);
            seen.push(k[0]);
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(fx.map.node_addrs(&mut fx.m, TID).len(), 10);
    }
}
