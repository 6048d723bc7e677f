//! Persistent B-tree.

use crate::header::{self, HEADER_BYTES};
use crate::DsError;
use memsim::Machine;
use pmalloc::PmAllocator;
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x5042_5452_4545_2121; // "PBTREE!!"

/// Maximum keys per node (2t-1 for minimum degree t = 7, so a split
/// leaves both halves at least minimal). A node is 16 B header +
/// 13 keys + 14 children/values ≤ 256 B — one allocator class, four
/// cache lines.
const MAX_KEYS: usize = 13;
const MIN_KEYS: usize = 6; // t - 1

// Node layout: is_leaf u32, nkeys u32, pad u64,
// keys[13] u64 @16, then children[14] u64 @128 (internal)
//                    or values[13] u64 @128 (leaf).
const NODE_BYTES: u64 = 256;
const O_LEAF: u64 = 0;
const O_NKEYS: u64 = 4;
const O_KEYS: u64 = 16;
const O_PTRS: u64 = 128;

/// A persistent B-tree mapping `u64` keys to `u64` values, with ordered
/// range scans.
///
/// "PMFS stores user data in 4KB blocks and metadata in persistent
/// B-trees" and N-store's OPTWAL "places tables and indexes in these
/// segments" (Section 3) — this is that index structure, usable over
/// either transaction engine. Insert uses the classic single-pass
/// preemptive-split descent, so no parent pointers are stored and every
/// insert is a bounded set of logged writes. There is no delete: the
/// index is insert, lookup and range scan, all that N-store issues.
#[derive(Debug, Clone, Copy)]
pub struct PBTree {
    base: Addr,
}

impl PBTree {
    /// Create a fresh tree in `region` (header; nodes come from the
    /// allocator), inside an open transaction.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than [`HEADER_BYTES`].
    pub fn create<E: TxMem, A: PmAllocator>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        region: AddrRange,
    ) -> Result<PBTree, DsError> {
        assert!(region.len >= HEADER_BYTES, "b-tree region too small");
        let root = Self::new_node(m, eng, tid, alloc, true)?;
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, root, Category::AppMeta)?;
        Ok(PBTree { base: region.base })
    }

    /// Re-attach after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `base` does not hold a tree.
    pub fn open(m: &mut Machine, tid: Tid, base: Addr) -> Result<PBTree, DsError> {
        header::open(m, tid, base, MAGIC)?;
        Ok(PBTree { base })
    }

    /// Number of keys (sums the per-thread count shards).
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        header::len(m, tid, self.base)
    }

    fn new_node<E: TxMem, A: PmAllocator>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        leaf: bool,
    ) -> Result<Addr, DsError> {
        let mut w = memsim::PmWriter::new(tid);
        let node = alloc.alloc(m, &mut w, NODE_BYTES)?;
        // One object-copy write initializes the header (nkeys = 0).
        let mut hdr = [0u8; 16];
        hdr[0..4].copy_from_slice(&(leaf as u32).to_le_bytes());
        eng.tx_write(m, tid, node + O_LEAF, &hdr, Category::UserData)?;
        Ok(node)
    }

    // -- field helpers ------------------------------------------------

    fn is_leaf<E: TxMem>(m: &mut Machine, e: &mut E, tid: Tid, n: Addr) -> bool {
        e.tx_read_u32(m, tid, n + O_LEAF) != 0
    }

    fn nkeys<E: TxMem>(m: &mut Machine, e: &mut E, tid: Tid, n: Addr) -> usize {
        e.tx_read_u32(m, tid, n + O_NKEYS) as usize
    }

    fn set_nkeys<E: TxMem>(
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        n: Addr,
        v: usize,
    ) -> Result<(), DsError> {
        e.tx_write_u32(m, tid, n + O_NKEYS, v as u32, Category::UserData)?;
        Ok(())
    }

    fn key<E: TxMem>(m: &mut Machine, e: &mut E, tid: Tid, n: Addr, i: usize) -> u64 {
        e.tx_read_u64(m, tid, n + O_KEYS + i as u64 * 8)
    }

    fn ptr<E: TxMem>(m: &mut Machine, e: &mut E, tid: Tid, n: Addr, i: usize) -> u64 {
        e.tx_read_u64(m, tid, n + O_PTRS + i as u64 * 8)
    }

    /// Read a node's keys and pointers/values into volatile buffers.
    fn read_node<E: TxMem>(
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        n: Addr,
    ) -> (bool, Vec<u64>, Vec<u64>) {
        let leaf = Self::is_leaf(m, e, tid, n);
        let nk = Self::nkeys(m, e, tid, n);
        let keys_raw = e.tx_read(m, tid, n + O_KEYS, nk * 8);
        let keys = keys_raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
            .collect();
        let np = if leaf { nk } else { nk + 1 };
        let ptrs_raw = e.tx_read(m, tid, n + O_PTRS, np * 8);
        let ptrs = ptrs_raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
            .collect();
        (leaf, keys, ptrs)
    }

    /// Write back a node's keys and pointers/values (two object-copy
    /// writes + the key count).
    fn write_node<E: TxMem>(
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        n: Addr,
        keys: &[u64],
        ptrs: &[u64],
    ) -> Result<(), DsError> {
        let kb: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let pb: Vec<u8> = ptrs.iter().flat_map(|p| p.to_le_bytes()).collect();
        if !kb.is_empty() {
            e.tx_write(m, tid, n + O_KEYS, &kb, Category::UserData)?;
        }
        if !pb.is_empty() {
            e.tx_write(m, tid, n + O_PTRS, &pb, Category::UserData)?;
        }
        Self::set_nkeys(m, e, tid, n, keys.len())?;
        Ok(())
    }

    // -- lookup -------------------------------------------------------

    /// Look up `key`.
    pub fn get<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid, key: u64) -> Option<u64> {
        let mut n = e.tx_read_u64(m, tid, self.base + 8);
        loop {
            let nk = Self::nkeys(m, e, tid, n);
            let mut i = 0;
            while i < nk && Self::key(m, e, tid, n, i) < key {
                i += 1;
            }
            if i < nk && Self::key(m, e, tid, n, i) == key {
                if Self::is_leaf(m, e, tid, n) {
                    return Some(Self::ptr(m, e, tid, n, i));
                }
                // Values live only in leaves; an equal separator key
                // routes to the right child, where the leaf copy is.
                n = Self::ptr(m, e, tid, n, i + 1);
                continue;
            }
            if Self::is_leaf(m, e, tid, n) {
                return None;
            }
            n = Self::ptr(m, e, tid, n, i);
        }
    }

    /// Every `(key, value)` with `lo <= key < hi`, in order
    /// (non-transactional scan).
    pub fn range(&self, m: &mut Machine, tid: Tid, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let root = m.load_u64(tid, self.base + 8);
        self.range_walk(m, tid, root, lo, hi, &mut out);
        out
    }

    fn range_walk(
        &self,
        m: &mut Machine,
        tid: Tid,
        n: Addr,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, u64)>,
    ) {
        let leaf = m.load_u32(tid, n + O_LEAF) != 0;
        let nk = m.load_u32(tid, n + O_NKEYS) as usize;
        if leaf {
            for i in 0..nk {
                let k = m.load_u64(tid, n + O_KEYS + i as u64 * 8);
                if k >= lo && k < hi {
                    out.push((k, m.load_u64(tid, n + O_PTRS + i as u64 * 8)));
                }
            }
            return;
        }
        for i in 0..=nk {
            // Child i covers keys < keys[i] (and >= keys[i-1]).
            let lower_ok = i == 0 || m.load_u64(tid, n + O_KEYS + (i as u64 - 1) * 8) < hi;
            let upper_ok = i == nk || m.load_u64(tid, n + O_KEYS + i as u64 * 8) >= lo;
            if lower_ok && upper_ok {
                let child = m.load_u64(tid, n + O_PTRS + i as u64 * 8);
                self.range_walk(m, tid, child, lo, hi, out);
            }
        }
    }

    // -- insert -------------------------------------------------------

    /// Insert or update. Returns `true` if the key was new.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    pub fn insert<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: u64,
        val: u64,
    ) -> Result<bool, DsError> {
        let root = e.tx_read_u64(m, tid, self.base + 8);
        // Preemptive root split keeps the descent single-pass.
        let root = if Self::nkeys(m, e, tid, root) == MAX_KEYS {
            let new_root = Self::new_node(m, e, tid, alloc, false)?;
            Self::write_node(m, e, tid, new_root, &[], &[root])?;
            self.split_child(m, e, tid, alloc, new_root, 0)?;
            e.tx_write_u64(m, tid, self.base + 8, new_root, Category::UserData)?;
            new_root
        } else {
            root
        };
        let fresh = self.insert_nonfull(m, e, tid, alloc, root, key, val)?;
        if fresh {
            header::bump(m, e, tid, self.base, 1)?;
        }
        Ok(fresh)
    }

    #[allow(clippy::too_many_arguments)] // machine + engine + allocator plumbing
    fn insert_nonfull<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        alloc: &mut A,
        mut n: Addr,
        key: u64,
        val: u64,
    ) -> Result<bool, DsError> {
        loop {
            let (leaf, keys, ptrs) = Self::read_node(m, e, tid, n);
            if leaf {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        e.tx_write_u64(m, tid, n + O_PTRS + i as u64 * 8, val, Category::UserData)?;
                        return Ok(false);
                    }
                    Err(i) => {
                        let mut keys = keys;
                        let mut vals = ptrs;
                        keys.insert(i, key);
                        vals.insert(i, val);
                        Self::write_node(m, e, tid, n, &keys, &vals)?;
                        return Ok(true);
                    }
                }
            }
            let mut i = keys.partition_point(|&k| k < key);
            if i < keys.len() && keys[i] == key {
                i += 1; // equal internal keys route right
            }
            let child = ptrs[i];
            if Self::nkeys(m, e, tid, child) == MAX_KEYS {
                self.split_child(m, e, tid, alloc, n, i)?;
                // Re-route after the split.
                let sep = Self::key(m, e, tid, n, i);
                let idx = if key >= sep { i + 1 } else { i };
                n = Self::ptr(m, e, tid, n, idx);
            } else {
                n = child;
            }
        }
    }

    /// Split the full `i`-th child of `parent`.
    fn split_child<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        alloc: &mut A,
        parent: Addr,
        i: usize,
    ) -> Result<(), DsError> {
        let child = Self::ptr(m, e, tid, parent, i);
        let (leaf, keys, ptrs) = Self::read_node(m, e, tid, child);
        debug_assert_eq!(keys.len(), MAX_KEYS);
        let mid = MAX_KEYS / 2;
        let sep = keys[mid];
        let right = Self::new_node(m, e, tid, alloc, leaf)?;
        if leaf {
            // Leaves keep the separator key (values live in leaves).
            Self::write_node(m, e, tid, right, &keys[mid..], &ptrs[mid..])?;
            Self::write_node(m, e, tid, child, &keys[..mid], &ptrs[..mid])?;
        } else {
            Self::write_node(m, e, tid, right, &keys[mid + 1..], &ptrs[mid + 1..])?;
            Self::write_node(m, e, tid, child, &keys[..mid], &ptrs[..=mid])?;
        }
        let (_, mut pkeys, mut pptrs) = Self::read_node(m, e, tid, parent);
        pkeys.insert(i, sep);
        pptrs.insert(i + 1, right);
        Self::write_node(m, e, tid, parent, &pkeys, &pptrs)?;
        Ok(())
    }

    /// Check the B-tree invariants: key order, fill factors, uniform
    /// leaf depth. Non-transactional; used by tests.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self, m: &mut Machine, tid: Tid) -> Result<(), String> {
        let root = m.load_u64(tid, self.base + 8);
        let mut leaf_depth = None;
        self.check_node(m, tid, root, None, None, 0, true, &mut leaf_depth)
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        m: &mut Machine,
        tid: Tid,
        n: Addr,
        lo: Option<u64>,
        hi: Option<u64>,
        depth: usize,
        is_root: bool,
        leaf_depth: &mut Option<usize>,
    ) -> Result<(), String> {
        let leaf = m.load_u32(tid, n + O_LEAF) != 0;
        let nk = m.load_u32(tid, n + O_NKEYS) as usize;
        if nk > MAX_KEYS {
            return Err(format!("node {n:#x} overfull: {nk}"));
        }
        if !is_root && nk < MIN_KEYS {
            return Err(format!("node {n:#x} underfull: {nk}"));
        }
        let mut prev: Option<u64> = lo;
        for i in 0..nk {
            let k = m.load_u64(tid, n + O_KEYS + i as u64 * 8);
            if let Some(p) = prev {
                if k <= p && !(i == 0 && lo == Some(p) && k >= p) {
                    return Err(format!("key order violated at {n:#x}: {k} after {p}"));
                }
            }
            if let Some(h) = hi {
                if k >= h {
                    return Err(format!("key {k} at {n:#x} >= upper bound {h}"));
                }
            }
            prev = Some(k);
        }
        if leaf {
            match leaf_depth {
                Some(d) if *d != depth => return Err("leaves at unequal depth".into()),
                None => *leaf_depth = Some(depth),
                _ => {}
            }
            return Ok(());
        }
        for i in 0..=nk {
            let child = m.load_u64(tid, n + O_PTRS + i as u64 * 8);
            let clo = if i == 0 {
                lo
            } else {
                Some(m.load_u64(tid, n + O_KEYS + (i as u64 - 1) * 8))
            };
            let chi = if i == nk {
                hi
            } else {
                Some(m.load_u64(tid, n + O_KEYS + i as u64 * 8))
            };
            self.check_node(m, tid, child, clo, chi, depth + 1, false, leaf_depth)?;
        }
        Ok(())
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
        tree: PBTree,
    }

    fn setup() -> Fix {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let mut eng = UndoTxEngine::format(&mut m, AddrRange::new(pm.base, 16 << 20), 4);
        let mut w = memsim::PmWriter::new(TID);
        let alloc = SlabBitmapAlloc::format(
            &mut m,
            &mut w,
            AddrRange::new(pm.base + (16 << 20), 64 << 20),
        );
        let mut alloc = alloc;
        eng.begin(&mut m, TID).unwrap();
        let tree = PBTree::create(
            &mut m,
            &mut eng,
            TID,
            &mut alloc,
            AddrRange::new(pm.base + (90 << 20), HEADER_BYTES),
        )
        .unwrap();
        eng.commit(&mut m, TID).unwrap();
        Fix {
            m,
            eng,
            alloc,
            tree,
        }
    }

    fn tx<T>(fx: &mut Fix, f: impl FnOnce(&mut Fix) -> T) -> T {
        fx.eng.begin(&mut fx.m, TID).unwrap();
        let r = f(fx);
        fx.eng.commit(&mut fx.m, TID).unwrap();
        r
    }

    #[test]
    fn insert_get_update() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            assert!(fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 5, 50)
                .unwrap());
            assert!(!fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 5, 55)
                .unwrap());
        });
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, 5), Some(55));
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, 6), None);
        assert_eq!(fx.tree.len(&mut fx.m, TID), 1);
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut fx = setup();
        for i in 0..300u64 {
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i, i * 3)
                    .unwrap();
            });
        }
        fx.tree.check_invariants(&mut fx.m, TID).unwrap();
        for i in 0..300u64 {
            assert_eq!(
                fx.tree.get(&mut fx.m, &mut fx.eng, TID, i),
                Some(i * 3),
                "key {i}"
            );
        }
        assert_eq!(fx.tree.len(&mut fx.m, TID), 300);
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            for i in (0..100u64).rev() {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i * 2, i)
                    .unwrap();
            }
        });
        let got = fx.tree.range(&mut fx.m, TID, 10, 30);
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20, 22, 24, 26, 28]);
        for (k, v) in got {
            assert_eq!(v, k / 2);
        }
        assert!(fx.tree.range(&mut fx.m, TID, 500, 600).is_empty());
    }

    #[test]
    fn random_ops_match_btreemap() {
        let mut fx = setup();
        let mut model = std::collections::BTreeMap::new();
        let mut state = 0xfeed_u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state % 128;
            let op = (state >> 32) % 3;
            tx(&mut fx, |fx| match op {
                0 | 1 => {
                    let fresh = fx
                        .tree
                        .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, key, state)
                        .unwrap();
                    assert_eq!(fresh, model.insert(key, state).is_none(), "insert {key}");
                }
                _ => {
                    let got = fx.tree.get(&mut fx.m, &mut fx.eng, TID, key);
                    assert_eq!(got, model.get(&key).copied(), "get {key}");
                }
            });
            fx.tree.check_invariants(&mut fx.m, TID).unwrap();
        }
        assert_eq!(fx.tree.len(&mut fx.m, TID), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, *k), Some(*v));
        }
        // Full range scan equals the model, in order.
        let scan = fx.tree.range(&mut fx.m, TID, 0, u64::MAX);
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn survives_crash_with_invariants() {
        let mut fx = setup();
        let base = fx.tree.base;
        for i in 0..80u64 {
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i * 13 % 97, i)
                    .unwrap();
            });
        }
        // Crash mid-insert: the committed prefix must be intact.
        fx.eng.begin(&mut fx.m, TID).unwrap();
        fx.tree
            .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 1000, 1)
            .unwrap();
        for seed in [3u64, 19, 41] {
            let img = Machine::from_image(MachineConfig::asplos17(), &fx.m.durable_image())
                .crash(memsim::CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let pm = m2.config().map.pm;
            let mut eng2 =
                UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 16 << 20), 4);
            let tree2 = PBTree::open(&mut m2, TID, base).unwrap();
            tree2.check_invariants(&mut m2, TID).unwrap();
            assert_eq!(
                tree2.get(&mut m2, &mut eng2, TID, 1000),
                None,
                "seed {seed}"
            );
            assert_eq!(tree2.len(&mut m2, TID), 80, "seed {seed}");
        }
    }
}
