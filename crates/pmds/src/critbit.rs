//! Persistent crit-bit tree.

use crate::header::{self, HEADER_BYTES};
use crate::DsError;
use memsim::Machine;
use pmalloc::PmAllocator;
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x4352_4954_4249_5421; // "CRITBIT!"
const TAG_LEAF: u32 = 0;
const TAG_INTERNAL: u32 = 1;
// Internal node: tag u32, otherbits u32, byte_idx u64, child0 u64, child1 u64
const INTERNAL_BYTES: u64 = 32;
// Leaf: tag u32, key_len u32, val u64, key…
const LEAF_HDR: u64 = 16;
const MAX_KEY: usize = 376;

/// A persistent crit-bit (PATRICIA) tree mapping byte keys to `u64`
/// values — the structure behind WHISPER's `ctree` micro-benchmark
/// ("inserts and deletes ... into a persistent crit-bit tree",
/// Section 3.2.2, after djb's crit-bit trees).
///
/// Keys are binary strings up to 512 bytes. As in the classic
/// formulation, a key that equals another key zero-extended (e.g.
/// `b"a"` vs `b"a\0"`) is not distinguishable; callers use fixed-width
/// or terminator-free keys.
#[derive(Debug, Clone, Copy)]
pub struct CritBitTree {
    base: Addr,
}

impl CritBitTree {
    /// Create a fresh tree in `region` (header only; nodes come from the
    /// allocator), inside an open transaction.
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
    ) -> Result<CritBitTree, DsError> {
        assert!(region.len >= HEADER_BYTES, "crit-bit region too small");
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, 0, Category::AppMeta)?; // root
        Ok(CritBitTree { base: region.base })
    }

    /// Re-attach after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `base` does not hold a tree.
    pub fn open(m: &mut Machine, tid: Tid, base: Addr) -> Result<CritBitTree, DsError> {
        header::open(m, tid, base, MAGIC)?;
        Ok(CritBitTree { base })
    }

    /// Number of keys (sums the per-thread count shards).
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        header::len(m, tid, self.base)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self, m: &mut Machine, tid: Tid) -> bool {
        self.len(m, tid) == 0
    }

    fn key_byte(key: &[u8], idx: u64) -> u8 {
        key.get(idx as usize).copied().unwrap_or(0)
    }

    fn direction(otherbits: u32, c: u8) -> u64 {
        ((1 + (otherbits | c as u32)) >> 8) as u64
    }

    fn leaf_key<E: TxMem>(m: &mut Machine, eng: &mut E, tid: Tid, leaf: Addr) -> Vec<u8> {
        let klen = eng.tx_read_u32(m, tid, leaf + 4) as usize;
        eng.tx_read(m, tid, leaf + LEAF_HDR, klen)
    }

    /// Walk to the best-matching leaf for `key`. Returns 0 on empty.
    fn best_leaf<E: TxMem>(&self, m: &mut Machine, eng: &mut E, tid: Tid, key: &[u8]) -> Addr {
        let mut node = eng.tx_read_u64(m, tid, self.base + 8);
        if node == 0 {
            return 0;
        }
        while eng.tx_read_u32(m, tid, node) == TAG_INTERNAL {
            let otherbits = eng.tx_read_u32(m, tid, node + 4);
            let byte_idx = eng.tx_read_u64(m, tid, node + 8);
            let dir = Self::direction(otherbits, Self::key_byte(key, byte_idx));
            node = eng.tx_read_u64(m, tid, node + 16 + dir * 8);
        }
        node
    }

    /// Look up `key`.
    pub fn get<E: TxMem>(&self, m: &mut Machine, eng: &mut E, tid: Tid, key: &[u8]) -> Option<u64> {
        let leaf = self.best_leaf(m, eng, tid, key);
        if leaf == 0 {
            return None;
        }
        if Self::leaf_key(m, eng, tid, leaf) == key {
            Some(eng.tx_read_u64(m, tid, leaf + 8))
        } else {
            None
        }
    }

    fn new_leaf<E: TxMem, A: PmAllocator>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: &[u8],
        val: u64,
    ) -> Result<Addr, DsError> {
        let mut w = memsim::PmWriter::new(tid);
        let leaf = alloc.alloc(m, &mut w, LEAF_HDR + key.len() as u64)?;
        let mut hdr = [0u8; LEAF_HDR as usize];
        hdr[0..4].copy_from_slice(&TAG_LEAF.to_le_bytes());
        hdr[4..8].copy_from_slice(&(key.len() as u32).to_le_bytes());
        hdr[8..16].copy_from_slice(&val.to_le_bytes());
        eng.tx_write(m, tid, leaf, &hdr, Category::UserData)?;
        eng.tx_write(m, tid, leaf + LEAF_HDR, key, Category::UserData)?;
        Ok(leaf)
    }

    /// Insert or update. Returns `true` if the key was new.
    ///
    /// # Errors
    ///
    /// [`DsError::TooLarge`] for keys over 512 bytes; engine/allocator
    /// errors otherwise.
    pub fn insert<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: &[u8],
        val: u64,
    ) -> Result<bool, DsError> {
        if key.len() > MAX_KEY {
            return Err(DsError::TooLarge { len: key.len() });
        }
        let root = eng.tx_read_u64(m, tid, self.base + 8);
        if root == 0 {
            let leaf = Self::new_leaf(m, eng, tid, alloc, key, val)?;
            eng.tx_write_u64(m, tid, self.base + 8, leaf, Category::UserData)?;
            header::bump(m, eng, tid, self.base, 1)?;
            return Ok(true);
        }
        let best = self.best_leaf(m, eng, tid, key);
        let best_key = Self::leaf_key(m, eng, tid, best);
        // Find the critical (byte, bit).
        let maxlen = key.len().max(best_key.len()) as u64;
        let mut crit: Option<(u64, u8)> = None;
        for p in 0..maxlen {
            let x = Self::key_byte(key, p) ^ Self::key_byte(&best_key, p);
            if x != 0 {
                crit = Some((p, x));
                break;
            }
        }
        let Some((byte_idx, mut bits)) = crit else {
            // Keys equal: update in place.
            eng.tx_write_u64(m, tid, best + 8, val, Category::UserData)?;
            return Ok(false);
        };
        // Isolate most significant differing bit, then invert.
        while bits & (bits - 1) != 0 {
            bits &= bits - 1;
        }
        let otherbits = (bits ^ 0xff) as u32;
        let newdir = Self::direction(otherbits, Self::key_byte(key, byte_idx));

        // Find the insertion link: the first link whose node is "past"
        // the critical position in crit-bit order.
        let mut link = self.base + 8;
        loop {
            let node = eng.tx_read_u64(m, tid, link);
            if eng.tx_read_u32(m, tid, node) != TAG_INTERNAL {
                break;
            }
            let n_other = eng.tx_read_u32(m, tid, node + 4);
            let n_byte = eng.tx_read_u64(m, tid, node + 8);
            if n_byte > byte_idx || (n_byte == byte_idx && n_other > otherbits) {
                break;
            }
            let dir = Self::direction(n_other, Self::key_byte(key, n_byte));
            link = node + 16 + dir * 8;
        }

        let leaf = Self::new_leaf(m, eng, tid, alloc, key, val)?;
        let mut w = memsim::PmWriter::new(tid);
        let internal = alloc.alloc(m, &mut w, INTERNAL_BYTES)?;
        let displaced = eng.tx_read_u64(m, tid, link);
        let mut node = [0u8; INTERNAL_BYTES as usize];
        node[0..4].copy_from_slice(&TAG_INTERNAL.to_le_bytes());
        node[4..8].copy_from_slice(&otherbits.to_le_bytes());
        node[8..16].copy_from_slice(&byte_idx.to_le_bytes());
        let (a, b) = if newdir == 0 {
            (leaf, displaced)
        } else {
            (displaced, leaf)
        };
        node[16..24].copy_from_slice(&a.to_le_bytes());
        node[24..32].copy_from_slice(&b.to_le_bytes());
        eng.tx_write(m, tid, internal, &node, Category::UserData)?;
        eng.tx_write_u64(m, tid, link, internal, Category::UserData)?;
        header::bump(m, eng, tid, self.base, 1)?;
        Ok(true)
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
        let root = eng.tx_read_u64(m, tid, self.base + 8);
        if root == 0 {
            return Ok(false);
        }
        // Walk remembering the parent internal node and the link to it.
        let mut link = self.base + 8; // link holding current node
        let mut parent_link: Option<(Addr, u64)> = None; // (parent node, dir taken)
        let mut node = root;
        while eng.tx_read_u32(m, tid, node) == TAG_INTERNAL {
            let otherbits = eng.tx_read_u32(m, tid, node + 4);
            let byte_idx = eng.tx_read_u64(m, tid, node + 8);
            let dir = Self::direction(otherbits, Self::key_byte(key, byte_idx));
            parent_link = Some((node, dir));
            link = node + 16 + dir * 8;
            node = eng.tx_read_u64(m, tid, link);
        }
        if Self::leaf_key(m, eng, tid, node) != key {
            return Ok(false);
        }
        let mut w = memsim::PmWriter::new(tid);
        match parent_link {
            None => {
                eng.tx_write_u64(m, tid, self.base + 8, 0, Category::UserData)?;
            }
            Some((parent, dir)) => {
                // Replace the parent with the sibling subtree. We need
                // the link *to the parent*, which is the root link or a
                // grandparent child slot — rewalk to find it.
                let sibling = eng.tx_read_u64(m, tid, parent + 16 + (1 - dir) * 8);
                let mut glink = self.base + 8;
                loop {
                    let n = eng.tx_read_u64(m, tid, glink);
                    if n == parent {
                        break;
                    }
                    let otherbits = eng.tx_read_u32(m, tid, n + 4);
                    let byte_idx = eng.tx_read_u64(m, tid, n + 8);
                    let d = Self::direction(otherbits, Self::key_byte(key, byte_idx));
                    glink = n + 16 + d * 8;
                }
                eng.tx_write_u64(m, tid, glink, sibling, Category::UserData)?;
                alloc.free(m, &mut w, parent)?;
            }
        }
        alloc.free(m, &mut w, node)?;
        header::bump(m, eng, tid, self.base, -1)?;
        let _ = link;
        Ok(true)
    }

    /// Visit every `(key, value)` in key order (non-transactional).
    pub fn for_each(&self, m: &mut Machine, tid: Tid, mut f: impl FnMut(&[u8], u64)) {
        fn walk(m: &mut Machine, tid: Tid, node: Addr, f: &mut impl FnMut(&[u8], u64)) {
            if node == 0 {
                return;
            }
            if m.load_u32(tid, node) == TAG_INTERNAL {
                let l = m.load_u64(tid, node + 16);
                let r = m.load_u64(tid, node + 24);
                walk(m, tid, l, f);
                walk(m, tid, r, f);
            } else {
                let klen = m.load_u32(tid, node + 4) as usize;
                let key = m.load_vec(tid, node + LEAF_HDR, klen);
                let val = m.load_u64(tid, node + 8);
                f(&key, val);
            }
        }
        let root = m.load_u64(tid, self.base + 8);
        walk(m, tid, root, &mut f);
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
        tree: CritBitTree,
    }

    fn setup() -> Fix {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let mut eng = UndoTxEngine::format(&mut m, AddrRange::new(pm.base, 16 << 20), 4);
        let mut w = memsim::PmWriter::new(TID);
        let alloc = SlabBitmapAlloc::format(
            &mut m,
            &mut w,
            AddrRange::new(pm.base + (1 << 20), 16 << 20),
        );
        eng.begin(&mut m, TID).unwrap();
        let tree = CritBitTree::create(
            &mut m,
            &mut eng,
            TID,
            AddrRange::new(pm.base + (20 << 20), HEADER_BYTES),
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
    fn insert_get_single() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            assert!(fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"key", 7)
                .unwrap());
        });
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, b"key"), Some(7));
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, b"other"), None);
        assert_eq!(fx.tree.len(&mut fx.m, TID), 1);
    }

    #[test]
    fn update_existing_key() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", 1)
                .unwrap();
            let fresh = fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"k", 2)
                .unwrap();
            assert!(!fresh);
        });
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, b"k"), Some(2));
        assert_eq!(fx.tree.len(&mut fx.m, TID), 1);
    }

    #[test]
    fn remove_on_a_different_thread_keeps_len_exact() {
        // Count shards are picked by tid: when thread 1 removes keys
        // thread 0 inserted, shard 1 goes negative (mod 2^64) while
        // shard 0 stays positive. The total must still come out right
        // instead of tripping an underflow check.
        let mut fx = setup();
        let t0 = Tid(0);
        let t1 = Tid(1);
        for k in [b"a".as_slice(), b"b", b"c"] {
            fx.eng.begin(&mut fx.m, t0).unwrap();
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, t0, &mut fx.alloc, k, 1)
                .unwrap();
            fx.eng.commit(&mut fx.m, t0).unwrap();
        }
        for k in [b"a".as_slice(), b"b"] {
            fx.eng.begin(&mut fx.m, t1).unwrap();
            assert!(fx
                .tree
                .remove(&mut fx.m, &mut fx.eng, t1, &mut fx.alloc, k)
                .unwrap());
            fx.eng.commit(&mut fx.m, t1).unwrap();
        }
        assert_eq!(fx.tree.len(&mut fx.m, t0), 1);
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, t0, b"c"), Some(1));
    }

    #[test]
    fn many_keys_against_btreemap() {
        let mut fx = setup();
        let mut model = std::collections::BTreeMap::new();
        let mut state = 12345u64;
        for i in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("key-{:04}", state % 500);
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(
                        &mut fx.m,
                        &mut fx.eng,
                        TID,
                        &mut fx.alloc,
                        key.as_bytes(),
                        i,
                    )
                    .unwrap();
            });
            model.insert(key, i);
        }
        assert_eq!(fx.tree.len(&mut fx.m, TID), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(
                fx.tree.get(&mut fx.m, &mut fx.eng, TID, k.as_bytes()),
                Some(*v)
            );
        }
        // In-order traversal matches the model's key order.
        let mut keys = Vec::new();
        fx.tree
            .for_each(&mut fx.m, TID, |k, _| keys.push(k.to_vec()));
        let model_keys: Vec<Vec<u8>> = model.keys().map(|k| k.as_bytes().to_vec()).collect();
        assert_eq!(keys, model_keys);
    }

    #[test]
    fn remove_root_leaf() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"solo", 1)
                .unwrap();
            assert!(fx
                .tree
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"solo")
                .unwrap());
        });
        assert!(fx.tree.is_empty(&mut fx.m, TID));
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, b"solo"), None);
    }

    #[test]
    fn remove_inner_keys() {
        let mut fx = setup();
        let keys: Vec<String> = (0..50).map(|i| format!("k{i:03}")).collect();
        tx(&mut fx, |fx| {
            for (i, k) in keys.iter().enumerate() {
                fx.tree
                    .insert(
                        &mut fx.m,
                        &mut fx.eng,
                        TID,
                        &mut fx.alloc,
                        k.as_bytes(),
                        i as u64,
                    )
                    .unwrap();
            }
        });
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                let removed = tx(&mut fx, |fx| {
                    fx.tree
                        .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, k.as_bytes())
                        .unwrap()
                });
                assert!(removed, "{k}");
            }
        }
        for (i, k) in keys.iter().enumerate() {
            let expect = if i % 3 == 0 { None } else { Some(i as u64) };
            assert_eq!(
                fx.tree.get(&mut fx.m, &mut fx.eng, TID, k.as_bytes()),
                expect,
                "{k}"
            );
        }
    }

    #[test]
    fn remove_missing_is_false() {
        let mut fx = setup();
        tx(&mut fx, |fx| {
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"present", 1)
                .unwrap();
            assert!(!fx
                .tree
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"absent")
                .unwrap());
        });
        // Empty-tree remove:
        let mut fx2 = setup();
        tx(&mut fx2, |fx| {
            assert!(!fx
                .tree
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"x")
                .unwrap());
        });
    }

    #[test]
    fn oversized_key_rejected() {
        let mut fx = setup();
        fx.eng.begin(&mut fx.m, TID).unwrap();
        let big = vec![1u8; MAX_KEY + 1];
        assert!(matches!(
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, &big, 0),
            Err(DsError::TooLarge { .. })
        ));
        fx.eng.abort(&mut fx.m, TID).unwrap();
    }

    #[test]
    fn survives_crash() {
        let mut fx = setup();
        let base = fx.tree.base;
        tx(&mut fx, |fx| {
            for i in 0..10u64 {
                fx.tree
                    .insert(
                        &mut fx.m,
                        &mut fx.eng,
                        TID,
                        &mut fx.alloc,
                        &i.to_be_bytes(),
                        i * 10,
                    )
                    .unwrap();
            }
        });
        let img = fx.m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let pm = m2.config().map.pm;
        let mut eng2 = UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 16 << 20), 4);
        let tree2 = CritBitTree::open(&mut m2, TID, base).unwrap();
        for i in 0..10u64 {
            assert_eq!(
                tree2.get(&mut m2, &mut eng2, TID, &i.to_be_bytes()),
                Some(i * 10)
            );
        }
    }

    #[test]
    fn crash_mid_insert_rolls_back() {
        for seed in [1u64, 5, 11, 23] {
            let mut fx = setup();
            let base = fx.tree.base;
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"committed", 1)
                    .unwrap();
            });
            fx.eng.begin(&mut fx.m, TID).unwrap();
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, b"torn", 2)
                .unwrap();
            let img = fx.m.crash(memsim::CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let pm = m2.config().map.pm;
            let mut eng2 =
                UndoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 16 << 20), 4);
            let tree2 = CritBitTree::open(&mut m2, TID, base).unwrap();
            assert_eq!(
                tree2.get(&mut m2, &mut eng2, TID, b"committed"),
                Some(1),
                "seed {seed}"
            );
            assert_eq!(
                tree2.get(&mut m2, &mut eng2, TID, b"torn"),
                None,
                "seed {seed}"
            );
            assert_eq!(tree2.len(&mut m2, TID), 1, "seed {seed}");
        }
    }
}
