//! Persistent red-black tree.

use crate::header::{self, HEADER_BYTES};
use crate::DsError;
use memsim::Machine;
use pmalloc::PmAllocator;
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};
use pmtx::TxMem;

const MAGIC: u64 = 0x5052_4254_5245_4521; // "PRBTREE!"
                                          // Node: key u64, val u64, left u64, right u64, parent u64, color u64
const NODE_BYTES: u64 = 48;
const KEY: u64 = 0;
const VAL: u64 = 8;
const LEFT: u64 = 16;
const RIGHT: u64 = 24;
const PARENT: u64 = 32;
const COLOR: u64 = 40;
const RED: u64 = 1;
const BLACK: u64 = 0;

/// A persistent red-black tree mapping `u64` keys to `u64` values.
///
/// Vacation "implements a key-value store using red black trees and
/// linked lists to track customers and their reservations"
/// (Section 3.2.2); in the WHISPER port those trees live in PM and every
/// mutation runs inside a Mnemosyne transaction. This is a full CLRS
/// red-black tree — insert and delete with rotations and fixup — using
/// a PM-resident sentinel node as `nil`, so crash recovery sees a
/// complete, balanced structure.
#[derive(Debug, Clone, Copy)]
pub struct PRbTree {
    base: Addr,
    nil: Addr,
}

impl PRbTree {
    /// Create a fresh tree in `region` (header; the sentinel comes from
    /// the allocator), inside an open transaction.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one header line.
    pub fn create<E: TxMem, A: PmAllocator>(
        m: &mut Machine,
        eng: &mut E,
        tid: Tid,
        alloc: &mut A,
        region: AddrRange,
    ) -> Result<PRbTree, DsError> {
        assert!(region.len >= HEADER_BYTES, "rb-tree region too small");
        let mut w = memsim::PmWriter::new(tid);
        let nil = alloc.alloc(m, &mut w, NODE_BYTES)?;
        eng.tx_write_u64(m, tid, nil + COLOR, BLACK, Category::UserData)?;
        eng.tx_write_u64(m, tid, region.base, MAGIC, Category::AppMeta)?;
        eng.tx_write_u64(m, tid, region.base + 8, nil, Category::AppMeta)?; // root
        eng.tx_write_u64(m, tid, region.base + 24, nil, Category::AppMeta)?; // nil
        Ok(PRbTree {
            base: region.base,
            nil,
        })
    }

    /// Re-attach after a crash.
    ///
    /// # Errors
    ///
    /// [`DsError::BadHeader`] if `base` does not hold a tree.
    pub fn open(m: &mut Machine, tid: Tid, base: Addr) -> Result<PRbTree, DsError> {
        header::open(m, tid, base, MAGIC)?;
        let nil = m.load_u64(tid, base + 24);
        Ok(PRbTree { base, nil })
    }

    /// Number of keys (sums the per-thread count shards).
    pub fn len(&self, m: &mut Machine, tid: Tid) -> u64 {
        header::len(m, tid, self.base)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self, m: &mut Machine, tid: Tid) -> bool {
        self.len(m, tid) == 0
    }

    fn g<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid, n: Addr, off: u64) -> u64 {
        e.tx_read_u64(m, tid, n + off)
    }

    fn s<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        n: Addr,
        off: u64,
        v: u64,
    ) -> Result<(), DsError> {
        e.tx_write_u64(m, tid, n + off, v, Category::UserData)?;
        Ok(())
    }

    fn root<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid) -> u64 {
        e.tx_read_u64(m, tid, self.base + 8)
    }

    fn set_root<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        n: u64,
    ) -> Result<(), DsError> {
        e.tx_write_u64(m, tid, self.base + 8, n, Category::UserData)?;
        Ok(())
    }

    fn find_node<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid, key: u64) -> Addr {
        let mut x = self.root(m, e, tid);
        while x != self.nil {
            let k = self.g(m, e, tid, x, KEY);
            if key == k {
                return x;
            }
            x = self.g(m, e, tid, x, if key < k { LEFT } else { RIGHT });
        }
        self.nil
    }

    /// Look up `key`.
    pub fn get<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid, key: u64) -> Option<u64> {
        let n = self.find_node(m, e, tid, key);
        (n != self.nil).then(|| self.g(m, e, tid, n, VAL))
    }

    fn rotate_left<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        x: Addr,
    ) -> Result<(), DsError> {
        let y = self.g(m, e, tid, x, RIGHT);
        let yl = self.g(m, e, tid, y, LEFT);
        self.s(m, e, tid, x, RIGHT, yl)?;
        if yl != self.nil {
            self.s(m, e, tid, yl, PARENT, x)?;
        }
        let xp = self.g(m, e, tid, x, PARENT);
        self.s(m, e, tid, y, PARENT, xp)?;
        if xp == self.nil {
            self.set_root(m, e, tid, y)?;
        } else if self.g(m, e, tid, xp, LEFT) == x {
            self.s(m, e, tid, xp, LEFT, y)?;
        } else {
            self.s(m, e, tid, xp, RIGHT, y)?;
        }
        self.s(m, e, tid, y, LEFT, x)?;
        self.s(m, e, tid, x, PARENT, y)?;
        Ok(())
    }

    fn rotate_right<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        x: Addr,
    ) -> Result<(), DsError> {
        let y = self.g(m, e, tid, x, LEFT);
        let yr = self.g(m, e, tid, y, RIGHT);
        self.s(m, e, tid, x, LEFT, yr)?;
        if yr != self.nil {
            self.s(m, e, tid, yr, PARENT, x)?;
        }
        let xp = self.g(m, e, tid, x, PARENT);
        self.s(m, e, tid, y, PARENT, xp)?;
        if xp == self.nil {
            self.set_root(m, e, tid, y)?;
        } else if self.g(m, e, tid, xp, RIGHT) == x {
            self.s(m, e, tid, xp, RIGHT, y)?;
        } else {
            self.s(m, e, tid, xp, LEFT, y)?;
        }
        self.s(m, e, tid, y, RIGHT, x)?;
        self.s(m, e, tid, x, PARENT, y)?;
        Ok(())
    }

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
        // Search for existing key.
        let existing = self.find_node(m, e, tid, key);
        if existing != self.nil {
            self.s(m, e, tid, existing, VAL, val)?;
            return Ok(false);
        }
        let mut w = memsim::PmWriter::new(tid);
        let z = alloc.alloc(m, &mut w, NODE_BYTES)?;
        self.s(m, e, tid, z, KEY, key)?;
        self.s(m, e, tid, z, VAL, val)?;
        // BST insert.
        let mut y = self.nil;
        let mut x = self.root(m, e, tid);
        while x != self.nil {
            y = x;
            let k = self.g(m, e, tid, x, KEY);
            x = self.g(m, e, tid, x, if key < k { LEFT } else { RIGHT });
        }
        self.s(m, e, tid, z, PARENT, y)?;
        if y == self.nil {
            self.set_root(m, e, tid, z)?;
        } else if key < self.g(m, e, tid, y, KEY) {
            self.s(m, e, tid, y, LEFT, z)?;
        } else {
            self.s(m, e, tid, y, RIGHT, z)?;
        }
        self.s(m, e, tid, z, LEFT, self.nil)?;
        self.s(m, e, tid, z, RIGHT, self.nil)?;
        self.s(m, e, tid, z, COLOR, RED)?;
        self.insert_fixup(m, e, tid, z)?;
        header::bump(m, e, tid, self.base, 1)?;
        Ok(true)
    }

    fn insert_fixup<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        mut z: Addr,
    ) -> Result<(), DsError> {
        loop {
            let zp0 = self.g(m, e, tid, z, PARENT);
            if self.g(m, e, tid, zp0, COLOR) != RED {
                break;
            }
            let zp = self.g(m, e, tid, z, PARENT);
            let zpp = self.g(m, e, tid, zp, PARENT);
            if zp == self.g(m, e, tid, zpp, LEFT) {
                let y = self.g(m, e, tid, zpp, RIGHT); // uncle
                if self.g(m, e, tid, y, COLOR) == RED {
                    self.s(m, e, tid, zp, COLOR, BLACK)?;
                    self.s(m, e, tid, y, COLOR, BLACK)?;
                    self.s(m, e, tid, zpp, COLOR, RED)?;
                    z = zpp;
                } else {
                    if z == self.g(m, e, tid, zp, RIGHT) {
                        z = zp;
                        self.rotate_left(m, e, tid, z)?;
                    }
                    let zp = self.g(m, e, tid, z, PARENT);
                    let zpp = self.g(m, e, tid, zp, PARENT);
                    self.s(m, e, tid, zp, COLOR, BLACK)?;
                    self.s(m, e, tid, zpp, COLOR, RED)?;
                    self.rotate_right(m, e, tid, zpp)?;
                }
            } else {
                let y = self.g(m, e, tid, zpp, LEFT);
                if self.g(m, e, tid, y, COLOR) == RED {
                    self.s(m, e, tid, zp, COLOR, BLACK)?;
                    self.s(m, e, tid, y, COLOR, BLACK)?;
                    self.s(m, e, tid, zpp, COLOR, RED)?;
                    z = zpp;
                } else {
                    if z == self.g(m, e, tid, zp, LEFT) {
                        z = zp;
                        self.rotate_right(m, e, tid, z)?;
                    }
                    let zp = self.g(m, e, tid, z, PARENT);
                    let zpp = self.g(m, e, tid, zp, PARENT);
                    self.s(m, e, tid, zp, COLOR, BLACK)?;
                    self.s(m, e, tid, zpp, COLOR, RED)?;
                    self.rotate_left(m, e, tid, zpp)?;
                }
            }
        }
        let root = self.root(m, e, tid);
        self.s(m, e, tid, root, COLOR, BLACK)?;
        Ok(())
    }

    fn transplant<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        u: Addr,
        v: Addr,
    ) -> Result<(), DsError> {
        let up = self.g(m, e, tid, u, PARENT);
        if up == self.nil {
            self.set_root(m, e, tid, v)?;
        } else if u == self.g(m, e, tid, up, LEFT) {
            self.s(m, e, tid, up, LEFT, v)?;
        } else {
            self.s(m, e, tid, up, RIGHT, v)?;
        }
        self.s(m, e, tid, v, PARENT, up)?;
        Ok(())
    }

    fn minimum<E: TxMem>(&self, m: &mut Machine, e: &mut E, tid: Tid, mut x: Addr) -> Addr {
        loop {
            let l = self.g(m, e, tid, x, LEFT);
            if l == self.nil {
                return x;
            }
            x = l;
        }
    }

    /// Remove `key`; returns whether it was present.
    ///
    /// # Errors
    ///
    /// Engine/allocator errors.
    pub fn remove<E: TxMem, A: PmAllocator>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        alloc: &mut A,
        key: u64,
    ) -> Result<bool, DsError> {
        let z = self.find_node(m, e, tid, key);
        if z == self.nil {
            return Ok(false);
        }
        let mut y = z;
        let mut y_color = self.g(m, e, tid, y, COLOR);
        let x;
        let zl = self.g(m, e, tid, z, LEFT);
        let zr = self.g(m, e, tid, z, RIGHT);
        if zl == self.nil {
            x = zr;
            self.transplant(m, e, tid, z, zr)?;
        } else if zr == self.nil {
            x = zl;
            self.transplant(m, e, tid, z, zl)?;
        } else {
            y = self.minimum(m, e, tid, zr);
            y_color = self.g(m, e, tid, y, COLOR);
            x = self.g(m, e, tid, y, RIGHT);
            if self.g(m, e, tid, y, PARENT) == z {
                self.s(m, e, tid, x, PARENT, y)?;
            } else {
                let yr = self.g(m, e, tid, y, RIGHT);
                self.transplant(m, e, tid, y, yr)?;
                let zr = self.g(m, e, tid, z, RIGHT);
                self.s(m, e, tid, y, RIGHT, zr)?;
                self.s(m, e, tid, zr, PARENT, y)?;
            }
            self.transplant(m, e, tid, z, y)?;
            let zl = self.g(m, e, tid, z, LEFT);
            self.s(m, e, tid, y, LEFT, zl)?;
            self.s(m, e, tid, zl, PARENT, y)?;
            let zc = self.g(m, e, tid, z, COLOR);
            self.s(m, e, tid, y, COLOR, zc)?;
        }
        if y_color == BLACK {
            self.delete_fixup(m, e, tid, x)?;
        }
        let mut w = memsim::PmWriter::new(tid);
        alloc.free(m, &mut w, z)?;
        header::bump(m, e, tid, self.base, -1)?;
        Ok(true)
    }

    fn delete_fixup<E: TxMem>(
        &self,
        m: &mut Machine,
        e: &mut E,
        tid: Tid,
        mut x: Addr,
    ) -> Result<(), DsError> {
        while x != self.root(m, e, tid) && self.g(m, e, tid, x, COLOR) == BLACK {
            let xp = self.g(m, e, tid, x, PARENT);
            if x == self.g(m, e, tid, xp, LEFT) {
                let mut w = self.g(m, e, tid, xp, RIGHT);
                if self.g(m, e, tid, w, COLOR) == RED {
                    self.s(m, e, tid, w, COLOR, BLACK)?;
                    self.s(m, e, tid, xp, COLOR, RED)?;
                    self.rotate_left(m, e, tid, xp)?;
                    let xp2 = self.g(m, e, tid, x, PARENT);
                    w = self.g(m, e, tid, xp2, RIGHT);
                }
                let wl = self.g(m, e, tid, w, LEFT);
                let wr = self.g(m, e, tid, w, RIGHT);
                if self.g(m, e, tid, wl, COLOR) == BLACK && self.g(m, e, tid, wr, COLOR) == BLACK {
                    self.s(m, e, tid, w, COLOR, RED)?;
                    x = self.g(m, e, tid, x, PARENT);
                } else {
                    if self.g(m, e, tid, wr, COLOR) == BLACK {
                        self.s(m, e, tid, wl, COLOR, BLACK)?;
                        self.s(m, e, tid, w, COLOR, RED)?;
                        self.rotate_right(m, e, tid, w)?;
                        let xp2 = self.g(m, e, tid, x, PARENT);
                        w = self.g(m, e, tid, xp2, RIGHT);
                    }
                    let xp = self.g(m, e, tid, x, PARENT);
                    let xpc = self.g(m, e, tid, xp, COLOR);
                    self.s(m, e, tid, w, COLOR, xpc)?;
                    self.s(m, e, tid, xp, COLOR, BLACK)?;
                    let wr = self.g(m, e, tid, w, RIGHT);
                    self.s(m, e, tid, wr, COLOR, BLACK)?;
                    self.rotate_left(m, e, tid, xp)?;
                    x = self.root(m, e, tid);
                }
            } else {
                let mut w = self.g(m, e, tid, xp, LEFT);
                if self.g(m, e, tid, w, COLOR) == RED {
                    self.s(m, e, tid, w, COLOR, BLACK)?;
                    self.s(m, e, tid, xp, COLOR, RED)?;
                    self.rotate_right(m, e, tid, xp)?;
                    let xp2 = self.g(m, e, tid, x, PARENT);
                    w = self.g(m, e, tid, xp2, LEFT);
                }
                let wl = self.g(m, e, tid, w, LEFT);
                let wr = self.g(m, e, tid, w, RIGHT);
                if self.g(m, e, tid, wr, COLOR) == BLACK && self.g(m, e, tid, wl, COLOR) == BLACK {
                    self.s(m, e, tid, w, COLOR, RED)?;
                    x = self.g(m, e, tid, x, PARENT);
                } else {
                    if self.g(m, e, tid, wl, COLOR) == BLACK {
                        self.s(m, e, tid, wr, COLOR, BLACK)?;
                        self.s(m, e, tid, w, COLOR, RED)?;
                        self.rotate_left(m, e, tid, w)?;
                        let xp2 = self.g(m, e, tid, x, PARENT);
                        w = self.g(m, e, tid, xp2, LEFT);
                    }
                    let xp = self.g(m, e, tid, x, PARENT);
                    let xpc = self.g(m, e, tid, xp, COLOR);
                    self.s(m, e, tid, w, COLOR, xpc)?;
                    self.s(m, e, tid, xp, COLOR, BLACK)?;
                    let wl = self.g(m, e, tid, w, LEFT);
                    self.s(m, e, tid, wl, COLOR, BLACK)?;
                    self.rotate_right(m, e, tid, xp)?;
                    x = self.root(m, e, tid);
                }
            }
        }
        self.s(m, e, tid, x, COLOR, BLACK)?;
        Ok(())
    }

    /// Visit `(key, value)` pairs in ascending key order
    /// (non-transactional).
    pub fn for_each(&self, m: &mut Machine, tid: Tid, mut f: impl FnMut(u64, u64)) {
        fn walk(m: &mut Machine, tid: Tid, nil: Addr, n: Addr, f: &mut impl FnMut(u64, u64)) {
            if n == nil {
                return;
            }
            let l = m.load_u64(tid, n + LEFT);
            let r = m.load_u64(tid, n + RIGHT);
            let k = m.load_u64(tid, n + KEY);
            let v = m.load_u64(tid, n + VAL);
            walk(m, tid, nil, l, f);
            f(k, v);
            walk(m, tid, nil, r, f);
        }
        let root = m.load_u64(tid, self.base + 8);
        walk(m, tid, self.nil, root, &mut f);
    }

    /// Check the red-black invariants (BST order, red nodes have black
    /// children, equal black-heights). Non-transactional; used by tests
    /// and recovery assertions.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self, m: &mut Machine, tid: Tid) -> Result<(), String> {
        let root = m.load_u64(tid, self.base + 8);
        if root == self.nil {
            return Ok(());
        }
        if m.load_u64(tid, root + COLOR) != BLACK {
            return Err("root is not black".into());
        }
        fn check(
            m: &mut Machine,
            tid: Tid,
            nil: Addr,
            n: Addr,
            lo: Option<u64>,
            hi: Option<u64>,
        ) -> Result<u64, String> {
            if n == nil {
                return Ok(1); // nil is black
            }
            let k = m.load_u64(tid, n + KEY);
            if let Some(lo) = lo {
                if k <= lo {
                    return Err(format!("BST violation: {k} <= {lo}"));
                }
            }
            if let Some(hi) = hi {
                if k >= hi {
                    return Err(format!("BST violation: {k} >= {hi}"));
                }
            }
            let c = m.load_u64(tid, n + COLOR);
            let l = m.load_u64(tid, n + LEFT);
            let r = m.load_u64(tid, n + RIGHT);
            if c == RED {
                if l != nil && m.load_u64(tid, l + COLOR) == RED {
                    return Err(format!("red node {n:#x} has red left child"));
                }
                if r != nil && m.load_u64(tid, r + COLOR) == RED {
                    return Err(format!("red node {n:#x} has red right child"));
                }
            }
            let bl = check(m, tid, nil, l, lo, Some(k))?;
            let br = check(m, tid, nil, r, Some(k), hi)?;
            if bl != br {
                return Err(format!("black-height mismatch at {n:#x}: {bl} vs {br}"));
            }
            Ok(bl + if c == BLACK { 1 } else { 0 })
        }
        check(m, tid, self.nil, root, None, None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;
    use pmalloc::SlabBitmapAlloc;
    use pmtx::RedoTxEngine;

    const TID: Tid = Tid(0);

    struct Fix {
        m: Machine,
        eng: RedoTxEngine,
        alloc: SlabBitmapAlloc,
        tree: PRbTree,
    }

    fn setup() -> Fix {
        let mut m = Machine::new(MachineConfig::asplos17());
        let pm = m.config().map.pm;
        let mut eng = RedoTxEngine::format(&mut m, AddrRange::new(pm.base, 4 << 20), 4);
        let mut w = memsim::PmWriter::new(TID);
        let alloc = SlabBitmapAlloc::format(
            &mut m,
            &mut w,
            AddrRange::new(pm.base + (4 << 20), 16 << 20),
        );
        let mut alloc = alloc;
        eng.begin(&mut m, TID).unwrap();
        let tree = PRbTree::create(
            &mut m,
            &mut eng,
            TID,
            &mut alloc,
            AddrRange::new(pm.base + (24 << 20), HEADER_BYTES),
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
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 10, 100)
                .unwrap());
            assert!(!fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 10, 200)
                .unwrap());
        });
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, 10), Some(200));
        assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, 11), None);
        assert_eq!(fx.tree.len(&mut fx.m, TID), 1);
        fx.tree.check_invariants(&mut fx.m, TID).unwrap();
    }

    #[test]
    fn remove_on_a_different_thread_keeps_len_exact() {
        // Count shards are picked by tid: thread 1 removing what thread
        // 0 inserted drives shard 1 negative (mod 2^64). The total
        // must still come back to exactly 0.
        let mut fx = setup();
        let (t0, t1) = (Tid(0), Tid(1));
        for k in [10u64, 20, 30] {
            fx.eng.begin(&mut fx.m, t0).unwrap();
            let fresh = fx
                .tree
                .insert(&mut fx.m, &mut fx.eng, t0, &mut fx.alloc, k, 1);
            assert!(fresh.unwrap());
            fx.eng.commit(&mut fx.m, t0).unwrap();
        }
        assert_eq!(fx.tree.len(&mut fx.m, t1), 3);
        for k in [10u64, 20, 30] {
            fx.eng.begin(&mut fx.m, t1).unwrap();
            let removed = fx.tree.remove(&mut fx.m, &mut fx.eng, t1, &mut fx.alloc, k);
            assert!(removed.unwrap());
            fx.eng.commit(&mut fx.m, t1).unwrap();
        }
        assert_eq!(fx.tree.len(&mut fx.m, t0), 0);
        assert!(fx.tree.is_empty(&mut fx.m, t1));
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        let mut fx = setup();
        // Sequential keys are the classic BST worst case; RB fixup must
        // keep invariants.
        for i in 0..100u64 {
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i, i * 2)
                    .unwrap();
            });
        }
        fx.tree.check_invariants(&mut fx.m, TID).unwrap();
        assert_eq!(fx.tree.len(&mut fx.m, TID), 100);
        for i in 0..100u64 {
            assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, i), Some(i * 2));
        }
        // In-order traversal is sorted.
        let mut keys = Vec::new();
        fx.tree.for_each(&mut fx.m, TID, |k, _| keys.push(k));
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn random_ops_match_btreemap() {
        let mut fx = setup();
        let mut model = std::collections::BTreeMap::new();
        let mut state = 777u64;
        for _ in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state % 64;
            let op = (state >> 32) % 3;
            tx(&mut fx, |fx| match op {
                0 | 1 => {
                    let fresh = fx
                        .tree
                        .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, key, state)
                        .unwrap();
                    assert_eq!(fresh, model.insert(key, state).is_none());
                }
                _ => {
                    let removed = fx
                        .tree
                        .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, key)
                        .unwrap();
                    assert_eq!(removed, model.remove(&key).is_some());
                }
            });
            fx.tree.check_invariants(&mut fx.m, TID).unwrap();
        }
        assert_eq!(fx.tree.len(&mut fx.m, TID), model.len() as u64);
        for (k, v) in &model {
            assert_eq!(fx.tree.get(&mut fx.m, &mut fx.eng, TID, *k), Some(*v));
        }
    }

    #[test]
    fn remove_all_keys() {
        let mut fx = setup();
        let keys: Vec<u64> = vec![50, 25, 75, 10, 30, 60, 90, 5, 15, 27, 35];
        tx(&mut fx, |fx| {
            for &k in &keys {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, k, k)
                    .unwrap();
            }
        });
        for &k in &keys {
            let removed = tx(&mut fx, |fx| {
                fx.tree
                    .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, k)
                    .unwrap()
            });
            assert!(removed, "key {k}");
            fx.tree.check_invariants(&mut fx.m, TID).unwrap();
        }
        assert!(fx.tree.is_empty(&mut fx.m, TID));
    }

    #[test]
    fn remove_missing_is_false() {
        let mut fx = setup();
        let removed = tx(&mut fx, |fx| {
            fx.tree
                .remove(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 42)
                .unwrap()
        });
        assert!(!removed);
    }

    #[test]
    fn survives_crash_with_invariants() {
        let mut fx = setup();
        let base = fx.tree.base;
        for i in 0..40u64 {
            tx(&mut fx, |fx| {
                fx.tree
                    .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i * 7 % 41, i)
                    .unwrap();
            });
        }
        let img = fx.m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let pm = m2.config().map.pm;
        let _ = RedoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 4 << 20), 4);
        let tree2 = PRbTree::open(&mut m2, TID, base).unwrap();
        tree2.check_invariants(&mut m2, TID).unwrap();
        assert_eq!(tree2.len(&mut m2, TID), 40);
    }

    #[test]
    fn crash_mid_tx_preserves_invariants() {
        for seed in [2u64, 9, 17, 31] {
            let mut fx = setup();
            let base = fx.tree.base;
            for i in 0..20u64 {
                tx(&mut fx, |fx| {
                    fx.tree
                        .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, i, i)
                        .unwrap();
                });
            }
            // Crash mid-insert (uncommitted redo tx: data untouched).
            fx.eng.begin(&mut fx.m, TID).unwrap();
            fx.tree
                .insert(&mut fx.m, &mut fx.eng, TID, &mut fx.alloc, 1000, 1)
                .unwrap();
            let img = fx.m.crash(memsim::CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            let pm = m2.config().map.pm;
            let _ = RedoTxEngine::recover(&mut m2, TID, AddrRange::new(pm.base, 4 << 20), 4);
            let tree2 = PRbTree::open(&mut m2, TID, base).unwrap();
            tree2.check_invariants(&mut m2, TID).unwrap();
            assert_eq!(tree2.len(&mut m2, TID), 20, "seed {seed}");
            let mut eng2 =
                RedoTxEngine::format(&mut m2, AddrRange::new(pm.base + (40 << 20), 4 << 20), 4);
            assert_eq!(
                tree2.get(&mut m2, &mut eng2, TID, 1000),
                None,
                "seed {seed}"
            );
        }
    }
}
