//! Mnemosyne-style multi-slab bitmap allocator.

use crate::{AllocError, AllocStats, PmAllocator};
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const MAGIC: u64 = 0x534c_4142_4d41_5021; // "SLABMAP!"
const MAX_SLABS: u64 = 256;
const SLAB_BYTES: u64 = 64 * 1024;
const BITMAP_BYTES: u64 = 256; // 2048 blocks max per slab
const DIR_ENTRY_BYTES: u64 = 8; // class_size u32 + used u32
const HEADER_BYTES: u64 = 64 + MAX_SLABS * DIR_ENTRY_BYTES;

/// The size classes, matching a multiple-slab allocator "with multiple
/// slabs for different allocation sizes, as in Mnemosyne and NVML"
/// (Section 5.2).
pub(crate) const CLASSES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[derive(Debug, Clone)]
struct SlabState {
    class: u64,
    /// Volatile mirror of the persistent bitmap (bit set = allocated).
    bitmap: Vec<u8>,
    free_blocks: u32,
}

/// Mnemosyne-style persistent allocator: slabs of power-of-two size
/// classes with a persistent allocation bitmap per slab and volatile
/// indexes for speed.
///
/// "Allocators with multiple slabs for different allocation sizes ...
/// store a bitmap of allocated blocks and use volatile structures to
/// speed allocation. Mnemosyne's allocator can leak memory if a power
/// failure occurs during a transaction, but does not create more
/// epochs." (Section 5.2.) Accordingly, `alloc` persists exactly one
/// small bitmap update in its own epoch — the singleton, <10 B epochs
/// the paper traces back to allocators — and makes no attempt at
/// atomicity with the enclosing transaction: a crash between the bitmap
/// update and the transaction commit leaks the block, and
/// [`SlabBitmapAlloc::leaked_blocks`] implements the garbage-collection
/// sweep the paper suggests as the remedy (Consequence 8).
///
/// Blocks are aligned to their size class.
#[derive(Debug, Clone)]
pub struct SlabBitmapAlloc {
    region: AddrRange,
    slabs: Vec<SlabState>,
    /// Per-class list of slab indices that have free blocks.
    nonfull: Vec<Vec<usize>>,
    allocated_bytes: u64,
    stats: AllocStats,
}

impl SlabBitmapAlloc {
    fn class_index(size: u64) -> Result<usize, AllocError> {
        if size == 0 {
            return Err(AllocError::BadSize { requested: 0 });
        }
        CLASSES
            .iter()
            .position(|&c| c >= size)
            .ok_or(AllocError::BadSize { requested: size })
    }

    fn blocks_per_slab(class: u64) -> u32 {
        let payload = SLAB_BYTES - BITMAP_BYTES;
        ((payload / class) as u32).min((BITMAP_BYTES * 8) as u32)
    }

    fn slab_base(&self, idx: usize) -> Addr {
        self.region.base + HEADER_BYTES + idx as u64 * SLAB_BYTES
    }

    fn dir_entry_addr(&self, idx: usize) -> Addr {
        self.region.base + 64 + idx as u64 * DIR_ENTRY_BYTES
    }

    fn block_addr(&self, slab_idx: usize, block: u32) -> Addr {
        let s = &self.slabs[slab_idx];
        self.slab_base(slab_idx) + BITMAP_BYTES + block as u64 * s.class
    }

    /// Format a fresh allocator over `region` (must be in PM and large
    /// enough for the directory plus at least one slab).
    ///
    /// # Panics
    ///
    /// Panics if the region is too small.
    pub fn format(m: &mut Machine, w: &mut PmWriter, region: AddrRange) -> SlabBitmapAlloc {
        assert!(
            region.len >= HEADER_BYTES + SLAB_BYTES,
            "region too small for slab allocator: {} bytes",
            region.len
        );
        w.write_u64(m, region.base, MAGIC, Category::AllocMeta);
        // Zero the directory so recovery sees no slabs.
        w.write(
            m,
            region.base + 64,
            &vec![0u8; (MAX_SLABS * DIR_ENTRY_BYTES) as usize],
            Category::AllocMeta,
        );
        w.ordering_fence(m);
        SlabBitmapAlloc {
            region,
            slabs: Vec::new(),
            nonfull: vec![Vec::new(); CLASSES.len()],
            allocated_bytes: 0,
            stats: AllocStats::default(),
        }
    }

    /// Rebuild the allocator after a crash by scanning the persistent
    /// directory and bitmaps (Mnemosyne rebuilds its volatile indexes
    /// the same way).
    ///
    /// # Panics
    ///
    /// Panics if `region` does not hold a formatted allocator.
    pub fn recover(m: &mut Machine, tid: Tid, region: AddrRange) -> SlabBitmapAlloc {
        let magic = m.load_u64(tid, region.base);
        assert_eq!(magic, MAGIC, "no slab allocator at {:#x}", region.base);
        let mut a = SlabBitmapAlloc {
            region,
            slabs: Vec::new(),
            nonfull: vec![Vec::new(); CLASSES.len()],
            allocated_bytes: 0,
            stats: AllocStats::default(),
        };
        for idx in 0..MAX_SLABS as usize {
            let entry = a.dir_entry_addr(idx);
            let class = m.load_u32(tid, entry) as u64;
            let used = m.load_u32(tid, entry + 4);
            if used == 0 {
                break; // slabs are claimed densely
            }
            let bitmap = m.load_vec(tid, a.slab_base(idx), BITMAP_BYTES as usize);
            let blocks = Self::blocks_per_slab(class);
            let mut free = 0;
            let mut used_blocks = 0u64;
            for b in 0..blocks {
                if bitmap[(b / 8) as usize] & (1 << (b % 8)) == 0 {
                    free += 1;
                } else {
                    used_blocks += 1;
                }
            }
            a.allocated_bytes += used_blocks * class;
            let ci = Self::class_index(class).expect("valid persisted class");
            if free > 0 {
                a.nonfull[ci].push(idx);
            }
            a.slabs.push(SlabState {
                class,
                bitmap,
                free_blocks: free,
            });
        }
        a
    }

    fn grow(&mut self, m: &mut Machine, w: &mut PmWriter, ci: usize) -> Result<usize, AllocError> {
        let idx = self.slabs.len();
        let class = CLASSES[ci];
        if idx as u64 >= MAX_SLABS || self.slab_base(idx) + SLAB_BYTES > self.region.end() {
            return Err(AllocError::OutOfMemory { requested: class });
        }
        // Persist the directory claim; the bitmap area is zero (all
        // free) by formatting invariant.
        let entry = self.dir_entry_addr(idx);
        w.write_u32(m, entry, class as u32, Category::AllocMeta);
        w.write_u32(m, entry + 4, 1, Category::AllocMeta);
        // Zero the bitmap persistently in case the region is recycled.
        w.write(
            m,
            self.slab_base(idx),
            &[0u8; BITMAP_BYTES as usize],
            Category::AllocMeta,
        );
        w.ordering_fence(m);
        self.slabs.push(SlabState {
            class,
            bitmap: vec![0; BITMAP_BYTES as usize],
            free_blocks: Self::blocks_per_slab(class),
        });
        self.nonfull[ci].push(idx);
        Ok(idx)
    }

    fn locate(&self, addr: Addr) -> Option<(usize, u32)> {
        if addr < self.region.base + HEADER_BYTES {
            return None;
        }
        let off = addr - self.region.base - HEADER_BYTES;
        let slab_idx = (off / SLAB_BYTES) as usize;
        if slab_idx >= self.slabs.len() {
            return None;
        }
        let s = &self.slabs[slab_idx];
        let inner = off % SLAB_BYTES;
        if inner < BITMAP_BYTES {
            return None;
        }
        let rel = inner - BITMAP_BYTES;
        if !rel.is_multiple_of(s.class) {
            return None;
        }
        let block = (rel / s.class) as u32;
        if block >= Self::blocks_per_slab(s.class) {
            return None;
        }
        Some((slab_idx, block))
    }

    /// Blocks whose bitmap bit is set but that `is_live` does not
    /// recognize — leaked by a crash mid-transaction. The caller can
    /// free them, implementing the paper's suggested GC pass.
    pub fn leaked_blocks(&self, is_live: impl Fn(Addr) -> bool) -> Vec<Addr> {
        let mut leaked = Vec::new();
        for (idx, s) in self.slabs.iter().enumerate() {
            for b in 0..Self::blocks_per_slab(s.class) {
                if s.bitmap[(b / 8) as usize] & (1 << (b % 8)) != 0 {
                    let addr = self.block_addr(idx, b);
                    if !is_live(addr) {
                        leaked.push(addr);
                    }
                }
            }
        }
        leaked
    }

    /// Allocation/free/split/merge counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Free every leaked block (allocated in the bitmap but not
    /// recognized by `is_live`) — the garbage-collection sweep the
    /// paper suggests to make leak-on-crash allocation safe
    /// (Consequence 8, citing Makalu-style GC). Returns the number of
    /// blocks reclaimed.
    pub fn reclaim_leaked(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        is_live: impl Fn(Addr) -> bool,
    ) -> usize {
        let leaked = self.leaked_blocks(is_live);
        let n = leaked.len();
        for addr in leaked {
            self.free(m, w, addr).expect("leaked block is allocated");
        }
        n
    }
}

impl PmAllocator for SlabBitmapAlloc {
    fn alloc(&mut self, m: &mut Machine, w: &mut PmWriter, size: u64) -> Result<Addr, AllocError> {
        let ci = Self::class_index(size)?;
        let slab_idx = loop {
            match self.nonfull[ci].last() {
                Some(&idx) => break idx,
                None => {
                    self.grow(m, w, ci)?;
                }
            }
        };
        let blocks = Self::blocks_per_slab(CLASSES[ci]);
        let s = &mut self.slabs[slab_idx];
        let block = (0..blocks)
            .find(|b| s.bitmap[(b / 8) as usize] & (1 << (b % 8)) == 0)
            .expect("nonfull slab has a free block");
        s.bitmap[(block / 8) as usize] |= 1 << (block % 8);
        s.free_blocks -= 1;
        if s.free_blocks == 0 {
            self.nonfull[ci].retain(|&i| i != slab_idx);
        }
        let byte = self.slabs[slab_idx].bitmap[(block / 8) as usize];
        // The persistent metadata update: one byte, own epoch.
        let bm_addr = self.slab_base(slab_idx) + (block / 8) as u64;
        w.write(m, bm_addr, &[byte], Category::AllocMeta);
        w.ordering_fence(m);
        self.allocated_bytes += CLASSES[ci];
        self.stats.allocs += 1;
        Ok(self.block_addr(slab_idx, block))
    }

    fn free(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr) -> Result<(), AllocError> {
        let (slab_idx, block) = self.locate(addr).ok_or(AllocError::InvalidFree { addr })?;
        let s = &mut self.slabs[slab_idx];
        let mask = 1u8 << (block % 8);
        if s.bitmap[(block / 8) as usize] & mask == 0 {
            return Err(AllocError::InvalidFree { addr });
        }
        s.bitmap[(block / 8) as usize] &= !mask;
        s.free_blocks += 1;
        let class = s.class;
        let byte = s.bitmap[(block / 8) as usize];
        let ci = Self::class_index(class).expect("valid class");
        if !self.nonfull[ci].contains(&slab_idx) {
            self.nonfull[ci].push(slab_idx);
        }
        let bm_addr = self.slab_base(slab_idx) + (block / 8) as u64;
        w.write(m, bm_addr, &[byte], Category::AllocMeta);
        w.ordering_fence(m);
        self.allocated_bytes -= class;
        self.stats.frees += 1;
        Ok(())
    }

    fn region(&self) -> AddrRange {
        self.region
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;

    fn setup() -> (Machine, PmWriter, SlabBitmapAlloc) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut w = PmWriter::new(Tid(0));
        let base = m.config().map.pm.base;
        let a = SlabBitmapAlloc::format(&mut m, &mut w, AddrRange::new(base, 4 << 20));
        (m, w, a)
    }

    #[test]
    fn alloc_returns_class_aligned_distinct_blocks() {
        let (mut m, mut w, mut a) = setup();
        let p1 = a.alloc(&mut m, &mut w, 40).unwrap(); // class 64
        let p2 = a.alloc(&mut m, &mut w, 40).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(p1 % 64, 0);
        assert_eq!(a.allocated_bytes(), 128);
    }

    #[test]
    fn free_then_realloc_reuses() {
        let (mut m, mut w, mut a) = setup();
        let p1 = a.alloc(&mut m, &mut w, 64).unwrap();
        a.free(&mut m, &mut w, p1).unwrap();
        let p2 = a.alloc(&mut m, &mut w, 64).unwrap();
        assert_eq!(p1, p2, "LIFO-ish reuse causes the paper's dependencies");
        assert_eq!(a.allocated_bytes(), 64);
    }

    #[test]
    fn zero_and_oversize_rejected() {
        let (mut m, mut w, mut a) = setup();
        assert_eq!(
            a.alloc(&mut m, &mut w, 0),
            Err(AllocError::BadSize { requested: 0 })
        );
        assert!(matches!(
            a.alloc(&mut m, &mut w, 8192),
            Err(AllocError::BadSize { .. })
        ));
    }

    #[test]
    fn invalid_free_rejected() {
        let (mut m, mut w, mut a) = setup();
        let p = a.alloc(&mut m, &mut w, 64).unwrap();
        assert!(a.free(&mut m, &mut w, p + 1).is_err());
        a.free(&mut m, &mut w, p).unwrap();
        assert!(a.free(&mut m, &mut w, p).is_err(), "double free rejected");
    }

    #[test]
    fn different_classes_use_different_slabs() {
        let (mut m, mut w, mut a) = setup();
        let small = a.alloc(&mut m, &mut w, 16).unwrap();
        let big = a.alloc(&mut m, &mut w, 4096).unwrap();
        assert_ne!(small / SLAB_BYTES, big / SLAB_BYTES);
        assert_eq!(big % 4096 % 64, 0);
    }

    #[test]
    fn metadata_epochs_are_small_singletons() {
        let (mut m, mut w, mut a) = setup();
        a.alloc(&mut m, &mut w, 64).unwrap(); // warm: creates the slab
        let before = pmtrace::analysis::split_epochs(m.trace().events()).len();
        a.alloc(&mut m, &mut w, 64).unwrap();
        let epochs = pmtrace::analysis::split_epochs(m.trace().events());
        let new: Vec<_> = epochs[before..].iter().collect();
        assert_eq!(new.len(), 1, "one epoch per alloc");
        assert!(new[0].is_singleton());
        assert!(new[0].bytes < 10, "bitmap update is a few bytes");
        assert_eq!(
            new[0].bytes_by_cat[Category::AllocMeta.index()],
            new[0].bytes
        );
    }

    #[test]
    fn recover_after_clean_persist_sees_allocations() {
        let (mut m, mut w, mut a) = setup();
        let region = a.region();
        let p1 = a.alloc(&mut m, &mut w, 64).unwrap();
        let _p2 = a.alloc(&mut m, &mut w, 64).unwrap();
        a.free(&mut m, &mut w, p1).unwrap();
        let img = m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut w2 = PmWriter::new(Tid(0));
        let mut a2 = SlabBitmapAlloc::recover(&mut m2, Tid(0), region);
        assert_eq!(a2.allocated_bytes(), 64);
        // p1 was freed durably; it is allocatable again.
        let p3 = a2.alloc(&mut m2, &mut w2, 64).unwrap();
        assert_eq!(p3, p1);
    }

    #[test]
    fn leaked_blocks_found_by_gc() {
        let (mut m, mut w, mut a) = setup();
        let p = a.alloc(&mut m, &mut w, 64).unwrap();
        let leaked = a.leaked_blocks(|_| false);
        assert_eq!(leaked, vec![p]);
        assert!(a.leaked_blocks(|addr| addr == p).is_empty());
    }

    #[test]
    fn gc_reclaims_crash_leaked_blocks() {
        let (mut m, mut w, mut a) = setup();
        let region = a.region();
        let live = a.alloc(&mut m, &mut w, 64).unwrap();
        let _leaked = a.alloc(&mut m, &mut w, 64).unwrap(); // never linked
                                                            // Crash and recover: the bitmap says two blocks are allocated.
        let img = m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let mut a2 = SlabBitmapAlloc::recover(&mut m2, Tid(0), region);
        assert_eq!(a2.allocated_bytes(), 128);
        let mut w2 = PmWriter::new(Tid(0));
        let reclaimed = a2.reclaim_leaked(&mut m2, &mut w2, |addr| addr == live);
        assert_eq!(reclaimed, 1);
        assert_eq!(a2.allocated_bytes(), 64, "only the live block remains");
    }

    #[test]
    fn slab_exhaustion_grows_new_slab() {
        let (mut m, mut w, mut a) = setup();
        let per_slab = SlabBitmapAlloc::blocks_per_slab(4096);
        let mut ptrs = Vec::new();
        for _ in 0..per_slab + 1 {
            ptrs.push(a.alloc(&mut m, &mut w, 4096).unwrap());
        }
        let slabs_used: std::collections::HashSet<u64> = ptrs
            .iter()
            .map(|p| (p - a.region().base - HEADER_BYTES) / SLAB_BYTES)
            .collect();
        assert_eq!(slabs_used.len(), 2);
    }

    #[test]
    fn out_of_memory_when_region_full() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut w = PmWriter::new(Tid(0));
        let base = m.config().map.pm.base;
        // Room for the header and exactly one slab.
        let mut a = SlabBitmapAlloc::format(
            &mut m,
            &mut w,
            AddrRange::new(base, HEADER_BYTES + SLAB_BYTES),
        );
        let per_slab = SlabBitmapAlloc::blocks_per_slab(4096);
        for _ in 0..per_slab {
            a.alloc(&mut m, &mut w, 4096).unwrap();
        }
        assert!(matches!(
            a.alloc(&mut m, &mut w, 4096),
            Err(AllocError::OutOfMemory { .. })
        ));
    }
}
