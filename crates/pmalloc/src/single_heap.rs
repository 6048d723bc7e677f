//! N-store/Echo-style single-heap free-list allocator.

use crate::{AllocError, AllocStats, PmAllocator};
use memsim::{Machine, PmWriter};
use pmem::{Addr, AddrRange};
use pmtrace::{Category, Tid};

const MAGIC: u64 = 0x4e53_544f_5245_4831; // "NSTOREH1"
const HDR_MAGIC: u32 = 0x4845_4144; // "HEAD"
const HEADER_BYTES: u64 = 64; // one line per block header
const REGION_HEADER: u64 = 64;
/// Smallest block (header + one payload line).
const MIN_BLOCK: u64 = 128;

/// Lifecycle state of a block in the single heap.
///
/// "N-store allocates both volatile and persistent data from a
/// persistent heap, and decides later which objects should persist
/// across crashes by storing a state variable with each block — FREE,
/// VOLATILE or PERSISTENT. Transactions that alter the state of a block
/// write to this variable thrice[, causing] self-dependencies in
/// N-store." (Section 5.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// On the free list.
    Free,
    /// Allocated, but contents need not survive a crash (recovery
    /// reclaims these).
    Volatile,
    /// Allocated and crash-persistent.
    Persistent,
}

impl BlockState {
    fn to_u32(self) -> u32 {
        match self {
            BlockState::Free => 0,
            BlockState::Volatile => 1,
            BlockState::Persistent => 2,
        }
    }

    fn from_u32(v: u32) -> Option<BlockState> {
        match v {
            0 => Some(BlockState::Free),
            1 => Some(BlockState::Volatile),
            2 => Some(BlockState::Persistent),
            _ => None,
        }
    }
}

/// A single free-list heap for all allocation sizes, with splits and
/// coalescing — "the N-store and Echo allocators have a single heap for
/// all allocation sizes, leading to frequent splits and coalescing of
/// blocks, each requiring a persistent metadata write" (Section 5.2).
///
/// Block layout: a 64 B header line (`magic`, `state`, `size`) followed
/// by the payload. The header chain is walkable from the region base by
/// `size` alone, and metadata updates are ordered (new header persisted
/// before the old header shrinks) so the chain is consistent after a
/// crash at any epoch boundary; recovery reclaims `Volatile` blocks and
/// rebuilds the free list.
#[derive(Debug, Clone)]
pub struct SingleHeapAlloc {
    region: AddrRange,
    /// Volatile free list: (header addr, block size), address-ordered.
    free_list: Vec<(Addr, u64)>,
    /// Volatile mirror of every block for O(1) lookup:
    /// header addr -> (size, state).
    blocks: std::collections::BTreeMap<Addr, (u64, BlockState)>,
    allocated_bytes: u64,
    stats: AllocStats,
}

impl SingleHeapAlloc {
    fn first_block(&self) -> Addr {
        self.region.base + REGION_HEADER
    }

    fn write_header(m: &mut Machine, w: &mut PmWriter, hdr: Addr, state: BlockState, size: u64) {
        w.write_u32(m, hdr, HDR_MAGIC, Category::AllocMeta);
        w.write_u32(m, hdr + 4, state.to_u32(), Category::AllocMeta);
        w.write_u64(m, hdr + 8, size, Category::AllocMeta);
    }

    /// Format a fresh heap spanning `region`: one big free block.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than one block.
    pub fn format(m: &mut Machine, w: &mut PmWriter, region: AddrRange) -> SingleHeapAlloc {
        assert!(
            region.len >= REGION_HEADER + MIN_BLOCK,
            "region too small for single-heap allocator"
        );
        w.write_u64(m, region.base, MAGIC, Category::AllocMeta);
        w.ordering_fence(m);
        let first = region.base + REGION_HEADER;
        let size = region.len - REGION_HEADER;
        Self::write_header(m, w, first, BlockState::Free, size);
        w.ordering_fence(m);
        let mut blocks = std::collections::BTreeMap::new();
        blocks.insert(first, (size, BlockState::Free));
        SingleHeapAlloc {
            region,
            free_list: vec![(first, size)],
            blocks,
            allocated_bytes: 0,
            stats: AllocStats::default(),
        }
    }

    /// Rebuild after a crash: walk the header chain, reclaim `Volatile`
    /// blocks, coalesce adjacent free blocks, rebuild the free list.
    /// Returns the allocator and the payload addresses of surviving
    /// `Persistent` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `region` does not hold a formatted heap.
    pub fn recover(m: &mut Machine, tid: Tid, region: AddrRange) -> (SingleHeapAlloc, Vec<Addr>) {
        let magic = m.load_u64(tid, region.base);
        assert_eq!(
            magic, MAGIC,
            "no single-heap allocator at {:#x}",
            region.base
        );
        let mut w = PmWriter::new(tid);
        let mut a = SingleHeapAlloc {
            region,
            free_list: Vec::new(),
            blocks: std::collections::BTreeMap::new(),
            allocated_bytes: 0,
            stats: AllocStats::default(),
        };
        let mut persistent = Vec::new();
        let mut hdr = a.first_block();
        let end = region.end();
        while hdr + MIN_BLOCK <= end {
            let hmagic = m.load_u32(tid, hdr);
            if hmagic != HDR_MAGIC {
                // Tail never formatted into a block (crash mid-grow):
                // everything from here is one free block.
                let size = end - hdr;
                if size >= MIN_BLOCK {
                    Self::write_header(m, &mut w, hdr, BlockState::Free, size);
                    w.ordering_fence(m);
                    a.blocks.insert(hdr, (size, BlockState::Free));
                }
                break;
            }
            let state = BlockState::from_u32(m.load_u32(tid, hdr + 4)).unwrap_or(BlockState::Free);
            let size = m.load_u64(tid, hdr + 8);
            assert!(
                size >= MIN_BLOCK && hdr + size <= end,
                "corrupt heap chain at {hdr:#x}: size {size}"
            );
            let state = match state {
                BlockState::Volatile => {
                    // Dead after the crash: reclaim.
                    w.write_u32(m, hdr + 4, BlockState::Free.to_u32(), Category::AllocMeta);
                    w.ordering_fence(m);
                    BlockState::Free
                }
                s => s,
            };
            if state == BlockState::Persistent {
                persistent.push(hdr + HEADER_BYTES);
                a.allocated_bytes += size - HEADER_BYTES;
            }
            a.blocks.insert(hdr, (size, state));
            hdr += size;
        }
        a.rebuild_free_list(m, &mut w);
        (a, persistent)
    }

    /// Coalesce adjacent free blocks and rebuild the volatile free list.
    fn rebuild_free_list(&mut self, m: &mut Machine, w: &mut PmWriter) {
        let entries: Vec<(Addr, u64, BlockState)> = self
            .blocks
            .iter()
            .map(|(a, (s, st))| (*a, *s, *st))
            .collect();
        let mut merged: Vec<(Addr, u64, BlockState)> = Vec::new();
        for (addr, size, state) in entries {
            if let Some(last) = merged.last_mut() {
                if last.2 == BlockState::Free
                    && state == BlockState::Free
                    && last.0 + last.1 == addr
                {
                    last.1 += size;
                    self.stats.merges += 1;
                    continue;
                }
            }
            merged.push((addr, size, state));
        }
        self.blocks.clear();
        self.free_list.clear();
        for (addr, size, state) in merged {
            self.blocks.insert(addr, (size, state));
            if state == BlockState::Free {
                // Persist the (possibly grown) free header.
                Self::write_header(m, w, addr, BlockState::Free, size);
                self.free_list.push((addr, size));
            }
        }
        if !self.free_list.is_empty() {
            w.ordering_fence(m);
        }
    }

    /// Change the lifecycle state of an allocated block (N-store's
    /// FREE→VOLATILE→PERSISTENT protocol). One persistent write + fence,
    /// to the same header line each time — the self-dependency source.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `payload` is not an allocated
    /// block.
    pub fn set_state(
        &mut self,
        m: &mut Machine,
        w: &mut PmWriter,
        payload: Addr,
        state: BlockState,
    ) -> Result<(), AllocError> {
        let hdr = payload
            .checked_sub(HEADER_BYTES)
            .ok_or(AllocError::InvalidFree { addr: payload })?;
        match self.blocks.get_mut(&hdr) {
            Some((_, st)) if *st != BlockState::Free => {
                *st = state;
                w.write_u32(m, hdr + 4, state.to_u32(), Category::AllocMeta);
                w.ordering_fence(m);
                Ok(())
            }
            _ => Err(AllocError::InvalidFree { addr: payload }),
        }
    }

    /// Current state of the block whose payload starts at `payload`.
    pub fn state_of(&self, payload: Addr) -> Option<BlockState> {
        self.blocks
            .get(&(payload.wrapping_sub(HEADER_BYTES)))
            .map(|(_, s)| *s)
    }

    /// Allocation counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

impl PmAllocator for SingleHeapAlloc {
    fn alloc(&mut self, m: &mut Machine, w: &mut PmWriter, size: u64) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::BadSize { requested: 0 });
        }
        let need = HEADER_BYTES + size.div_ceil(64) * 64;
        // First fit.
        let pos = self
            .free_list
            .iter()
            .position(|&(_, s)| s >= need)
            .ok_or(AllocError::OutOfMemory { requested: size })?;
        let (hdr, block_size) = self.free_list.remove(pos);
        let remainder = block_size - need;
        if remainder >= MIN_BLOCK {
            // Split. Persist the remainder header first so the chain is
            // walkable at every epoch boundary, then shrink this block.
            let rem_hdr = hdr + need;
            Self::write_header(m, w, rem_hdr, BlockState::Free, remainder);
            w.ordering_fence(m);
            Self::write_header(m, w, hdr, BlockState::Volatile, need);
            w.ordering_fence(m);
            self.blocks.insert(rem_hdr, (remainder, BlockState::Free));
            self.blocks.insert(hdr, (need, BlockState::Volatile));
            self.free_list.push((rem_hdr, remainder));
            self.free_list.sort_unstable();
            self.stats.splits += 1;
            self.allocated_bytes += need - HEADER_BYTES;
        } else {
            // Take the whole block.
            Self::write_header(m, w, hdr, BlockState::Volatile, block_size);
            w.ordering_fence(m);
            self.blocks.insert(hdr, (block_size, BlockState::Volatile));
            self.allocated_bytes += block_size - HEADER_BYTES;
        }
        self.stats.allocs += 1;
        Ok(hdr + HEADER_BYTES)
    }

    fn free(&mut self, m: &mut Machine, w: &mut PmWriter, addr: Addr) -> Result<(), AllocError> {
        let hdr = addr
            .checked_sub(HEADER_BYTES)
            .ok_or(AllocError::InvalidFree { addr })?;
        let (size, state) = *self
            .blocks
            .get(&hdr)
            .ok_or(AllocError::InvalidFree { addr })?;
        if state == BlockState::Free {
            return Err(AllocError::InvalidFree { addr });
        }
        self.allocated_bytes -= size - HEADER_BYTES;
        // Mark free persistently.
        w.write_u32(m, hdr + 4, BlockState::Free.to_u32(), Category::AllocMeta);
        w.ordering_fence(m);
        let mut start = hdr;
        let mut total = size;
        // Coalesce with next block if free.
        if let Some((&next, &(nsize, nstate))) = self.blocks.range(hdr + 1..).next() {
            if nstate == BlockState::Free && hdr + size == next {
                total += nsize;
                self.blocks.remove(&next);
                self.free_list.retain(|&(a, _)| a != next);
                self.stats.merges += 1;
            }
        }
        // Coalesce with previous block if free.
        if let Some((&prev, &(psize, pstate))) = self.blocks.range(..hdr).next_back() {
            if pstate == BlockState::Free && prev + psize == hdr {
                start = prev;
                total += psize;
                self.blocks.remove(&hdr);
                self.free_list.retain(|&(a, _)| a != prev);
                self.stats.merges += 1;
            }
        }
        // Persist the merged header (another metadata write + fence).
        Self::write_header(m, w, start, BlockState::Free, total);
        w.ordering_fence(m);
        self.blocks.insert(start, (total, BlockState::Free));
        if start != hdr {
            self.blocks.remove(&hdr);
        }
        self.free_list.push((start, total));
        self.free_list.sort_unstable();
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

    fn setup() -> (Machine, PmWriter, SingleHeapAlloc) {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut w = PmWriter::new(Tid(0));
        let base = m.config().map.pm.base;
        let a = SingleHeapAlloc::format(&mut m, &mut w, AddrRange::new(base, 1 << 20));
        (m, w, a)
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let (mut m, mut w, mut a) = setup();
        let p1 = a.alloc(&mut m, &mut w, 100).unwrap();
        let p2 = a.alloc(&mut m, &mut w, 100).unwrap();
        assert!(p2 > p1);
        assert_eq!(a.stats().splits, 2);
        a.free(&mut m, &mut w, p2).unwrap();
        a.free(&mut m, &mut w, p1).unwrap();
        assert!(a.stats().merges >= 2, "freed neighbors coalesce");
        assert_eq!(a.allocated_bytes(), 0);
        // After everything is freed we can allocate nearly the region.
        let big = a.alloc(&mut m, &mut w, (1 << 20) - 1024);
        assert!(big.is_ok());
    }

    #[test]
    fn payload_is_64b_aligned() {
        let (mut m, mut w, mut a) = setup();
        let p = a.alloc(&mut m, &mut w, 24).unwrap();
        assert_eq!(p % 64, 0);
    }

    #[test]
    fn state_protocol_and_self_deps() {
        let (mut m, mut w, mut a) = setup();
        let p = a.alloc(&mut m, &mut w, 64).unwrap();
        assert_eq!(a.state_of(p), Some(BlockState::Volatile));
        a.set_state(&mut m, &mut w, p, BlockState::Persistent)
            .unwrap();
        assert_eq!(a.state_of(p), Some(BlockState::Persistent));
        // The state writes hit the same header line in distinct epochs:
        let deps = pmtrace::analysis::Analyzer::analyze_events(m.trace().events()).deps;
        assert!(deps.self_dep_epochs >= 1, "state flips cause self-deps");
    }

    #[test]
    fn oom_and_invalid_ops() {
        let (mut m, mut w, mut a) = setup();
        assert!(matches!(
            a.alloc(&mut m, &mut w, 0),
            Err(AllocError::BadSize { .. })
        ));
        assert!(matches!(
            a.alloc(&mut m, &mut w, 4 << 20),
            Err(AllocError::OutOfMemory { .. })
        ));
        let p = a.alloc(&mut m, &mut w, 64).unwrap();
        assert!(a.free(&mut m, &mut w, p + 8).is_err());
        a.free(&mut m, &mut w, p).unwrap();
        assert!(a.free(&mut m, &mut w, p).is_err());
        assert!(a
            .set_state(&mut m, &mut w, p, BlockState::Persistent)
            .is_err());
    }

    #[test]
    fn recovery_reclaims_volatile_keeps_persistent() {
        let (mut m, mut w, mut a) = setup();
        let region = a.region();
        let pv = a.alloc(&mut m, &mut w, 64).unwrap(); // stays Volatile
        let pp = a.alloc(&mut m, &mut w, 64).unwrap();
        a.set_state(&mut m, &mut w, pp, BlockState::Persistent)
            .unwrap();
        let img = m.crash(memsim::CrashSpec::DropVolatile);
        let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
        let (a2, persistent) = SingleHeapAlloc::recover(&mut m2, Tid(0), region);
        assert_eq!(persistent, vec![pp]);
        assert_eq!(
            a2.state_of(pv),
            Some(BlockState::Free),
            "volatile reclaimed"
        );
        assert_eq!(a2.state_of(pp), Some(BlockState::Persistent));
    }

    #[test]
    fn recovery_after_adversarial_crash_yields_walkable_heap() {
        for seed in 0..20 {
            let (mut m, mut w, mut a) = setup();
            let region = a.region();
            let mut live = Vec::new();
            for i in 0..6 {
                let p = a.alloc(&mut m, &mut w, 64 + i * 32).unwrap();
                if i % 2 == 0 {
                    a.set_state(&mut m, &mut w, p, BlockState::Persistent)
                        .unwrap();
                    live.push(p);
                } else if i % 3 == 0 {
                    a.free(&mut m, &mut w, p).unwrap();
                }
            }
            let img = m.crash(memsim::CrashSpec::Adversarial { seed });
            let mut m2 = Machine::from_image(MachineConfig::asplos17(), &img);
            // Must not panic: the chain is walkable at any epoch boundary.
            let (a2, persistent) = SingleHeapAlloc::recover(&mut m2, Tid(0), region);
            // Every durably-persistent block must be found.
            for p in &live {
                assert!(
                    persistent.contains(p),
                    "seed {seed}: persistent block {p:#x} lost"
                );
            }
            // And the recovered allocator still works.
            let mut w2 = PmWriter::new(Tid(0));
            let mut a2 = a2;
            assert!(a2.alloc(&mut m2, &mut w2, 64).is_ok());
        }
    }

    #[test]
    fn free_list_exact_fit_no_split() {
        let mut m = Machine::new(MachineConfig::asplos17());
        let mut w = PmWriter::new(Tid(0));
        let base = m.config().map.pm.base;
        // Region with room for exactly one minimal block.
        let mut a = SingleHeapAlloc::format(
            &mut m,
            &mut w,
            AddrRange::new(base, REGION_HEADER + MIN_BLOCK),
        );
        let p = a.alloc(&mut m, &mut w, 64).unwrap();
        assert_eq!(a.stats().splits, 0);
        a.free(&mut m, &mut w, p).unwrap();
        let p2 = a.alloc(&mut m, &mut w, 64).unwrap();
        assert_eq!(p, p2);
    }
}
