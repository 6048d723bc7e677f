//! Carving the PM range into per-subsystem regions.

use pmem::{Addr, AddrRange};

/// Sequential allocator of non-overlapping sub-ranges of the machine's
/// PM range — the moral equivalent of the memory-mapped "segments"
/// through which Mnemosyne and NVML expose PM (Section 3.1). Each
/// application plans its log area, persistent heap, and structure
/// headers once at startup.
#[derive(Debug, Clone)]
pub struct RegionPlanner {
    next: Addr,
    end: Addr,
}

impl RegionPlanner {
    /// Plan within `range`.
    pub fn new(range: AddrRange) -> RegionPlanner {
        RegionPlanner {
            next: range.base,
            end: range.end(),
        }
    }

    /// Take the next `len` bytes (64 B-aligned).
    ///
    /// # Panics
    ///
    /// Panics when the range is exhausted — a configuration bug, not a
    /// runtime condition.
    pub fn take(&mut self, len: u64) -> AddrRange {
        let base = self.next.div_ceil(64) * 64;
        assert!(
            base + len <= self.end,
            "PM range exhausted: want {len} bytes at {base:#x}, end {:#x}",
            self.end
        );
        self.next = base + len;
        AddrRange::new(base, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut p = RegionPlanner::new(AddrRange::new(100, 10_000));
        let a = p.take(1000);
        let b = p.take(1000);
        assert_eq!(a.base % 64, 0);
        assert_eq!(b.base % 64, 0);
        assert!(a.end() <= b.base);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_panics() {
        let mut p = RegionPlanner::new(AddrRange::new(0, 128));
        p.take(256);
    }
}
