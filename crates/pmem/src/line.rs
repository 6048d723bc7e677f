//! Cache-line arithmetic.
//!
//! All of WHISPER's epoch analysis is at 64 B cache-line granularity
//! ("75% of epochs update exactly one 64B cache line"), so lines are a
//! first-class concept throughout the workspace.

use crate::Addr;

/// Size of a cache line in bytes, matching the x86-64 systems the paper
/// traces (Section 4).
pub const LINE_SIZE: u64 = 64;

/// A 64-byte cache-line number (address divided by [`LINE_SIZE`]).
///
/// Newtype so line numbers cannot be confused with byte addresses.
///
/// ```
/// use pmem::{Line, LINE_SIZE};
/// let l = Line::containing(130);
/// assert_eq!(l, Line(2));
/// assert_eq!(l.base(), 2 * LINE_SIZE);
/// assert!(l.contains(191));
/// assert!(!l.contains(192));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Line(pub u64);

impl Line {
    /// The line containing byte address `addr`.
    pub fn containing(addr: Addr) -> Line {
        Line(addr / LINE_SIZE)
    }

    /// First byte address of this line.
    pub fn base(self) -> Addr {
        self.0 * LINE_SIZE
    }

    /// Whether byte address `addr` falls inside this line.
    pub fn contains(self, addr: Addr) -> bool {
        Line::containing(addr) == self
    }

    /// The line immediately after this one.
    pub fn next(self) -> Line {
        Line(self.0 + 1)
    }

    /// Byte offset of `addr` within this line.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `addr` is not inside this line.
    pub fn offset_of(self, addr: Addr) -> usize {
        debug_assert!(self.contains(addr), "{addr:#x} not in {self:?}");
        (addr - self.base()) as usize
    }
}

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Iterator over the lines spanned by a byte range, with the byte
/// sub-range that falls in each line. Produced by [`lines_spanning`].
#[derive(Debug, Clone)]
pub struct LineSpan {
    cur: Addr,
    end: Addr,
}

impl Iterator for LineSpan {
    /// `(line, start address within span, length within line)`
    type Item = (Line, Addr, usize);

    // Every simulated access loops over this from another crate.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.cur >= self.end {
            return None;
        }
        // Measured from `cur`, not from the line's end: the last line's
        // end, 2^64, is no address.
        let len = (LINE_SIZE - self.cur % LINE_SIZE).min(self.end - self.cur);
        let item = (Line::containing(self.cur), self.cur, len as usize);
        self.cur += len;
        Some(item)
    }
}

/// Split the byte range `[addr, addr+len)` into per-line chunks.
///
/// `addr + len` must fit in an [`Addr`]; the last line of the address
/// space is an ordinary line.
///
/// ```
/// use pmem::{lines_spanning, Line};
/// let chunks: Vec<_> = lines_spanning(60, 10).collect();
/// assert_eq!(chunks, vec![(Line(0), 60, 4), (Line(1), 64, 6)]);
/// ```
#[inline]
pub fn lines_spanning(addr: Addr, len: usize) -> LineSpan {
    LineSpan {
        cur: addr,
        end: addr + len as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_zero() {
        assert_eq!(Line::containing(0), Line(0));
        assert_eq!(Line::containing(63), Line(0));
        assert_eq!(Line::containing(64), Line(1));
    }

    #[test]
    fn base_round_trips() {
        for a in [0u64, 1, 63, 64, 65, 4096, u64::MAX / 2] {
            let l = Line::containing(a);
            assert!(l.base() <= a);
            assert!(a < l.base() + LINE_SIZE);
        }
    }

    #[test]
    fn offset_of_works() {
        let l = Line(2);
        assert_eq!(l.offset_of(128), 0);
        assert_eq!(l.offset_of(191), 63);
    }

    #[test]
    fn span_within_one_line() {
        let v: Vec<_> = lines_spanning(10, 5).collect();
        assert_eq!(v, vec![(Line(0), 10, 5)]);
    }

    #[test]
    fn span_exact_line() {
        let v: Vec<_> = lines_spanning(64, 64).collect();
        assert_eq!(v, vec![(Line(1), 64, 64)]);
    }

    #[test]
    fn span_empty() {
        assert_eq!(lines_spanning(100, 0).count(), 0);
    }

    #[test]
    fn span_4kb_block_is_64_lines() {
        // A PMFS 4 KB block write covers 64 lines — the source of the
        // paper's large-epoch tail in Figure 4.
        let v: Vec<_> = lines_spanning(4096, 4096).collect();
        assert_eq!(v.len(), 64);
        assert!(v.iter().all(|&(_, _, n)| n == 64));
    }

    #[test]
    fn span_lengths_sum_to_total() {
        for (addr, len) in [(0u64, 1usize), (63, 2), (1, 200), (4095, 4097)] {
            let total: usize = lines_spanning(addr, len).map(|(_, _, n)| n).sum();
            assert_eq!(total, len);
        }
    }

    #[test]
    fn span_at_the_top_of_the_address_space() {
        let last = u64::MAX - 63;
        let v: Vec<_> = lines_spanning(last - 4, 12).collect();
        assert_eq!(
            v,
            vec![
                (Line(last / 64 - 1), last - 4, 4),
                (Line(last / 64), last, 8)
            ]
        );
        let v: Vec<_> = lines_spanning(last, 63).collect();
        assert_eq!(v, vec![(Line(u64::MAX / 64), last, 63)]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Line(0)).is_empty());
    }
}
