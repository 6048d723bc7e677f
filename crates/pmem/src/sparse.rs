//! A line table for keys that may be any address.
//!
//! [`LineMap`](crate::LineMap) indexes a known address range directly.
//! A recorded trace carries no range: an archive may name any line in
//! the 64-bit space. [`SparseLineMap`] cuts that space into pages of
//! [`SPARSE_PAGE_LINES`] lines and hashes only the page number, into a
//! `Vec` of pages in order of first write. The last page found is
//! cached, so walking an ascending run of lines (an epoch's sorted
//! lines, the lines of one large store) costs one hash lookup per page
//! rather than one per line. A page holds one `T` per line and costs
//! exactly that: no per-line key, no load-factor slack, no rehash.
//! Each page is its own allocation, so growing the table never copies
//! or doubles the pages written so far, and a new page can take memory
//! the allocator already holds (a finished run's freed pages) instead
//! of a fresh, larger block.

use crate::hash::FxHashMap;
use crate::line::Line;

/// Lines per page: 64 lines = 4 KiB of address space.
pub const SPARSE_PAGE_LINES: usize = 64;

/// One `T` per cache line of the whole 64-bit address space, every
/// line reading `T::default()` until written.
///
/// ```
/// use pmem::{Line, SparseLineMap};
///
/// let mut ids: SparseLineMap<u32> = SparseLineMap::default();
/// assert_eq!(ids.get(Line(u64::MAX)), 0);
/// assert_eq!(ids.resident(), 0, "reads allocate nothing");
/// *ids.slot(Line(u64::MAX)) = 7;
/// *ids.slot(Line(0)) = 1;
/// assert_eq!((ids.get(Line(u64::MAX)), ids.get(Line(0))), (7, 1));
/// assert_eq!(ids.resident(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLineMap<T> {
    /// Page number → index into `pages`.
    index: FxHashMap<u64, usize>,
    /// The last page [`slot`](SparseLineMap::slot) found: (page number,
    /// index into `pages`).
    last: Option<(u64, usize)>,
    /// Pages in order of first write, each boxed (see the module doc).
    pages: Vec<Box<[T; SPARSE_PAGE_LINES]>>,
}

impl<T> Default for SparseLineMap<T> {
    fn default() -> Self {
        SparseLineMap {
            index: FxHashMap::default(),
            last: None,
            pages: Vec::new(),
        }
    }
}

/// `line`'s page number and its slot in that page.
#[inline]
fn split(line: Line) -> (u64, usize) {
    let per_page = SPARSE_PAGE_LINES as u64;
    (line.0 / per_page, (line.0 % per_page) as usize)
}

impl<T: Copy + Default> SparseLineMap<T> {
    /// The value at `line`: `T::default()` if it was never written.
    /// Never allocates.
    #[inline]
    pub fn get(&self, line: Line) -> T {
        let (page, off) = split(line);
        let index = match self.last {
            Some((last, index)) if last == page => Some(index),
            _ => self.index.get(&page).copied(),
        };
        index.map_or_else(T::default, |i| self.pages[i][off])
    }

    /// The slot of `line`, for writing; allocates the line's page on
    /// first use.
    #[inline]
    pub fn slot(&mut self, line: Line) -> &mut T {
        let (page, off) = split(line);
        let index = match self.last {
            Some((last, index)) if last == page => index,
            _ => {
                let next = self.pages.len();
                let index = *self.index.entry(page).or_insert(next);
                if index == next {
                    self.pages.push(Box::new([T::default(); SPARSE_PAGE_LINES]));
                }
                self.last = Some((page, index));
                index
            }
        };
        &mut self.pages[index][off]
    }

    /// Pages allocated so far — the table's footprint is this many
    /// `[T; SPARSE_PAGE_LINES]` plus one index entry each.
    pub fn resident(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_on_an_unwritten_line_allocates_nothing() {
        let mut m: SparseLineMap<u64> = SparseLineMap::default();
        assert_eq!(m.get(Line(12_345)), 0);
        assert_eq!(m.resident(), 0);
        *m.slot(Line(64)) = 3;
        // A neighbour on the written page and a line on another page
        // both read as default; neither read allocates.
        assert_eq!(
            (m.get(Line(64)), m.get(Line(65)), m.get(Line(128))),
            (3, 0, 0)
        );
        assert_eq!(m.resident(), 1);
    }

    #[test]
    fn lines_of_one_page_share_it_and_pages_stay_apart() {
        let mut m: SparseLineMap<u32> = SparseLineMap::default();
        for l in 0..SPARSE_PAGE_LINES as u64 {
            *m.slot(Line(l)) = l as u32 + 1;
        }
        assert_eq!(m.resident(), 1);
        *m.slot(Line(SPARSE_PAGE_LINES as u64)) = 99;
        assert_eq!(m.resident(), 2);
        // Back to the first page: found, not allocated again.
        *m.slot(Line(0)) += 10;
        assert_eq!(m.resident(), 2);
        assert_eq!(m.get(Line(0)), 11);
        assert_eq!(m.get(Line(63)), 64);
        assert_eq!(m.get(Line(64)), 99);
        assert_eq!(m.get(Line(65)), 0);
    }

    #[test]
    fn the_ends_of_the_line_space_are_ordinary_lines() {
        let mut m: SparseLineMap<u8> = SparseLineMap::default();
        *m.slot(Line(0)) = 1;
        *m.slot(Line(u64::MAX)) = 2;
        *m.slot(Line(u64::MAX - SPARSE_PAGE_LINES as u64)) = 3;
        assert_eq!(m.resident(), 3);
        assert_eq!(m.get(Line(0)), 1);
        assert_eq!(m.get(Line(u64::MAX)), 2);
        assert_eq!(m.get(Line(u64::MAX - SPARSE_PAGE_LINES as u64)), 3);
        assert_eq!(m.get(Line(u64::MAX - 1)), 0);
    }
}
