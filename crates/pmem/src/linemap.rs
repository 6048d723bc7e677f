//! Tables indexed directly by cache line.
//!
//! Every "map keyed by [`Line`]" on the simulator's write path is one of
//! these instead of a hash map: the range is cut into pages of
//! [`PAGE_LINES`] lines, a directory holds one pointer-sized slot per
//! page, and a lookup is a subtraction, a shift and two array indexings.
//!
//! The directory **grows on first write**: it is as long as the highest
//! page ever written, not as long as the range, and a page is allocated
//! when one of its lines is first written. A table over the paper's
//! 4 GiB PM range therefore costs nothing until it is used — a fresh
//! `memsim::Machine` holds a dozen of them and is built and dropped in
//! microseconds — and reading a line that was never written allocates
//! nothing.

use crate::line::Line;
use crate::range::AddrRange;

/// Lines per page: 1024 lines = 64 KiB of data. Small enough that
/// sparse workloads don't over-allocate, large enough that the
/// directory of a fully-used 4 GiB range stays in the hundreds of KiB.
pub(crate) const PAGE_LINES: usize = 1024;

/// The on-demand page directory under [`LineMap`] and the devices'
/// byte store: which page a line lives in, and the pages written so far.
#[derive(Debug, Clone)]
pub(crate) struct Directory<P> {
    /// Line number of the first line the range touches; all page/slot
    /// arithmetic is relative to this, so a table based at 4 GiB does
    /// not pay for the address space below it.
    first_line: u64,
    /// Pages the range spans — the bound [`Directory::locate`]
    /// enforces, not an allocation.
    span_pages: usize,
    /// One slot per page up to the highest page written.
    pages: Vec<Option<Box<P>>>,
}

impl<P> Directory<P> {
    pub(crate) fn new(range: AddrRange) -> Directory<P> {
        let first_line = Line::containing(range.base).0;
        let last_line = if range.len == 0 {
            first_line
        } else {
            Line::containing(range.end() - 1).0 + 1
        };
        Directory {
            first_line,
            span_pages: ((last_line - first_line) as usize).div_ceil(PAGE_LINES),
            pages: Vec::new(),
        }
    }

    /// Page index and slot for `line`, or `None` outside the range's
    /// pages.
    #[inline]
    pub(crate) fn locate(&self, line: Line) -> Option<(usize, usize)> {
        let idx = line.0.checked_sub(self.first_line)? as usize;
        let page = idx / PAGE_LINES;
        (page < self.span_pages).then_some((page, idx % PAGE_LINES))
    }

    /// The line stored at `slot` of page `page`.
    #[inline]
    pub(crate) fn line_at(&self, page: usize, slot: usize) -> Line {
        Line(self.first_line + (page * PAGE_LINES + slot) as u64)
    }

    /// Page `page`, if any of its lines was ever written.
    #[inline]
    pub(crate) fn page(&self, page: usize) -> Option<&P> {
        self.pages.get(page)?.as_deref()
    }

    /// Page `page` for writing, growing the directory and allocating
    /// the page with `make` on first use. `page` must come from
    /// [`Directory::locate`].
    #[inline]
    pub(crate) fn page_mut(&mut self, page: usize, make: impl FnOnce() -> Box<P>) -> &mut P {
        if page >= self.pages.len() {
            debug_assert!(page < self.span_pages, "page {page} outside the range");
            self.pages.resize_with(page + 1, || None);
        }
        self.pages[page].get_or_insert_with(make)
    }

    /// The written pages in ascending order, with their page index.
    pub(crate) fn written_pages(&self) -> impl Iterator<Item = (usize, &P)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((i, p.as_deref()?)))
    }

    /// `(directory slots, pages)` currently allocated.
    pub(crate) fn resident(&self) -> (usize, usize) {
        (self.pages.len(), self.written_pages().count())
    }
}

/// A table with one `T` per cache line of an address range, every line
/// reading `T::default()` until written.
///
/// ```
/// use pmem::{AddrRange, Line, LineMap};
///
/// let mut holders: LineMap<u64> = LineMap::new(AddrRange::new(4 << 30, 4 << 30));
/// let line = Line::containing((4 << 30) + 4096);
/// assert_eq!(holders.get(line), 0);
/// assert_eq!(holders.resident(), (0, 0), "reads allocate nothing");
/// *holders.slot(line) |= 1 << 3;
/// assert_eq!(holders.get(line), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LineMap<T> {
    dir: Directory<[T; PAGE_LINES]>,
}

impl<T: Copy + Default> LineMap<T> {
    /// An all-default table over the lines `range` touches.
    pub fn new(range: AddrRange) -> LineMap<T> {
        LineMap {
            dir: Directory::new(range),
        }
    }

    /// The value at `line`: `T::default()` if it was never written or
    /// lies outside the range. Never allocates.
    #[inline]
    pub fn get(&self, line: Line) -> T {
        match self.dir.locate(line) {
            Some((page, slot)) => self.dir.page(page).map_or_else(T::default, |p| p[slot]),
            None => T::default(),
        }
    }

    /// The slot of `line`, for writing; allocates the line's page on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `line` lies outside the range.
    #[inline]
    pub fn slot(&mut self, line: Line) -> &mut T {
        let Some((page, slot)) = self.dir.locate(line) else {
            panic!("line out of range: {:#x}", line.base());
        };
        &mut self
            .dir
            .page_mut(page, || Box::new([T::default(); PAGE_LINES]))[slot]
    }

    /// `(directory slots, pages)` currently allocated — the table's
    /// whole footprint, `(0, 0)` until the first [`LineMap::slot`].
    pub fn resident(&self) -> (usize, usize) {
        self.dir.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 4 << 30;

    #[test]
    fn slot_then_get_round_trips_and_neighbours_stay_default() {
        let mut m: LineMap<u32> = LineMap::new(AddrRange::new(BASE, 1 << 20));
        let l = Line::containing(BASE + 70_000);
        *m.slot(l) = 7;
        assert_eq!(m.get(l), 7);
        assert_eq!(m.get(Line(l.0 + 1)), 0);
        assert_eq!(m.get(Line(l.0 - 1)), 0);
        *m.slot(l) = 0;
        assert_eq!(m.get(l), 0);
    }

    #[test]
    fn get_on_a_never_written_page_allocates_nothing() {
        let mut m: LineMap<u64> = LineMap::new(AddrRange::new(BASE, 4 << 30));
        assert_eq!(m.get(Line::containing(BASE + (3 << 30))), 0);
        assert_eq!(m.resident(), (0, 0));
        // One write: the directory reaches that page, one page exists.
        *m.slot(Line::containing(BASE + 2 * 65_536 + 64)) = 1;
        assert_eq!(m.resident(), (3, 1));
        // Reading beyond the directory's current end still allocates
        // nothing.
        assert_eq!(m.get(Line::containing(BASE + (3 << 30))), 0);
        assert_eq!(m.resident(), (3, 1));
    }

    #[test]
    fn range_not_page_aligned() {
        // Starts mid-line, ends mid-page: 3 lines short of two pages.
        let len = (2 * PAGE_LINES as u64 - 3) * 64;
        let range = AddrRange::new(BASE + 10, len);
        let mut m: LineMap<u32> = LineMap::new(range);
        let first = Line::containing(range.base);
        let last = Line::containing(range.end() - 1);
        *m.slot(first) = 1;
        *m.slot(last) = 2;
        assert_eq!((m.get(first), m.get(last)), (1, 2));
        assert_eq!(m.resident(), (2, 2));
        // Below the range and past its last page read as default.
        assert_eq!(m.get(Line(first.0 - 1)), 0);
        assert_eq!(m.get(Line(first.0 + 2 * PAGE_LINES as u64)), 0);
    }

    #[test]
    fn empty_range_has_no_lines() {
        let m: LineMap<u32> = LineMap::new(AddrRange::new(BASE, 0));
        assert_eq!(m.get(Line::containing(BASE)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_below_the_range_panics() {
        let mut m: LineMap<u32> = LineMap::new(AddrRange::new(BASE, 1 << 20));
        m.slot(Line::containing(BASE - 64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_past_the_range_panics() {
        let mut m: LineMap<u32> = LineMap::new(AddrRange::new(BASE, 1 << 20));
        m.slot(Line::containing(BASE + (1 << 20)));
    }
}
