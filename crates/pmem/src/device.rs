//! The memory devices: sparse line-granular byte stores.
//!
//! Backing storage is a lazily-allocated page table rather than a
//! `HashMap<Line, [u8; 64]>`: the device range is divided into 64 KiB
//! pages (1024 lines), materialized on first write. A load or store is
//! then two array indexings and a `memcpy` — no hashing, no per-line
//! entry allocation — which matters because every simulated memory
//! access in `memsim` bottoms out here. The page directory is the
//! on-demand one of [`crate::linemap`]: a fresh device over a 4 GiB
//! range holds no directory slots and no pages until its first write.
//!
//! Its pages are copy-on-write (see [`crate::linemap`]), which is what
//! makes the snapshot operations cheap: [`PmDevice::fork`],
//! [`DramDevice::fork`] and [`PmDevice::image`] share the device's
//! pages instead of copying its lines, and [`PmDevice::from_image`]
//! boots from the image's pages. Each costs one pointer per page; a
//! page is copied only when one of its holders first writes it.

use crate::image::PmImage;
use crate::line::{lines_spanning, Line, LINE_SIZE};
use crate::linemap::{Directory, LineMap, PAGE_LINES};
use crate::range::AddrRange;
use crate::Addr;

const PAGE_BYTES: usize = PAGE_LINES * LINE_SIZE as usize;
/// `u64` words in the per-page written bitmap.
const PAGE_WORDS: usize = PAGE_LINES / 64;

/// All-zero line returned when viewing storage that was never written.
static ZERO_LINE: [u8; LINE_SIZE as usize] = [0; LINE_SIZE as usize];

/// One 64 KiB backing page plus a written bitmap. The bitmap
/// distinguishes a line explicitly written with zeros from one never
/// written at all — the two read identically, but only the former
/// appears in [`PmImage`] snapshots and `lines_in_use` counts, exactly
/// as with the previous hash-map backing. `Copy`, so that copying a
/// shared page on its first write is one `memcpy` into the new box.
#[derive(Debug, Clone, Copy)]
struct Page {
    bytes: [u8; PAGE_BYTES],
    written: [u64; PAGE_WORDS],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            bytes: [0; PAGE_BYTES],
            written: [0; PAGE_WORDS],
        })
    }

    #[inline]
    fn line_bytes(&self, slot: usize) -> &[u8; LINE_SIZE as usize] {
        let off = slot * LINE_SIZE as usize;
        self.bytes[off..off + LINE_SIZE as usize]
            .try_into()
            .expect("slot is line-sized")
    }

    /// Mark `slot` written; true if it was not written before.
    #[inline]
    fn mark_written(&mut self, slot: usize) -> bool {
        let (word, bit) = (slot / 64, slot % 64);
        let fresh = self.written[word] & (1 << bit) == 0;
        self.written[word] |= 1 << bit;
        fresh
    }

    #[inline]
    fn is_written(&self, slot: usize) -> bool {
        self.written[slot / 64] & (1 << (slot % 64)) != 0
    }
}

/// Backing storage shared by both device types and [`PmImage`]: a
/// two-level page table over the device's line range. Unwritten bytes
/// read as zero.
#[derive(Debug, Clone)]
pub(crate) struct LineStore {
    pages: Directory<Page>,
    /// Distinct lines ever written (sum of written-bitmap popcounts).
    pub(crate) live_lines: usize,
}

impl LineStore {
    pub(crate) fn new(range: AddrRange) -> LineStore {
        LineStore {
            pages: Directory::new(range),
            live_lines: 0,
        }
    }

    fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut dst = 0;
        for (line, start, len) in lines_spanning(addr, buf.len()) {
            let off = line.offset_of(start);
            let (page, slot) = self.pages.locate(line).expect("caller checked range");
            match self.pages.page(page) {
                Some(p) => {
                    let base = slot * LINE_SIZE as usize + off;
                    buf[dst..dst + len].copy_from_slice(&p.bytes[base..base + len]);
                }
                None => buf[dst..dst + len].fill(0),
            }
            dst += len;
        }
    }

    /// Write `bytes` at `addr`, invoking `on_line` once per line touched
    /// (the hook replaces the `Vec<Line>` the old backing returned, so
    /// endurance counting costs no allocation).
    fn write(&mut self, addr: Addr, bytes: &[u8], mut on_line: impl FnMut(Line)) {
        let mut src = 0;
        for (line, start, len) in lines_spanning(addr, bytes.len()) {
            let off = line.offset_of(start);
            let (page, slot) = self.pages.locate(line).expect("caller checked range");
            let p = self.pages.page_mut(page, Page::new);
            let base = slot * LINE_SIZE as usize + off;
            p.bytes[base..base + len].copy_from_slice(&bytes[src..src + len]);
            if p.mark_written(slot) {
                self.live_lines += 1;
            }
            src += len;
            on_line(line);
        }
    }

    /// Overwrite one whole line, keeping every page shared — the write
    /// path of [`PmImage`], whose pages stay frozen.
    pub(crate) fn set_line_shared(&mut self, line: Line, data: &[u8; LINE_SIZE as usize]) {
        let (page, slot) = self.pages.locate(line).expect("line in range");
        let p = self.pages.page_mut_shared(page, Page::new);
        let off = slot * LINE_SIZE as usize;
        p.bytes[off..off + LINE_SIZE as usize].copy_from_slice(data);
        if p.mark_written(slot) {
            self.live_lines += 1;
        }
    }

    /// Borrowed view of one line's 64 bytes (zeros if never written).
    #[inline]
    fn line_view(&self, line: Line) -> &[u8; LINE_SIZE as usize] {
        self.pages
            .locate(line)
            .and_then(|(page, slot)| Some(self.pages.page(page)?.line_bytes(slot)))
            .unwrap_or(&ZERO_LINE)
    }

    /// One line's bytes, `None` if it was never written.
    #[inline]
    pub(crate) fn line(&self, line: Line) -> Option<&[u8; LINE_SIZE as usize]> {
        let (page, slot) = self.pages.locate(line)?;
        let p = self.pages.page(page)?;
        p.is_written(slot).then(|| p.line_bytes(slot))
    }

    /// A copy-on-write copy of the store (see [`Directory::share`]).
    pub(crate) fn share(&mut self) -> LineStore {
        LineStore {
            pages: self.pages.share(),
            live_lines: self.live_lines,
        }
    }

    /// All written lines in ascending order (page-major iteration is
    /// already sorted because pages partition the line range in order).
    pub(crate) fn written_lines(
        &self,
    ) -> impl Iterator<Item = (Line, &[u8; LINE_SIZE as usize])> + '_ {
        self.pages.written_pages().flat_map(move |(pi, p)| {
            (0..PAGE_LINES)
                .filter(move |&slot| p.is_written(slot))
                .map(move |slot| (self.pages.line_at(pi, slot), p.line_bytes(slot)))
        })
    }
}

/// The simulated persistent-memory device (an NVM DIMM).
///
/// Bytes written here are *durable*: they survive a crash, modeled by
/// snapshotting with [`PmDevice::image`] and rebuilding with
/// [`PmDevice::from_image`]. The device also counts writes per line,
/// because "most NVM technologies are expected to have limited write
/// endurance" (Section 5.3) and the reproduction reports write traffic.
///
/// The device knows nothing about ordering; callers (the `memsim` cache
/// model, HOPS persist buffers) decide what reaches it and when.
#[derive(Debug, Clone)]
pub struct PmDevice {
    range: AddrRange,
    store: LineStore,
    /// Per-line endurance counters, paged like the data (8 KiB per
    /// counter page, allocated on a page's first counted write).
    line_writes: LineMap<u64>,
    total_line_writes: u64,
}

impl PmDevice {
    /// A fresh, zeroed device covering `range`.
    pub fn new(range: AddrRange) -> PmDevice {
        PmDevice {
            range,
            store: LineStore::new(range),
            line_writes: LineMap::new(range),
            total_line_writes: 0,
        }
    }

    /// Rebuild a device from a crash image, preserving its contents
    /// (write counters restart at zero — the media survived, the tally
    /// is per-run). The device boots from the image's pages and copies
    /// one only when it first writes it.
    pub fn from_image(image: &PmImage) -> PmDevice {
        PmDevice {
            store: image.store.clone(),
            ..PmDevice::new(image.range())
        }
    }

    /// A copy-on-write copy of the device — contents and endurance
    /// counters — that shares every page with this one until either
    /// writes it. Neither device sees the other's later writes.
    pub fn fork(&mut self) -> PmDevice {
        PmDevice {
            range: self.range,
            store: self.store.share(),
            line_writes: self.line_writes.fork(),
            total_line_writes: self.total_line_writes,
        }
    }

    /// The address range this device decodes.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside the device range.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        assert!(
            self.range.contains_span(addr, buf.len()),
            "PM read out of range: {addr:#x}+{}",
            buf.len()
        );
        self.store.read(addr, buf);
    }

    /// Convenience: read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read(addr, &mut v);
        v
    }

    /// Borrowed view of one cache line's current contents (zeros if the
    /// line was never written). This is the allocation-free snapshot
    /// path for `memsim`'s write-back machinery; the line need only
    /// overlap the device range the way [`PmDevice::read`] would allow.
    pub fn line_view(&self, line: Line) -> &[u8; LINE_SIZE as usize] {
        self.store.line_view(line)
    }

    /// Write bytes to the media. This is the durability point.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside the device range.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) {
        assert!(
            self.range.contains_span(addr, bytes.len()),
            "PM write out of range: {addr:#x}+{}",
            bytes.len()
        );
        let counters = &mut self.line_writes;
        let total = &mut self.total_line_writes;
        self.store.write(addr, bytes, |line| {
            *counters.slot(line) += 1;
            *total += 1;
        });
    }

    /// How many times `line` has been written (endurance counter).
    pub fn line_writes(&self, line: Line) -> u64 {
        self.line_writes.get(line)
    }

    /// Total line writes across the device since construction.
    pub fn total_line_writes(&self) -> u64 {
        self.total_line_writes
    }

    /// Number of distinct lines ever written.
    pub fn lines_in_use(&self) -> usize {
        self.store.live_lines
    }

    /// `(directory slots, pages)` currently allocated, data and
    /// endurance counters together: `(0, 0)` until the first write,
    /// whatever the size of the range.
    pub fn resident(&self) -> (usize, usize) {
        let (data, counters) = (self.store.pages.resident(), self.line_writes.resident());
        (data.0 + counters.0, data.1 + counters.1)
    }

    /// Snapshot the durable contents (what survives a power failure):
    /// a frozen copy of the device's pages, shared until the device
    /// next writes each of them.
    pub fn image(&mut self) -> PmImage {
        PmImage::from_store(self.range, self.store.share())
    }
}

/// The simulated DRAM device.
///
/// Identical storage behavior, but *volatile*: there is deliberately no
/// `image()` — on a crash its contents are simply dropped, which is what
/// forces WHISPER applications to be crash-recoverable from PM alone.
#[derive(Debug, Clone)]
pub struct DramDevice {
    range: AddrRange,
    store: LineStore,
}

impl DramDevice {
    /// A fresh, zeroed device covering `range`.
    pub fn new(range: AddrRange) -> DramDevice {
        DramDevice {
            range,
            store: LineStore::new(range),
        }
    }

    /// A device holding an image's contents — a volatile working copy
    /// of durable bytes (`memsim` boots its functional PM view this
    /// way). Shares the image's pages until it writes them.
    pub fn from_image(image: &PmImage) -> DramDevice {
        DramDevice {
            range: image.range(),
            store: image.store.clone(),
        }
    }

    /// A copy-on-write copy of the device (see [`PmDevice::fork`]).
    pub fn fork(&mut self) -> DramDevice {
        DramDevice {
            range: self.range,
            store: self.store.share(),
        }
    }

    /// The address range this device decodes.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside the device range.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        assert!(
            self.range.contains_span(addr, buf.len()),
            "DRAM read out of range: {addr:#x}+{}",
            buf.len()
        );
        self.store.read(addr, buf);
    }

    /// Convenience: read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read(addr, &mut v);
        v
    }

    /// Borrowed view of one cache line's current contents (zeros if the
    /// line was never written).
    pub fn line_view(&self, line: Line) -> &[u8; LINE_SIZE as usize] {
        self.store.line_view(line)
    }

    /// Write bytes.
    ///
    /// # Panics
    ///
    /// Panics if the span falls outside the device range.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) {
        assert!(
            self.range.contains_span(addr, bytes.len()),
            "DRAM write out of range: {addr:#x}+{}",
            bytes.len()
        );
        self.store.write(addr, bytes, |_| {});
    }

    /// `(directory slots, pages)` currently allocated: `(0, 0)` until
    /// the first write, whatever the size of the range.
    pub fn resident(&self) -> (usize, usize) {
        self.store.pages.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::AddrRange;

    fn dev() -> PmDevice {
        PmDevice::new(AddrRange::new(0, 1 << 20))
    }

    #[test]
    fn unwritten_reads_zero() {
        let d = dev();
        assert_eq!(d.read_vec(1000, 8), vec![0; 8]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = dev();
        d.write(100, b"abcdef");
        assert_eq!(d.read_vec(100, 6), b"abcdef");
    }

    #[test]
    fn cross_line_write() {
        let mut d = dev();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        d.write(60, &data);
        assert_eq!(d.read_vec(60, 200), data);
        // Touched lines 0..=4 (60..260 spans 5 lines).
        assert_eq!(d.lines_in_use(), 5);
    }

    #[test]
    fn partial_line_write_preserves_neighbors() {
        let mut d = dev();
        d.write(0, &[0xAA; 64]);
        d.write(10, &[0xBB; 4]);
        let v = d.read_vec(0, 64);
        assert_eq!(&v[0..10], &[0xAA; 10]);
        assert_eq!(&v[10..14], &[0xBB; 4]);
        assert_eq!(&v[14..], &[0xAA; 50]);
    }

    #[test]
    fn endurance_counters() {
        let mut d = dev();
        d.write(0, &[1; 8]);
        d.write(4, &[2; 8]);
        d.write(64, &[3; 1]);
        assert_eq!(d.line_writes(Line(0)), 2);
        assert_eq!(d.line_writes(Line(1)), 1);
        assert_eq!(d.line_writes(Line(2)), 0);
        assert_eq!(d.total_line_writes(), 3);
    }

    #[test]
    fn image_round_trip() {
        let mut d = dev();
        d.write(100, b"persist me");
        d.write(5000, &[7; 128]);
        let img = d.image();
        let d2 = PmDevice::from_image(&img);
        assert_eq!(d2.read_vec(100, 10), b"persist me");
        assert_eq!(d2.read_vec(5000, 128), vec![7; 128]);
        assert_eq!(d2.range(), d.range());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut d = dev();
        d.write((1 << 20) - 4, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let d = dev();
        d.read_vec(1 << 20, 1);
    }

    #[test]
    fn dram_round_trip_and_no_persistence_api() {
        let mut d = DramDevice::new(AddrRange::new(0, 4096));
        d.write(0, b"volatile");
        assert_eq!(d.read_vec(0, 8), b"volatile");
        // (No image() on DramDevice — enforced at compile time.)
    }

    #[test]
    fn line_view_matches_read_and_zero_fallback() {
        let mut d = dev();
        d.write(130, b"view");
        assert_eq!(d.line_view(Line(2)), &{
            let mut want = [0u8; 64];
            want[2..6].copy_from_slice(b"view");
            want
        });
        // A never-written line views as all zeros without allocating.
        assert_eq!(d.line_view(Line(3)), &[0u8; 64]);
        // So does a line past the device range (mirrors line_writes).
        assert_eq!(d.line_view(Line(1 << 40)), &[0u8; 64]);
    }

    #[test]
    fn explicit_zero_write_is_live_and_imaged() {
        let mut d = dev();
        d.write(64, &[0u8; 64]);
        assert_eq!(d.lines_in_use(), 1);
        assert_eq!(d.image().line_count(), 1);
    }

    #[test]
    fn high_base_range_is_cheap_and_correct() {
        // A device based at 4 GiB must not allocate pages for the
        // address space below it, and all arithmetic is base-relative.
        let base = 4u64 << 30;
        let mut d = PmDevice::new(AddrRange::new(base, 1 << 20));
        d.write(base + 65_530, &[9; 12]); // straddles a page boundary
        assert_eq!(d.read_vec(base + 65_530, 12), vec![9; 12]);
        assert_eq!(d.lines_in_use(), 2);
        assert_eq!(d.total_line_writes(), 2);
    }

    #[test]
    fn fresh_devices_hold_nothing_until_written() {
        let range = AddrRange::new(4 << 30, 4 << 30);
        let mut pm = PmDevice::new(range);
        let mut dram = DramDevice::new(range);
        pm.read_vec(range.end() - 8, 8);
        pm.line_view(Line::containing(range.end() - 8));
        dram.read_vec(range.end() - 8, 8);
        assert_eq!(pm.resident(), (0, 0));
        assert_eq!(dram.resident(), (0, 0));
        // An 8-byte write on the second page: one data page (plus one
        // counter page on PM) under a two-slot directory each.
        pm.write(range.base + 65_536, &[1; 8]);
        dram.write(range.base + 65_536, &[1; 8]);
        assert_eq!(pm.resident(), (4, 2));
        assert_eq!(dram.resident(), (2, 1));
    }

    #[test]
    fn page_spanning_write_round_trips() {
        let mut d = dev();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        d.write(3, &data);
        assert_eq!(d.read_vec(3, data.len()), data);
    }
}
