//! Durable crash images.

use crate::device::LineStore;
use crate::line::{Line, LINE_SIZE};
use crate::range::AddrRange;
use crate::Addr;

/// A snapshot of the durable contents of a [`crate::PmDevice`].
///
/// This is what "survives" a simulated power failure: the crash paths in
/// `memsim` and `hops` build an image from the device (plus whichever
/// in-flight writes they decide made it), and recovery code runs against
/// a fresh device rebuilt from the image. Everything volatile — caches,
/// write-combining buffers, persist buffers, DRAM — is absent by
/// construction.
///
/// An image is a frozen set of the device's own 64 KiB pages: taking
/// one ([`crate::PmDevice::image`]), cloning one, and booting a device
/// from one ([`crate::PmDevice::from_image`]) share pages instead of
/// copying lines, and [`PmImage::set_line`] copies only the page it
/// writes. A line is *in* the image once it was written — with zeros
/// too — and [`PmImage::lines`] walks those lines in ascending order,
/// so iteration (and therefore recovery behavior in tests) is
/// deterministic.
#[derive(Clone)]
pub struct PmImage {
    range: AddrRange,
    /// Every page shared: the image's writes never reach a device that
    /// shares its pages, nor the other way round.
    pub(crate) store: LineStore,
}

impl PmImage {
    /// Build an image from raw lines.
    pub fn from_lines(
        range: AddrRange,
        lines: impl IntoIterator<Item = (Line, [u8; LINE_SIZE as usize])>,
    ) -> PmImage {
        let mut img = PmImage::empty(range);
        for (line, data) in lines {
            img.set_line(line, data);
        }
        img
    }

    /// An image over a device's pages.
    pub(crate) fn from_store(range: AddrRange, store: LineStore) -> PmImage {
        PmImage { range, store }
    }

    /// An empty (all-zero) image covering `range`.
    pub fn empty(range: AddrRange) -> PmImage {
        PmImage {
            range,
            store: LineStore::new(range),
        }
    }

    /// The address range of the underlying device.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Iterate over the written lines, in ascending order.
    pub fn lines(&self) -> impl Iterator<Item = (Line, &[u8; LINE_SIZE as usize])> {
        self.store.written_lines()
    }

    /// Number of distinct lines captured.
    pub fn line_count(&self) -> usize {
        self.store.live_lines
    }

    /// One line's bytes, `None` if the line was never written (it
    /// reads as zeros).
    pub fn line(&self, line: Line) -> Option<&[u8; LINE_SIZE as usize]> {
        self.store.line(line)
    }

    /// Overwrite one whole line (used by crash models to splice in
    /// maybe-persisted in-flight writes). Copies the line's page if
    /// anything else still holds it.
    ///
    /// # Panics
    ///
    /// Panics if `line` lies outside the image's range.
    pub fn set_line(&mut self, line: Line, data: [u8; LINE_SIZE as usize]) {
        self.store.set_line_shared(line, &data);
    }

    /// Read bytes out of the image (unwritten bytes are zero).
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut dst = 0;
        for (line, start, n) in crate::line::lines_spanning(addr, len) {
            let off = line.offset_of(start);
            if let Some(data) = self.line(line) {
                out[dst..dst + n].copy_from_slice(&data[off..off + n]);
            }
            dst += n;
        }
        out
    }
}

/// Two images are equal when they cover the same range and hold the
/// same written lines with the same bytes — however their pages are
/// shared.
impl PartialEq for PmImage {
    fn eq(&self, other: &PmImage) -> bool {
        self.range == other.range
            && self.line_count() == other.line_count()
            && self.lines().eq(other.lines())
    }
}

impl Eq for PmImage {}

impl std::fmt::Debug for PmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmImage")
            .field("range", &self.range)
            .field("lines", &self.line_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PmDevice;

    #[test]
    fn empty_image_reads_zero() {
        let img = PmImage::empty(AddrRange::new(0, 4096));
        assert_eq!(img.read_vec(0, 16), vec![0; 16]);
        assert_eq!(img.line_count(), 0);
    }

    #[test]
    fn image_reflects_device() {
        let mut d = PmDevice::new(AddrRange::new(0, 4096));
        d.write(70, b"xyz");
        let img = d.image();
        assert_eq!(img.read_vec(70, 3), b"xyz");
        assert_eq!(img.line_count(), 1);
    }

    #[test]
    fn set_line_splices() {
        let mut img = PmImage::empty(AddrRange::new(0, 4096));
        let mut data = [0u8; 64];
        data[5] = 9;
        img.set_line(Line(2), data);
        assert_eq!(img.read_vec(128 + 5, 1), vec![9]);
        assert_eq!(img.line(Line(2)), Some(&data));
        assert_eq!(img.line(Line(3)), None);
    }

    #[test]
    fn cross_line_read() {
        let mut img = PmImage::empty(AddrRange::new(0, 4096));
        img.set_line(Line(0), [0xAA; 64]);
        img.set_line(Line(1), [0xBB; 64]);
        let v = img.read_vec(60, 8);
        assert_eq!(v, vec![0xAA, 0xAA, 0xAA, 0xAA, 0xBB, 0xBB, 0xBB, 0xBB]);
    }
}
