//! The PM lines whose current bytes are not (yet) the media's.
//!
//! The machine keeps one copy of PM: the media ([`PmDevice`]), plus this
//! overlay of the lines whose current contents differ from it. A load
//! reads the overlay line when there is one and the media line
//! otherwise. The overlay is an index from line to slot + 1 (0 = the
//! line reads from the media; the `LruSet` idiom, no hashing) into a
//! slab of 64-byte lines with a free list.
//!
//! The invariant: **a line is in the overlay iff its current bytes
//! differ from the media's.** A store enters a line the first time it
//! diverges and drops it if it writes the media's bytes back; a media
//! write drops a line it makes equal, and enters one whose older bytes
//! land over newer ones (a stale `clwb` snapshot drained after a newer
//! eviction). So the overlay holds only lines that are dirty in a
//! cache, flush-pending, held in a write-combining buffer, or
//! re-stored since the snapshot that last reached the media — the
//! lines a crash right now could lose.

use pmem::{AddrRange, Line, LineMap, PmDevice, LINE_SIZE};

const LINE: usize = LINE_SIZE as usize;

/// Current PM contents as a patch over the media.
#[derive(Debug)]
pub(crate) struct Overlay {
    /// line → slab slot + 1 (0 = the line reads from the media).
    index: LineMap<u32>,
    /// The diverged lines' current bytes; free slots are stale.
    lines: Vec<[u8; LINE]>,
    /// Free slab slots.
    free: Vec<u32>,
}

impl Overlay {
    /// An empty overlay over the lines of `range`: every line reads
    /// from the media.
    pub(crate) fn new(range: AddrRange) -> Overlay {
        Overlay {
            index: LineMap::new(range),
            lines: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A copy whose index shares its pages with this one copy-on-write
    /// (see [`LineMap::fork`]); the slab is cloned.
    pub(crate) fn fork(&mut self) -> Overlay {
        Overlay {
            index: self.index.fork(),
            lines: self.lines.clone(),
            free: self.free.clone(),
        }
    }

    /// `line`'s current bytes: the overlay line, or the media's.
    #[inline]
    pub(crate) fn current<'a>(&'a self, media: &'a PmDevice, line: Line) -> &'a [u8; LINE] {
        match self.index.get(line) {
            0 => media.line_view(line),
            slot => &self.lines[slot as usize - 1],
        }
    }

    /// Store `bytes` at offset `off` of `line`, whose media bytes are
    /// `media`'s.
    pub(crate) fn store(&mut self, media: &PmDevice, line: Line, off: usize, bytes: &[u8]) {
        let end = off + bytes.len();
        let on_media = media.line_view(line);
        match self.index.get(line) {
            0 if on_media[off..end] == *bytes => {}
            0 => {
                let mut data = *on_media;
                data[off..end].copy_from_slice(bytes);
                self.insert(line, data);
            }
            slot => {
                let data = &mut self.lines[slot as usize - 1];
                data[off..end].copy_from_slice(bytes);
                if data == on_media {
                    self.remove(line, slot);
                }
            }
        }
    }

    /// Write `data` to `line` of the media, keeping the current bytes
    /// current.
    pub(crate) fn media_write(&mut self, media: &mut PmDevice, line: Line, data: &[u8; LINE]) {
        match self.index.get(line) {
            0 => {
                let on_media = media.line_view(line);
                if on_media != data {
                    self.insert(line, *on_media);
                }
            }
            slot if self.lines[slot as usize - 1] == *data => self.remove(line, slot),
            _ => {}
        }
        media.write(line.base(), data);
    }

    fn insert(&mut self, line: Line, data: [u8; LINE]) {
        let i = match self.free.pop() {
            Some(i) => {
                self.lines[i as usize] = data;
                i
            }
            None => {
                self.lines.push(data);
                self.lines.len() as u32 - 1
            }
        };
        *self.index.slot(line) = i + 1;
    }

    fn remove(&mut self, line: Line, slot: u32) {
        *self.index.slot(line) = 0;
        self.free.push(slot - 1);
        // An empty overlay empties its slab, so a fork clones nothing.
        if self.free.len() == self.lines.len() {
            self.lines.clear();
            self.free.clear();
        }
    }

    /// Lines whose current bytes differ from the media's.
    pub(crate) fn len(&self) -> usize {
        self.lines.len() - self.free.len()
    }

    /// Slab slots allocated, free ones included.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.lines.len()
    }

    /// `(directory slots, pages)` of the line index.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> (usize, usize) {
        self.index.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Overlay, PmDevice, Line) {
        let range = AddrRange::new(4 << 30, 1 << 20);
        (
            Overlay::new(range),
            PmDevice::new(range),
            Line::containing(range.base + 640),
        )
    }

    #[test]
    fn a_store_of_the_media_bytes_diverges_nothing() {
        let (mut o, media, line) = setup();
        o.store(&media, line, 8, &[0; 8]);
        assert_eq!(o.len(), 0);
        o.store(&media, line, 8, &[1; 8]);
        assert_eq!(o.len(), 1);
        assert_eq!(o.current(&media, line)[8..16], [1; 8]);
        // Storing the media's bytes back drops the line.
        o.store(&media, line, 8, &[0; 8]);
        assert_eq!((o.len(), o.slab_len()), (0, 0));
    }

    #[test]
    fn a_media_write_of_the_current_bytes_drops_the_line() {
        let (mut o, mut media, line) = setup();
        o.store(&media, line, 0, &[5; 64]);
        let snapshot = *o.current(&media, line);
        o.media_write(&mut media, line, &snapshot);
        assert_eq!(o.len(), 0);
        assert_eq!(o.current(&media, line), &[5; 64]);
    }

    #[test]
    fn an_older_media_write_keeps_the_newer_bytes_current() {
        let (mut o, mut media, line) = setup();
        // Snapshot 1, then a newer store that reaches the media first
        // (an eviction), then snapshot 1 lands (the fence).
        o.store(&media, line, 0, &[1; 8]);
        let older = *o.current(&media, line);
        o.store(&media, line, 0, &[2; 8]);
        let newer = *o.current(&media, line);
        o.media_write(&mut media, line, &newer);
        assert_eq!(o.len(), 0);
        o.media_write(&mut media, line, &older);
        assert_eq!(o.len(), 1, "the current bytes moved into the overlay");
        assert_eq!(o.current(&media, line), &newer);
        assert_eq!(media.line_view(line), &older);
    }

    #[test]
    fn free_slots_are_reused_and_a_fork_is_independent() {
        let (mut o, media, line) = setup();
        let next = Line(line.0 + 1);
        o.store(&media, line, 0, &[1; 8]);
        o.store(&media, next, 0, &[2; 8]);
        o.store(&media, line, 0, &[0; 8]);
        assert_eq!((o.len(), o.slab_len()), (1, 2));
        o.store(&media, line, 0, &[3; 8]);
        assert_eq!((o.len(), o.slab_len()), (2, 2), "the free slot is reused");
        let mut f = o.fork();
        f.store(&media, next, 0, &[4; 8]);
        assert_eq!(o.current(&media, next)[0], 2);
        assert_eq!(f.current(&media, next)[0], 4);
    }
}
