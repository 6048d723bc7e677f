//! Property tests for the media layer.

use miniprop::prelude::*;
use pmem::{lines_spanning, AddrRange, Line, PmDevice, PmImage, LINE_SIZE};

const RANGE_LEN: u64 = 1 << 16;

fn spans() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    collection::vec(
        (0u64..RANGE_LEN - 512, collection::vec(any::<u8>(), 1..300)),
        1..24,
    )
}

proptest! {
    /// Writes land byte-exactly, with later writes overriding earlier
    /// overlapping ones — same semantics as a `Vec<u8>` model.
    #[test]
    fn device_matches_flat_model(writes in spans()) {
        let mut dev = PmDevice::new(AddrRange::new(0, RANGE_LEN));
        let mut model = vec![0u8; RANGE_LEN as usize];
        for (addr, data) in &writes {
            dev.write(*addr, data);
            model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        for (addr, data) in &writes {
            prop_assert_eq!(
                dev.read_vec(*addr, data.len()),
                model[*addr as usize..*addr as usize + data.len()].to_vec()
            );
        }
        // Random probes across the whole range.
        for probe in (0..RANGE_LEN - 64).step_by(977) {
            prop_assert_eq!(dev.read_vec(probe, 64), model[probe as usize..probe as usize + 64].to_vec());
        }
    }

    /// Images round-trip the full device contents.
    #[test]
    fn image_round_trip(writes in spans()) {
        let mut dev = PmDevice::new(AddrRange::new(0, RANGE_LEN));
        for (addr, data) in &writes {
            dev.write(*addr, data);
        }
        let img = dev.image();
        let mut dev2 = PmDevice::from_image(&img);
        for probe in (0..RANGE_LEN - 64).step_by(577) {
            prop_assert_eq!(dev.read_vec(probe, 64), dev2.read_vec(probe, 64));
        }
        prop_assert_eq!(img, dev2.image());
    }

    /// Endurance counters equal the number of line-chunks written.
    #[test]
    fn write_counters_match_spans(writes in spans()) {
        let mut dev = PmDevice::new(AddrRange::new(0, RANGE_LEN));
        let mut expected = 0u64;
        for (addr, data) in &writes {
            dev.write(*addr, data);
            expected += lines_spanning(*addr, data.len()).count() as u64;
        }
        prop_assert_eq!(dev.total_line_writes(), expected);
    }

    /// Line arithmetic: every address maps into exactly one line, and
    /// span decomposition tiles the range exactly once.
    #[test]
    fn line_decomposition_tiles(addr in 0u64..1 << 40, len in 1usize..5000) {
        let chunks: Vec<_> = lines_spanning(addr, len).collect();
        let total: usize = chunks.iter().map(|(_, _, n)| *n).sum();
        prop_assert_eq!(total, len);
        let mut cursor = addr;
        for (line, start, n) in chunks {
            prop_assert_eq!(start, cursor);
            prop_assert!(line.contains(start));
            prop_assert!(line.contains(start + n as u64 - 1));
            prop_assert!(n as u64 <= LINE_SIZE);
            cursor += n as u64;
        }
    }

    /// `set_line` splices exactly one line and leaves the rest alone.
    #[test]
    fn image_splice_is_local(line_no in 1u64..(RANGE_LEN / LINE_SIZE - 1), fill in any::<u8>()) {
        let mut img = PmImage::empty(AddrRange::new(0, RANGE_LEN));
        img.set_line(Line(line_no), [fill; 64]);
        let line = Line(line_no);
        prop_assert_eq!(img.read_vec(line.base(), 64), vec![fill; 64]);
        prop_assert_eq!(img.read_vec(line.base() - 64, 64), vec![0; 64]);
        prop_assert_eq!(img.read_vec(line.base() + 64, 64), vec![0; 64]);
    }
}

// ---------------------------------------------------------------------
// Paged backing vs. the naive per-line reference model
// ---------------------------------------------------------------------

/// The reference model the paged backing replaced: one 64-byte entry
/// per written line in a hash map. The paged device must be
/// behaviorally indistinguishable from this under any op sequence.
#[derive(Default)]
struct NaiveLineModel {
    lines: std::collections::HashMap<Line, [u8; 64]>,
    writes: u64,
}

impl NaiveLineModel {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let mut src = 0;
        for (line, start, len) in lines_spanning(addr, bytes.len()) {
            let off = line.offset_of(start);
            let data = self.lines.entry(line).or_insert([0; 64]);
            data[off..off + len].copy_from_slice(&bytes[src..src + len]);
            src += len;
            self.writes += 1;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let mut dst = 0;
        for (line, start, n) in lines_spanning(addr, len) {
            let off = line.offset_of(start);
            if let Some(data) = self.lines.get(&line) {
                buf[dst..dst + n].copy_from_slice(&data[off..off + n]);
            }
            dst += n;
        }
        buf
    }
}

/// Device based at 4 GiB and 4 GiB long (the asplos17 PM range: page
/// arithmetic must be base-relative, and the page directory must grow
/// on demand). Random writes land in the first four 64 KiB backing
/// pages; one more goes to the very end of the range, first.
const PAGED_BASE: u64 = 4 << 30;
const DEVICE_LEN: u64 = 4 << 30;
const PAGED_LEN: u64 = 200 * 1024;
const PAGE_BYTES: u64 = 64 * 1024;

/// Write offsets: uniform over the range, plus a boosted population of
/// unaligned spans straddling a backing-page boundary.
fn paged_ops() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    let anywhere = 0u64..PAGED_LEN - 512;
    let near_boundary = (1u64..3, 0u64..384).prop_map(|(page, off)| page * PAGE_BYTES - 192 + off);
    collection::vec(
        (
            prop_oneof![anywhere, near_boundary],
            collection::vec(any::<u8>(), 1..400),
        ),
        1..32,
    )
}

proptest! {
    /// Contents, endurance accounting, line views, and image snapshots
    /// of the paged device all match the naive per-line model.
    #[test]
    fn paged_device_matches_line_map_model(
        mut ops in paged_ops(),
        tail in collection::vec(any::<u8>(), 1..130),
    ) {
        let mut dev = PmDevice::new(AddrRange::new(PAGED_BASE, DEVICE_LEN));
        prop_assert_eq!(dev.resident(), (0, 0));
        // The fresh device's first write ends on the range's last byte:
        // both directories (data, endurance) grow to the last of their
        // 65 536 pages, and only that page materializes.
        ops.insert(0, (DEVICE_LEN - tail.len() as u64, tail));
        let mut model = NaiveLineModel::default();
        dev.write(PAGED_BASE + ops[0].0, &ops[0].1);
        model.write(PAGED_BASE + ops[0].0, &ops[0].1);
        prop_assert_eq!(dev.resident(), (2 * 65_536, 2));
        prop_assert_eq!(dev.line_writes(Line::containing(PAGED_BASE + DEVICE_LEN - 1)), 1);
        for (off, data) in &ops[1..] {
            dev.write(PAGED_BASE + off, data);
            model.write(PAGED_BASE + off, data);
        }
        // Byte contents agree at every write site and across the range
        // (probe stride is coprime to the page size).
        for (off, data) in &ops {
            prop_assert_eq!(
                dev.read_vec(PAGED_BASE + off, data.len()),
                model.read(PAGED_BASE + off, data.len())
            );
        }
        for probe in (0..PAGED_LEN - 64).step_by(4099) {
            prop_assert_eq!(
                dev.read_vec(PAGED_BASE + probe, 64),
                model.read(PAGED_BASE + probe, 64)
            );
        }
        // Accounting: live lines and endurance totals.
        prop_assert_eq!(dev.lines_in_use(), model.lines.len());
        prop_assert_eq!(dev.total_line_writes(), model.writes);
        // Borrowed line views equal the model's lines, and every
        // written line has a positive endurance count.
        for (line, data) in &model.lines {
            prop_assert_eq!(dev.line_view(*line), data);
            prop_assert!(dev.line_writes(*line) >= 1);
        }
        // The image holds exactly the written lines, in sorted order,
        // and round-trips through from_image.
        let img = dev.image();
        let mut want: Vec<Line> = model.lines.keys().copied().collect();
        want.sort_unstable();
        let got: Vec<Line> = img.lines().map(|(l, _)| l).collect();
        prop_assert_eq!(got, want);
        let mut dev2 = PmDevice::from_image(&img);
        prop_assert_eq!(img, dev2.image());
        prop_assert_eq!(dev2.lines_in_use(), model.lines.len());
    }
}
