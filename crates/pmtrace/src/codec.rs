//! Binary trace serialization.
//!
//! WHISPER's published traces are files ("the size of the trace is
//! limited only by storage capacity", Section 4) that downstream
//! studies re-analyze offline. This module provides a compact,
//! versioned binary codec for [`Event`] streams so traces recorded on
//! one run can be archived and re-analyzed (or replayed through the
//! `hops` timing models) later, without pulling in a serialization
//! framework.
//!
//! Layout: an 8-byte magic+version header, a little-endian `u64` event
//! count, then fixed 24-byte records `{tag u8, tid u24, a u32, b u64,
//! at_ns u64}` whose field meaning depends on the tag: a store's `a` is
//! `len << 8 | category` and its `b` the address; a flush's `b` is the
//! address, a transaction boundary's the id. The archive record is not
//! [`Event`]'s 16-byte in-memory layout: encoding unpacks each event
//! into it, and decoding checks every record against the event's
//! domain (thread id < 2^10, `at_ns` < 2^48, store address < 2^40)
//! before it rebuilds the event through [`Event::new`], which zeroes
//! the bits its tag does not use. A record outside the domain is a
//! [`CodecError::OutOfDomain`], never a panic.

use crate::event::{Category, Event, EventKind, Tid, ADDR_BITS, TID_BITS, TIME_BITS};

const MAGIC: [u8; 8] = *b"WHISPR01";
const REC: usize = 24;

/// Errors from [`decode_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The byte stream ended mid-record or disagrees with its count.
    Truncated,
    /// An unknown event tag or category code.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// A PM store of no bytes. A recorded run writes none, and the
    /// epoch analysis has no lines to give it.
    BadStore {
        /// The store's first byte.
        addr: u64,
        /// Its length in bytes.
        len: u32,
    },
    /// A record part outside what an [`Event`] holds.
    OutOfDomain {
        /// Which part.
        field: RecordField,
        /// Its value in the record.
        value: u64,
    },
}

/// The parts of an archive record that [`Event`]'s domain bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordField {
    /// The thread id, below 2^10.
    Thread,
    /// `at_ns`, below 2^48.
    Time,
    /// A store's first byte, below 2^40.
    Address,
}

impl RecordField {
    /// The field's width in the in-memory record: its values lie below
    /// 2 to this power.
    fn bits(self) -> u32 {
        match self {
            RecordField::Thread => TID_BITS,
            RecordField::Time => TIME_BITS,
            RecordField::Address => ADDR_BITS,
        }
    }

    /// `Err(OutOfDomain)` if `value` does not fit the field.
    fn check(self, value: u64) -> Result<(), CodecError> {
        if value >> self.bits() == 0 {
            Ok(())
        } else {
            Err(CodecError::OutOfDomain { field: self, value })
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "not a WHISPER trace (bad header)"),
            CodecError::Truncated => write!(f, "trace truncated"),
            CodecError::BadTag { tag } => write!(f, "unknown event tag {tag:#x}"),
            CodecError::BadStore { addr, len } => {
                write!(f, "store of {len} bytes at {addr:#x} is empty")
            }
            CodecError::OutOfDomain { field, value } => {
                match field {
                    RecordField::Thread => write!(f, "thread id {value}")?,
                    RecordField::Time => write!(f, "time {value} ns")?,
                    RecordField::Address => write!(f, "store address {value:#x}")?,
                }
                write!(f, " is past the trace record's limit 2^{}", field.bits())
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn cat_from(code: u8) -> Option<Category> {
    Category::ALL.get(code as usize).copied()
}

/// Serialize an event stream.
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * REC);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        out.extend_from_slice(&record_of(ev));
    }
    out
}

/// `ev`'s little-endian archive record: `tag | tid << 8`, `a`, `b`,
/// `at_ns`.
#[inline]
fn record_of(ev: &Event) -> [u8; REC] {
    let (tag, a, b) = match ev.kind() {
        EventKind::PmStore { addr, len, nt, cat } => {
            (u32::from(nt), (len << 8) | cat.index() as u32, addr)
        }
        EventKind::Flush { addr } => (2, 0, addr),
        EventKind::Fence => (3, 0, 0),
        EventKind::DFence => (4, 0, 0),
        EventKind::TxBegin { id } => (5, 0, id),
        EventKind::TxEnd { id } => (6, 0, id),
    };
    let mut r = [0; REC];
    r[0..4].copy_from_slice(&(tag | (ev.tid().0 << 8)).to_le_bytes());
    r[4..8].copy_from_slice(&a.to_le_bytes());
    r[8..16].copy_from_slice(&b.to_le_bytes());
    r[16..24].copy_from_slice(&ev.at_ns().to_le_bytes());
    r
}

/// Deserialize an event stream produced by [`encode_events`].
///
/// # Errors
///
/// [`CodecError`] on malformed input.
pub fn decode_events(bytes: &[u8]) -> Result<Vec<Event>, CodecError> {
    if bytes.len() < 16 || bytes[0..8] != MAGIC {
        return Err(CodecError::BadHeader);
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let body = &bytes[16..];
    let count = usize::try_from(count)
        .ok()
        .filter(|&n| n.checked_mul(REC) == Some(body.len()))
        .ok_or(CodecError::Truncated)?;
    let mut out = Vec::with_capacity(count);
    for rec in body.chunks_exact(REC) {
        let head = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let tag = head as u8;
        let a = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let b = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let at_ns = u64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
        let kind = match tag {
            0 | 1 => {
                let (addr, len) = (b, a >> 8);
                RecordField::Address.check(addr)?;
                if len == 0 {
                    return Err(CodecError::BadStore { addr, len });
                }
                EventKind::PmStore {
                    addr,
                    len,
                    nt: tag == 1,
                    cat: cat_from((a & 0xff) as u8).ok_or(CodecError::BadTag {
                        tag: (a & 0xff) as u8,
                    })?,
                }
            }
            2 => EventKind::Flush { addr: b },
            3 => EventKind::Fence,
            4 => EventKind::DFence,
            5 => EventKind::TxBegin { id: b },
            6 => EventKind::TxEnd { id: b },
            other => return Err(CodecError::BadTag { tag: other }),
        };
        let tid = head >> 8;
        RecordField::Thread.check(tid.into())?;
        RecordField::Time.check(at_ns)?;
        out.push(Event::new(Tid(tid), at_ns, kind));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuffer;

    fn sample() -> Vec<Event> {
        let mut t = TraceBuffer::new();
        t.tx_begin(Tid(0), 9, 1);
        t.pm_store(Tid(0), 0x1_0000_0040, 24, false, Category::UserData, 2);
        t.pm_store(Tid(3), 0x1_0000_0080, 512, true, Category::RedoLog, 3);
        t.flush(Tid(0), 0x1_0000_0040, 4);
        t.fence(Tid(0), 5);
        t.dfence(Tid(3), 6);
        t.tx_end(Tid(0), 9, 7);
        t.into_events()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let events = sample();
        let bytes = encode_events(&events);
        let back = decode_events(&bytes).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_events(&[]);
        assert_eq!(decode_events(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(decode_events(b"nonsense"), Err(CodecError::BadHeader));
        assert_eq!(
            decode_events(b"WHISPR99\0\0\0\0\0\0\0\0"),
            Err(CodecError::BadHeader)
        );
    }

    #[test]
    fn truncation_detected() {
        let mut bytes = encode_events(&sample());
        bytes.pop();
        assert_eq!(decode_events(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_detected() {
        // 7 and 8 were a load and a recovery marker; no run records them.
        for tag in [7, 8, 0x7f] {
            let mut bytes = encode_events(&sample());
            bytes[16] = tag; // first record's tag
            assert_eq!(decode_events(&bytes), Err(CodecError::BadTag { tag }));
        }
    }

    #[test]
    fn the_largest_length_and_thread_id_round_trip() {
        let (tid, len) = ((1 << TID_BITS) - 1, (1 << 24) - 1);
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(tid), 0x1000, len, true, Category::AppMeta, 1);
        t.fence(Tid(tid), 2);
        let events = t.into_events();
        assert_eq!(decode_events(&encode_events(&events)), Ok(events));
    }

    #[test]
    fn a_category_code_past_the_last_is_a_bad_tag() {
        let bytes = archive(1, &[record(0, (8 << 8) | 7, 0x1000)]);
        assert_eq!(decode_events(&bytes), Err(CodecError::BadTag { tag: 7 }));
        let bytes = archive(1, &[record(9, 0, 0)]);
        assert_eq!(decode_events(&bytes), Err(CodecError::BadTag { tag: 9 }));
    }

    #[test]
    fn words_a_tag_does_not_use_are_ignored() {
        let clean = archive(2, &[record(3, 0, 0), record(2, 0, 0x40)]);
        let noisy = archive(2, &[record(3, 0xdead, 0xbeef), record(2, 0xdead, 0x40)]);
        assert_eq!(decode_events(&noisy), decode_events(&clean));
        assert_eq!(encode_events(&decode_events(&noisy).unwrap()), clean);
    }

    /// A header for `count` events, then `records`.
    fn archive(count: u64, records: &[[u8; REC]]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        for r in records {
            bytes.extend_from_slice(r);
        }
        bytes
    }

    /// One record: `tag`, thread 0, then `a`, `b` and time 1.
    fn record(tag: u8, a: u32, b: u64) -> [u8; REC] {
        let mut r = [0; REC];
        r[0] = tag;
        r[4..8].copy_from_slice(&a.to_le_bytes());
        r[8..16].copy_from_slice(&b.to_le_bytes());
        r[16..24].copy_from_slice(&1u64.to_le_bytes());
        r
    }

    #[test]
    fn an_empty_store_is_rejected() {
        let bytes = archive(2, &[record(0, 0, 0x1000), record(3, 0, 0)]);
        assert_eq!(
            decode_events(&bytes),
            Err(CodecError::BadStore {
                addr: 0x1000,
                len: 0
            })
        );
    }

    #[test]
    fn a_store_past_the_last_address_is_rejected() {
        let addr = 1 << ADDR_BITS;
        let bytes = archive(2, &[record(1, 8 << 8, addr), record(3, 0, 0)]);
        assert_eq!(
            decode_events(&bytes),
            Err(CodecError::OutOfDomain {
                field: RecordField::Address,
                value: addr
            })
        );
        // A store starting at 2^40 - 1 still fits, whatever its length.
        let bytes = archive(1, &[record(1, ((1 << 24) - 1) << 8, addr - 1)]);
        assert_eq!(decode_events(&bytes).map(|e| e.len()), Ok(1));
    }

    #[test]
    fn an_out_of_domain_error_names_the_field_and_its_value() {
        let says = |field, value| CodecError::OutOfDomain { field, value }.to_string();
        assert_eq!(
            says(RecordField::Thread, 1024),
            "thread id 1024 is past the trace record's limit 2^10"
        );
        assert_eq!(
            says(RecordField::Time, 1 << 48),
            "time 281474976710656 ns is past the trace record's limit 2^48"
        );
        assert_eq!(
            says(RecordField::Address, 1 << 40),
            "store address 0x10000000000 is past the trace record's limit 2^40"
        );
    }

    #[test]
    fn a_count_whose_size_overflows_is_truncation() {
        assert_eq!(
            decode_events(&archive(1 << 61, &[])),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            decode_events(&archive(u64::MAX, &[record(3, 0, 0)])),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn analysis_identical_after_round_trip() {
        let events = sample();
        let back = decode_events(&encode_events(&events)).unwrap();
        let a = crate::analysis::split_epochs(&events);
        let b = crate::analysis::split_epochs(&back);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.lines, y.lines);
            assert_eq!(x.bytes, y.bytes);
        }
    }
}
