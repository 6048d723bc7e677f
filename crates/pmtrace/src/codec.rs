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
//! at_ns u64}` whose field meaning depends on the tag.

use crate::event::{Category, Event, EventKind, Tid};

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
    /// A PM store of no bytes, or one whose end `addr + len` does not
    /// fit in 64 bits. A recorded run writes neither, and the epoch
    /// analysis has no lines to give either.
    BadStore {
        /// The store's first byte.
        addr: u64,
        /// Its length in bytes.
        len: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "not a WHISPER trace (bad header)"),
            CodecError::Truncated => write!(f, "trace truncated"),
            CodecError::BadTag { tag } => write!(f, "unknown event tag {tag:#x}"),
            CodecError::BadStore { addr, len } => write!(
                f,
                "store of {len} bytes at {addr:#x} is empty or wraps past the address space"
            ),
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
        let (tag, a, b): (u8, u32, u64) = match ev.kind {
            EventKind::PmStore { addr, len, nt, cat } => {
                let tag = if nt { 1 } else { 0 };
                // a packs len (24 bits) and category (8 bits).
                (tag, (len << 8) | cat.index() as u32, addr)
            }
            EventKind::Flush { addr } => (2, 0, addr),
            EventKind::Fence => (3, 0, 0),
            EventKind::DFence => (4, 0, 0),
            EventKind::TxBegin { id } => (5, 0, id),
            EventKind::TxEnd { id } => (6, 0, id),
            EventKind::PmLoad { addr } => (7, 0, addr),
            EventKind::RecoveryBegin => (8, 0, 0),
        };
        out.push(tag);
        out.extend_from_slice(&ev.tid.0.to_le_bytes()[..3]);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&ev.at_ns.to_le_bytes());
    }
    out
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
        let tag = rec[0];
        let tid = Tid(u32::from_le_bytes([rec[1], rec[2], rec[3], 0]));
        let a = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let b = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let at_ns = u64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
        let kind = match tag {
            0 | 1 => {
                let (addr, len) = (b, a >> 8);
                if len == 0 || addr.checked_add(u64::from(len)).is_none() {
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
            7 => EventKind::PmLoad { addr: b },
            8 => EventKind::RecoveryBegin,
            other => return Err(CodecError::BadTag { tag: other }),
        };
        out.push(Event { tid, at_ns, kind });
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
        t.recovery_begin(Tid(0), 8);
        t.pm_load(Tid(0), 0x1_0000_0040, 9);
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
        let mut bytes = encode_events(&sample());
        bytes[16] = 0x7f; // first record's tag
        assert!(matches!(
            decode_events(&bytes),
            Err(CodecError::BadTag { .. })
        ));
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
        let addr = u64::MAX - 3;
        let bytes = archive(2, &[record(1, 8 << 8, addr), record(3, 0, 0)]);
        assert_eq!(
            decode_events(&bytes),
            Err(CodecError::BadStore { addr, len: 8 })
        );
        // An end of exactly 2^64 - 1 still fits.
        let bytes = archive(1, &[record(1, 3 << 8, addr)]);
        assert_eq!(decode_events(&bytes).map(|e| e.len()), Ok(1));
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
