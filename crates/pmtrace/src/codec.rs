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
//! Layout: the 8-byte magic+version `WHISPR02`, a little-endian `u64`
//! event count, then each event's 16-byte record as [`Event`] holds it
//! in memory: its `head` and `body` words, little-endian. Every pair of
//! words lies inside the event's domain, so decoding refuses only the
//! codes no event writes, in [`Event`]'s own check: tag 7 and category
//! 7 ([`CodecError::BadTag`]) and a store of no bytes
//! ([`CodecError::BadStore`]). It ignores the bits a tag does not use.
//! Malformed input is a typed error, never a panic.

use crate::event::Event;

const MAGIC: [u8; 8] = *b"WHISPR02";
const REC: usize = 16;

/// Errors from [`decode_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The byte stream ended mid-record or disagrees with its count.
    Truncated,
    /// An unknown event tag or category code.
    BadTag {
        /// The offending code.
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
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "not a WHISPR02 trace (bad header)"),
            CodecError::Truncated => write!(f, "trace truncated"),
            CodecError::BadTag { tag } => write!(f, "unknown event tag {tag:#x}"),
            CodecError::BadStore { addr, len } => {
                write!(f, "store of {len} bytes at {addr:#x} is empty")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialize an event stream.
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * REC);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        let (head, body) = ev.words();
        out.extend_from_slice(&head.to_le_bytes());
        out.extend_from_slice(&body.to_le_bytes());
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
        let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
        out.push(Event::from_words(word(0), word(8))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Tid, TraceBuffer};

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
        assert_eq!(bytes.len(), 16 + 16 * events.len());
        let back = decode_events(&bytes).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_events(&[]);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_events(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(decode_events(b"nonsense"), Err(CodecError::BadHeader));
        // An empty archive of the retired 24-byte record format, and an
        // unknown version.
        for magic in [b"WHISPR01", b"WHISPR99"] {
            let bytes = [&magic[..], &[0; 8]].concat();
            assert_eq!(decode_events(&bytes), Err(CodecError::BadHeader));
        }
    }

    #[test]
    fn truncation_detected() {
        let mut bytes = encode_events(&sample());
        bytes.pop();
        assert_eq!(decode_events(&bytes), Err(CodecError::Truncated));
    }

    /// A record's `head` at time 1 by thread 0: `tag`, and a store's
    /// category code `cat`.
    fn head(tag: u64, cat: u64) -> u64 {
        1 | tag << 58 | cat << 61
    }

    /// A header for `count` events, then `records` as word pairs.
    fn archive(count: u64, records: &[(u64, u64)]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        for (head, body) in records {
            bytes.extend_from_slice(&head.to_le_bytes());
            bytes.extend_from_slice(&body.to_le_bytes());
        }
        bytes
    }

    /// A store's `body`: `len` bytes at `addr`.
    fn store(addr: u64, len: u64) -> u64 {
        addr | len << 40
    }

    #[test]
    fn bad_tag_detected() {
        // Tag 7 was a load; no event writes it now.
        for cat in 0..8 {
            let bytes = archive(1, &[(head(7, cat), store(0x1000, 8))]);
            assert_eq!(decode_events(&bytes), Err(CodecError::BadTag { tag: 7 }));
        }
    }

    #[test]
    fn the_largest_length_and_thread_id_round_trip() {
        let (tid, len) = ((1 << 10) - 1, (1 << 24) - 1);
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(tid), 0x1000, len, true, Category::AppMeta, 1);
        t.fence(Tid(tid), 2);
        let events = t.into_events();
        assert_eq!(decode_events(&encode_events(&events)), Ok(events));
    }

    #[test]
    fn a_category_code_past_the_last_is_a_bad_tag() {
        for tag in [0, 1] {
            let bytes = archive(1, &[(head(tag, 7), store(0x1000, 8))]);
            assert_eq!(decode_events(&bytes), Err(CodecError::BadTag { tag: 7 }));
        }
    }

    #[test]
    fn words_a_tag_does_not_use_are_ignored() {
        let clean = archive(2, &[(head(3, 0), 0), (head(2, 0), 0x40)]);
        let noisy = archive(2, &[(head(3, 5), 0xbeef), (head(2, 7), 0x40)]);
        assert_eq!(decode_events(&noisy), decode_events(&clean));
        assert_eq!(encode_events(&decode_events(&noisy).unwrap()), clean);
    }

    #[test]
    fn an_empty_store_is_rejected() {
        let bytes = archive(2, &[(head(0, 0), store(0x1000, 0)), (head(3, 0), 0)]);
        assert_eq!(
            decode_events(&bytes),
            Err(CodecError::BadStore {
                addr: 0x1000,
                len: 0
            })
        );
    }

    #[test]
    fn a_count_whose_size_overflows_is_truncation() {
        assert_eq!(
            decode_events(&archive(1 << 61, &[])),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            decode_events(&archive(u64::MAX, &[(head(3, 0), 0)])),
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
