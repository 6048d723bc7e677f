//! Properties of the trace record: `Event` keeps its thread, time and
//! kind exactly over its domain, compares as they do, and is archived
//! as its two words, 16 bytes; any pair of archived words decodes to
//! the event they canonically hold or to a typed error.

use miniprop::prelude::*;
use pmtrace::{decode_events, encode_events, Category, CodecError, Event, EventKind, Tid};

/// The largest thread id an event holds.
const MAX_TID: u32 = (1 << 10) - 1;
/// The latest time an event holds.
const MAX_TIME: u64 = (1 << 48) - 1;
/// The last address a store may start at.
const MAX_ADDR: u64 = (1 << 40) - 1;
/// The largest store length a record holds.
const MAX_LEN: u32 = (1 << 24) - 1;
/// Where `head` keeps the tag and, above it, a store's category.
const TAG_SHIFT: u32 = 58;
const CAT_SHIFT: u32 = 61;

/// `lo..=hi`, with each end drawn a third of the time.
fn ends<T>(lo: T, hi: T) -> impl Strategy<Value = T>
where
    T: Clone + 'static,
    std::ops::RangeInclusive<T>: Strategy<Value = T> + 'static,
{
    prop_oneof![Just(lo.clone()), lo..=hi.clone(), Just(hi)]
}

fn kinds() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (
            ends(0, MAX_ADDR),
            ends(1, MAX_LEN),
            any::<bool>(),
            0..Category::ALL.len()
        )
            .prop_map(|(addr, len, nt, c)| EventKind::PmStore {
                addr,
                len,
                nt,
                cat: Category::ALL[c],
            }),
        any::<u64>().prop_map(|addr| EventKind::Flush { addr }),
        Just(EventKind::Fence),
        Just(EventKind::DFence),
        any::<u64>().prop_map(|id| EventKind::TxBegin { id }),
        any::<u64>().prop_map(|id| EventKind::TxEnd { id }),
    ]
}

fn parts() -> impl Strategy<Value = (Tid, u64, EventKind)> {
    (ends(0, MAX_TID), ends(0, MAX_TIME), kinds()).prop_map(|(t, at, k)| (Tid(t), at, k))
}

/// `kind` by thread `tid` at `at` as the archive's two words, laid out
/// field by field as the format describes them.
fn words(tid: u32, at: u64, kind: EventKind) -> (u64, u64) {
    let (tag, cat, body) = match kind {
        EventKind::PmStore { addr, len, nt, cat } => (
            u64::from(nt),
            cat.index() as u64,
            addr | u64::from(len) << 40,
        ),
        EventKind::Flush { addr } => (2, 0, addr),
        EventKind::Fence => (3, 0, 0),
        EventKind::DFence => (4, 0, 0),
        EventKind::TxBegin { id } => (5, 0, id),
        EventKind::TxEnd { id } => (6, 0, id),
    };
    let head = at | u64::from(tid) << 48 | tag << TAG_SHIFT | cat << CAT_SHIFT;
    (head, body)
}

/// An archive of `records`, each a `(head, body)` pair.
fn archive(records: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = b"WHISPR02".to_vec();
    bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (head, body) in records {
        bytes.extend_from_slice(&head.to_le_bytes());
        bytes.extend_from_slice(&body.to_le_bytes());
    }
    bytes
}

/// What decoding `(head, body)` must give: the canonical words, with
/// the bits their tag does not use zeroed, or the error that refuses
/// them.
fn canonical(head: u64, body: u64) -> Result<(u64, u64), CodecError> {
    let no_cat = head & ((1 << CAT_SHIFT) - 1);
    match (head >> TAG_SHIFT) & 7 {
        7 => Err(CodecError::BadTag { tag: 7 }),
        0 | 1 if head >> CAT_SHIFT == 7 => Err(CodecError::BadTag { tag: 7 }),
        0 | 1 if body >> 40 == 0 => Err(CodecError::BadStore { addr: body, len: 0 }),
        0 | 1 => Ok((head, body)),
        3 | 4 => Ok((no_cat, 0)),
        _ => Ok((no_cat, body)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_event_returns_what_it_was_built_from((t, at, k) in parts()) {
        let e = Event::new(t, at, k);
        prop_assert_eq!(e.tid(), t);
        prop_assert_eq!(e.at_ns(), at);
        prop_assert_eq!(e.kind(), k);
    }

    #[test]
    fn records_are_equal_exactly_when_their_parts_are(
        x in parts(),
        y in parts(),
        keep in 0..4usize,
    ) {
        // Half the time `y` shares all but at most one part with `x`.
        let y = match keep {
            0 => x,
            1 => (x.0, x.1, y.2),
            2 => (x.0, y.1, x.2),
            _ => y,
        };
        let (ex, ey) = (Event::new(x.0, x.1, x.2), Event::new(y.0, y.1, y.2));
        prop_assert_eq!(ex == ey, x == y);
    }

    #[test]
    fn unused_words_do_not_change_the_decoded_event(
        (t, at, k) in parts(),
        junk_cat in 1..=7u64,
        junk_body in 1..=u64::MAX,
    ) {
        let e = Event::new(t, at, k);
        let (head, body) = words(t.0, at, k);
        let noisy = match k {
            EventKind::PmStore { .. } => (head, body),
            EventKind::Fence | EventKind::DFence => (head | junk_cat << CAT_SHIFT, junk_body),
            _ => (head | junk_cat << CAT_SHIFT, body),
        };
        prop_assert_eq!(decode_events(&archive(&[noisy])), Ok(vec![e]));
        prop_assert_eq!(decode_events(&archive(&[(head, body)])), Ok(vec![e]));
    }

    #[test]
    fn a_canonical_record_survives_the_translation((t, at, k) in parts()) {
        let bytes = archive(&[words(t.0, at, k)]);
        let events = decode_events(&bytes);
        prop_assert_eq!(&events, &Ok(vec![Event::new(t, at, k)]));
        prop_assert_eq!(encode_events(&events.unwrap()), bytes);
    }

    #[test]
    fn any_pair_of_words_decodes_or_is_a_typed_error(
        head in any::<u64>(),
        body in prop_oneof![any::<u64>(), 0..=MAX_ADDR],
    ) {
        let got = decode_events(&archive(&[(head, body)]));
        let want = canonical(head, body).map(|w| archive(&[w]));
        prop_assert_eq!(got.map(|e| encode_events(&e)), want);
    }
}
