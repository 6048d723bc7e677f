//! Properties of the trace record: `Event` keeps its thread, time and
//! kind exactly over its domain, compares as they do, and translates to
//! and from the 24-byte archive record without losing a byte; an
//! archive record outside the domain is a typed error.

use miniprop::prelude::*;
use pmtrace::{
    decode_events, encode_events, Category, CodecError, Event, EventKind, RecordField, Tid,
};

/// The largest thread id an event holds.
const MAX_TID: u32 = (1 << 10) - 1;
/// The latest time an event holds.
const MAX_TIME: u64 = (1 << 48) - 1;
/// The last address a store may start at.
const MAX_ADDR: u64 = (1 << 40) - 1;
/// The largest store length a record holds, and the largest thread id
/// an archive record holds.
const MAX24: u32 = (1 << 24) - 1;

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
            ends(1, MAX24),
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

/// A one-record archive of `kind` by thread `tid` at `at`, laid out
/// field by field as the format describes it, whatever the parts'
/// range.
fn archive(tid: u32, at: u64, kind: EventKind) -> Vec<u8> {
    let (tag, a, b) = match kind {
        EventKind::PmStore { addr, len, nt, cat } => {
            (u32::from(nt), (len << 8) | cat.index() as u32, addr)
        }
        EventKind::Flush { addr } => (2, 0, addr),
        EventKind::Fence => (3, 0, 0),
        EventKind::DFence => (4, 0, 0),
        EventKind::TxBegin { id } => (5, 0, id),
        EventKind::TxEnd { id } => (6, 0, id),
    };
    let mut bytes = b"WHISPR01".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&(tag | (tid << 8)).to_le_bytes());
    bytes.extend_from_slice(&a.to_le_bytes());
    bytes.extend_from_slice(&b.to_le_bytes());
    bytes.extend_from_slice(&at.to_le_bytes());
    bytes
}

/// A record with one part past the domain, that part and its value.
fn outside() -> impl Strategy<Value = (Vec<u8>, RecordField, u64)> {
    prop_oneof![
        (parts(), ends(MAX_TID + 1, MAX24)).prop_map(|((_, at, k), t)| (
            archive(t, at, k),
            RecordField::Thread,
            u64::from(t)
        )),
        (parts(), ends(MAX_TIME + 1, u64::MAX)).prop_map(|((t, _, k), at)| (
            archive(t.0, at, k),
            RecordField::Time,
            at
        )),
        (
            parts(),
            ends(MAX_ADDR + 1, u64::MAX),
            ends(1, MAX24),
            any::<bool>(),
            0..Category::ALL.len()
        )
            .prop_map(|((t, at, _), addr, len, nt, c)| {
                let cat = Category::ALL[c];
                let store = EventKind::PmStore { addr, len, nt, cat };
                (archive(t.0, at, store), RecordField::Address, addr)
            }),
    ]
}

/// Which of the record's `a` and `b` words `kind` leaves unused.
fn unused(kind: EventKind) -> (bool, bool) {
    match kind {
        EventKind::PmStore { .. } => (false, false),
        EventKind::Fence | EventKind::DFence => (true, true),
        _ => (true, false),
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
        junk_a in 1..=u32::MAX,
        junk_b in 1..=u64::MAX,
    ) {
        let e = Event::new(t, at, k);
        let clean = encode_events(&[e]);
        let mut noisy = clean.clone();
        let (a_unused, b_unused) = unused(k);
        if a_unused {
            noisy[20..24].copy_from_slice(&junk_a.to_le_bytes());
        }
        if b_unused {
            noisy[24..32].copy_from_slice(&junk_b.to_le_bytes());
        }
        prop_assert_eq!(decode_events(&noisy), Ok(vec![e]));
        prop_assert_eq!(decode_events(&clean), Ok(vec![e]));
    }

    #[test]
    fn a_canonical_record_survives_the_translation((t, at, k) in parts()) {
        let bytes = archive(t.0, at, k);
        let events = decode_events(&bytes);
        prop_assert_eq!(&events, &Ok(vec![Event::new(t, at, k)]));
        prop_assert_eq!(encode_events(&events.unwrap()), bytes);
    }

    #[test]
    fn a_record_outside_the_domain_is_a_typed_error((bytes, field, value) in outside()) {
        prop_assert_eq!(
            decode_events(&bytes),
            Err(CodecError::OutOfDomain { field, value })
        );
    }
}
