//! Properties of the 24-byte trace record: `Event` keeps its thread,
//! time and kind exactly, compares as they do, and decodes the same
//! whatever an archive stores in the words its tag does not use.

use miniprop::prelude::*;
use pmtrace::{decode_events, encode_events, Category, Event, EventKind, Tid};

/// The largest thread id and store length a record holds.
const MAX24: u32 = (1 << 24) - 1;

fn kinds() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (
            any::<u64>(),
            1..=MAX24,
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
    (0..=MAX24, any::<u64>(), kinds()).prop_map(|(t, at, k)| (Tid(t), at, k))
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
}
