//! The streamed trace is the document: `write_chrome` and the DOM view
//! `export_chrome` produce the same bytes for any track list, and the
//! stream reaches its writer in bounded pieces.

use miniprop::prelude::*;
use pmobs::json::{parse, Json};
use pmobs::trace::{export_chrome, write_chrome, Phase, TraceEvent, Track, WRITE_BUF};

fn streamed(tracks: &[Track]) -> String {
    let mut bytes = Vec::new();
    write_chrome(tracks, &mut bytes).expect("a Vec accepts every write");
    String::from_utf8(bytes).expect("the trace is UTF-8")
}

/// Timestamps from 0 to 2^53, whole microseconds and not.
fn at_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=3,
        0u64..=1 << 53,
        (0u64..=1 << 43).prop_map(|us| us * 1000),
        Just(1 << 53)
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    let phase = prop_oneof![
        Just(Phase::Begin),
        Just(Phase::End),
        Just(Phase::Instant),
        Just(Phase::Counter)
    ];
    let name = prop_oneof![Just("drain"), Just("pb.occupancy"), Just("")];
    (
        at_ns(),
        phase,
        name,
        (any::<u32>(), any::<u32>()),
        any::<u64>(),
    )
        .prop_map(|(at_ns, phase, name, (span, parent), value)| TraceEvent {
            at_ns,
            phase,
            name,
            span,
            parent,
            value,
        })
}

/// Track names exercise every escape class and multi-byte scalars.
fn track_name() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("exim/memsim/0"),
        Just("\""),
        Just("\\"),
        Just("\n\r\t"),
        Just("\u{0}\u{1}\u{1f}"),
        Just("\u{7f}é\u{30c4}\u{1f980}"),
        Just(" ")
    ];
    collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

fn track() -> impl Strategy<Value = Track> {
    let events = prop_oneof![
        Just(Vec::new()).boxed(),
        collection::vec(event(), 0..40).boxed()
    ];
    let dropped = prop_oneof![Just(0u64), any::<u64>()];
    (track_name(), events, dropped).prop_map(|(name, events, dropped)| Track {
        name,
        events,
        dropped,
    })
}

/// Equal as documents. A timestamp of whole microseconds is an `F64`
/// that prints without a fraction, so it parses back as an integer.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Arr(a), Json::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let same_field = |((k, a), (l, b)): (&(_, Json), &(_, Json))| k == l && same(a, b);
            a.len() == b.len() && a.iter().zip(b).all(same_field)
        }
        (Json::F64(_), _) | (_, Json::F64(_)) => a.as_f64() == b.as_f64(),
        _ => a == b,
    }
}

proptest! {
    #[test]
    fn the_stream_is_the_document(tracks in collection::vec(track(), 0..6)) {
        let doc = export_chrome(&tracks);
        let text = streamed(&tracks);
        prop_assert!(text == doc.to_compact() + "\n", "stream != DOM view:\n{text}");
        let parsed = parse(&text).expect("the stream parses");
        prop_assert!(same(&parsed, &doc), "parsed stream != DOM view:\n{text}");
    }
}

/// Records what each `write` call was handed.
#[derive(Default)]
struct CountingWriter {
    calls: usize,
    largest: usize,
    total: usize,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.largest = self.largest.max(buf.len());
        self.total += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_writer_never_holds_the_document() {
    let events = (0..100_000u64)
        .map(|i| TraceEvent {
            at_ns: i * 1_234,
            phase: [Phase::Begin, Phase::End, Phase::Instant, Phase::Counter][i as usize % 4],
            name: "drain",
            span: i as u32,
            parent: 0,
            value: i,
        })
        .collect();
    // One record longer than the buffer: it is cut, not passed whole.
    let tracks = [
        Track {
            name: "x".repeat(3 * WRITE_BUF),
            events: Vec::new(),
            dropped: 0,
        },
        Track {
            name: "big".into(),
            events,
            dropped: 7,
        },
    ];
    let mut out = CountingWriter::default();
    write_chrome(&tracks, &mut out).expect("the writer accepts every write");
    assert_eq!(out.total, export_chrome(&tracks).to_compact().len() + 1);
    assert!(
        out.largest <= WRITE_BUF,
        "one write of {} bytes",
        out.largest
    );
    assert!(out.calls >= out.total / WRITE_BUF, "{} calls", out.calls);
}
