//! Simulated-time causal tracing.
//!
//! Where [`metrics`](crate::metrics) aggregates *how much* (counters,
//! histograms), this module records *what happened when*: typed events
//! with span/parent ids on named tracks, timestamped on the
//! **simulated** clock only. That single clock-domain rule is what
//! makes traces reproducible: a trace of a seeded run is bit-identical
//! whatever the host, the wall-clock, or the `--parallel` worker count,
//! because no event ever carries host time.
//!
//! # Pieces
//!
//! * [`TraceEvent`] — one begin/end/instant/counter record. Begin/end
//!   pairs form spans; each begin gets a track-local span id and the id
//!   of the enclosing span as its parent (causality without pointers).
//! * [`TraceSink`] — a bounded per-owner event buffer (a machine, a
//!   replay thread, a serve shard each own one). Sinks are filled
//!   single-threaded by their owner and submit to a global collector
//!   when dropped; the merge sorts tracks by name, so the collected
//!   order is independent of which worker thread finished first.
//! * [`take_tracks`] / [`write_chrome`] — drain the collector into a
//!   deterministic track list and stream it out as Chrome trace-event
//!   JSON (loads in Perfetto / `chrome://tracing`; one thread lane per
//!   track), each element encoded straight into the output buffer.
//!   [`export_chrome`] is the same document as a [`Json`] value whose
//!   `traceEvents` elements are held as that encoded text
//!   ([`Json::Raw`]).
//!
//! # Non-perturbation contract
//!
//! Like metric recording, tracing is **off by default** behind one
//! relaxed [`AtomicBool`] ([`enabled`]); a disabled run pays one
//! relaxed load per would-be sink creation and nothing per event.
//! Sinks never touch the simulated clock, the recorded trace, or any
//! RNG — they only *read* clocks the simulation already computed — so
//! enabling tracing cannot change a single simulated outcome. The
//! `whisper` crate's `obs_equivalence` test extends to this flag.
//!
//! # Overhead policy
//!
//! Every sink is bounded ([`DEFAULT_CAPACITY`] events). At capacity,
//! new begins are *suppressed in balance*: the begin is dropped and a
//! depth counter ensures its matching end is dropped too, so an
//! exported track always has balanced begin/end events. Instants and
//! counter samples at capacity are simply dropped. Drops are counted
//! per track and exported in the track metadata.
//!
//! # Track naming
//!
//! Deterministic output requires deterministic track names, including
//! when the same code runs several times (two machines per sim app,
//! six replays per Figure 10 cluster). Owners therefore name sinks
//! through a thread-local [`context`]: `context("exim")` scopes a
//! logical run, and each [`sink`]`("memsim")` call inside it yields
//! `exim/memsim/0`, `exim/memsim/1`, … — a per-context, per-kind
//! sequence number instead of anything address- or thread-derived.
//! [`sink_named`] bypasses the context for owners that already have a
//! globally unique name (serve shard queues). [`suppress`] turns sink
//! creation off for a scope (the serving engine's calibration runs,
//! which would otherwise trace every shard's warm-up).

use crate::json::{self, Json};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::convert::Infallible;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether trace recording is on — one relaxed atomic load, mirroring
/// [`crate::enabled`]. Off by default.
#[inline]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn trace recording on or off process-wide. Sinks check the flag
/// at creation time, so toggling affects machines/replays constructed
/// afterwards.
pub fn set_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Default per-sink event capacity (see the overhead policy above).
pub const DEFAULT_CAPACITY: usize = 262_144;

/// What one [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opens (gets a fresh span id; parent = enclosing span).
    Begin,
    /// The innermost open span closes.
    End,
    /// A point event.
    Instant,
    /// A sampled value (e.g. persist-buffer occupancy).
    Counter,
}

/// One trace record. `at_ns` is **always** simulated time — the one
/// rule that keeps traces deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp (ns).
    pub at_ns: u64,
    /// Event kind.
    pub phase: Phase,
    /// Event name (span name for Begin/End).
    pub name: &'static str,
    /// Track-local span id (Begin/End), 0 otherwise.
    pub span: u32,
    /// Span id of the enclosing span at Begin time; 0 = root.
    pub parent: u32,
    /// Payload: drained lines, stall ns, queue wait, sampled value…
    pub value: u64,
}

/// A finished track: one named event lane, plus how many events the
/// capacity bound dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Unique track name (see the naming rules in the module docs).
    pub name: String,
    /// Events in emission order (timestamps are non-decreasing as long
    /// as the owner's clock is monotone, which every simulated clock
    /// in this workspace is).
    pub events: Vec<TraceEvent>,
    /// Events dropped by the capacity bound.
    pub dropped: u64,
}

/// A bounded, single-owner event buffer for one track.
///
/// Created through [`sink`] / [`sink_named`] (which return `None` when
/// tracing is disabled or suppressed, so the disabled path allocates
/// nothing). On drop, any still-open spans are closed at the last seen
/// timestamp and the track submits itself to the global collector.
#[derive(Debug)]
pub struct TraceSink {
    name: String,
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Open spans: (span id, name), innermost last.
    stack: Vec<(u32, &'static str)>,
    next_span: u32,
    /// Depth of begins suppressed by the capacity bound; their matching
    /// ends are swallowed to keep the track balanced.
    suppressed: u32,
    dropped: u64,
    last_ns: u64,
}

impl TraceSink {
    /// A sink with the default capacity. Prefer [`sink`]/[`sink_named`];
    /// this constructor exists for owners that derive per-thread names
    /// from a base captured at construction (the hops replayer).
    pub fn new(name: String) -> TraceSink {
        TraceSink {
            name,
            events: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            stack: Vec::new(),
            next_span: 0,
            suppressed: 0,
            dropped: 0,
            last_ns: 0,
        }
    }

    /// The track name this sink will submit under.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, ev: TraceEvent) {
        self.last_ns = self.last_ns.max(ev.at_ns);
        self.events.push(ev);
    }

    /// Open a span at simulated time `at_ns`. `value` is a free payload
    /// (0 when there is nothing to say).
    pub fn begin(&mut self, name: &'static str, at_ns: u64, value: u64) {
        if self.suppressed > 0 || self.events.len() >= self.capacity {
            self.suppressed += 1;
            self.dropped += 1;
            return;
        }
        self.next_span += 1;
        let span = self.next_span;
        let parent = self.stack.last().map(|&(id, _)| id).unwrap_or(0);
        self.stack.push((span, name));
        self.push(TraceEvent {
            at_ns,
            phase: Phase::Begin,
            name,
            span,
            parent,
            value,
        });
    }

    /// Close the innermost open span at simulated time `at_ns`. Ends
    /// are emitted even at capacity so begin/end stay balanced; an end
    /// whose begin was suppressed is swallowed instead.
    pub fn end(&mut self, at_ns: u64) {
        if self.suppressed > 0 {
            self.suppressed -= 1;
            return;
        }
        let Some((span, name)) = self.stack.pop() else {
            return;
        };
        self.push(TraceEvent {
            at_ns,
            phase: Phase::End,
            name,
            span,
            parent: 0,
            value: 0,
        });
    }

    /// Record a point event.
    pub fn instant(&mut self, name: &'static str, at_ns: u64, value: u64) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let parent = self.stack.last().map(|&(id, _)| id).unwrap_or(0);
        self.push(TraceEvent {
            at_ns,
            phase: Phase::Instant,
            name,
            span: 0,
            parent,
            value,
        });
    }

    /// Sample a counter series (occupancy, depth, …).
    pub fn counter(&mut self, name: &'static str, at_ns: u64, value: u64) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.push(TraceEvent {
            at_ns,
            phase: Phase::Counter,
            name,
            span: 0,
            parent: 0,
            value,
        });
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        // Close anything left open at the last seen timestamp so the
        // exported track is balanced even if the owner stopped mid-span
        // (a crash-interrupted machine, an abandoned replay).
        while !self.stack.is_empty() {
            let at = self.last_ns;
            self.end(at);
        }
        if self.events.is_empty() && self.dropped == 0 {
            return;
        }
        collector()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Track {
                name: std::mem::take(&mut self.name),
                events: std::mem::take(&mut self.events),
                dropped: self.dropped,
            });
    }
}

fn collector() -> &'static Mutex<Vec<Track>> {
    static COLLECTOR: OnceLock<Mutex<Vec<Track>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CONTEXT: RefCell<Option<CtxState>> = const { RefCell::new(None) };
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

struct CtxState {
    label: String,
    /// Per-kind sequence numbers: the `N` in `ctx/kind/N`.
    seqs: HashMap<String, u32>,
}

/// Scope a logical run for track naming (see the module docs). Guards
/// nest: a context entered inside another extends its label with
/// `outer/inner`. Dropping the guard restores the previous context.
pub fn context(label: &str) -> ContextGuard {
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        let prev = slot.take();
        let full = match &prev {
            Some(p) => format!("{}/{label}", p.label),
            None => label.to_string(),
        };
        *slot = Some(CtxState {
            label: full,
            seqs: HashMap::new(),
        });
        ContextGuard { prev }
    })
}

/// RAII guard restoring the previous naming context (see [`context`]).
pub struct ContextGuard {
    prev: Option<CtxState>,
}

impl std::fmt::Debug for ContextGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ContextGuard")
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Suppress sink creation on this thread for the guard's lifetime —
/// used around runs whose traces would be noise (the serving engine's
/// calibration replays).
pub fn suppress() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard(())
}

/// RAII guard re-allowing sink creation (see [`suppress`]).
#[derive(Debug)]
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get() - 1));
    }
}

fn suppressed() -> bool {
    SUPPRESS.with(Cell::get) > 0
}

/// Whether a sink created right now would record: tracing enabled and
/// not suppressed on this thread. Lets callers skip building track
/// names on the disabled path.
pub fn active() -> bool {
    enabled() && !suppressed()
}

/// The track name a [`sink`] of this `kind` would get in the current
/// context — `ctx/kind/N` with the per-context sequence number bumped —
/// or `None` when tracing is off, suppressed, or no context is
/// installed. Owners that fan one logical track out into per-thread
/// sub-tracks (the hops replayer) take the base name here and append
/// their own suffixes.
pub fn track_base(kind: &str) -> Option<String> {
    if !active() {
        return None;
    }
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        let ctx = slot.as_mut()?;
        let seq = ctx.seqs.entry(kind.to_string()).or_insert(0);
        let name = format!("{}/{kind}/{seq}", ctx.label);
        *seq += 1;
        Some(name)
    })
}

/// A sink named through the current [`context`] (`ctx/kind/N`), or
/// `None` when tracing is off, suppressed, or there is no context.
pub fn sink(kind: &str) -> Option<TraceSink> {
    track_base(kind).map(TraceSink::new)
}

/// A sink with an explicit globally-unique name, bypassing the context
/// (serve shard queues name themselves `serve/app/model/shardN`).
/// `None` when tracing is off or suppressed.
pub fn sink_named(name: String) -> Option<TraceSink> {
    if !active() {
        return None;
    }
    Some(TraceSink::new(name))
}

/// Drain every submitted track and return them sorted by name — the
/// deterministic merge: sinks submit in whatever order worker threads
/// drop them, but track names are unique by construction, so the
/// sorted list (and everything exported from it) is bit-identical
/// across `--parallel` settings.
pub fn take_tracks() -> Vec<Track> {
    let mut tracks = std::mem::take(
        &mut *collector()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    tracks.sort_by(|a, b| a.name.cmp(&b.name));
    tracks
}

/// Append `text` and then `v`'s digits: a key (and whatever precedes
/// it) and its integer value.
fn field(out: &mut String, text: &str, v: u64) {
    out.push_str(text);
    json::write_u64(out, v);
}

/// Append `ev`'s `traceEvents` element to `out` as compact JSON: the
/// one definition of an exported event, its fields and their order.
fn write_event(out: &mut String, ev: &TraceEvent, tid: u64) {
    let ph = match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::Counter => "C",
    };
    out.push_str(r#"{"ph":""#);
    out.push_str(ph);
    out.push_str(r#"","name":"#);
    json::write_escaped(out, ev.name);
    field(out, r#","pid":1,"tid":"#, tid);
    out.push_str(r#","ts":"#);
    write_ts(out, ev.at_ns);
    if ev.phase == Phase::Instant {
        out.push_str(r#","s":"t""#);
    }
    out.push_str(r#","args":{"#);
    match ev.phase {
        Phase::Begin => {
            field(out, r#""span":"#, ev.span.into());
            field(out, r#","parent":"#, ev.parent.into());
            field(out, r#","value":"#, ev.value);
        }
        Phase::End => field(out, r#""span":"#, ev.span.into()),
        Phase::Instant | Phase::Counter => field(out, r#""value":"#, ev.value),
    }
    out.push_str("}}");
}

/// Append the `M` element that names a track's `tid` lane and carries
/// its drop count.
fn write_thread_name(out: &mut String, track: &Track, tid: u64) {
    field(out, r#"{"ph":"M","name":"thread_name","pid":1,"tid":"#, tid);
    out.push_str(r#","args":{"name":"#);
    json::write_escaped(out, &track.name);
    field(out, r#","dropped":"#, track.dropped);
    out.push_str("}}");
}

/// Timestamps below this many nanoseconds are written from the
/// integer (see [`write_ts`]).
const EXACT_TS_NS: u64 = 1 << 52;

/// `at_ns` in microseconds: the text `Json::F64(at_ns as f64 / 1000.0)`
/// writes. Below 2^52 ns the quotient is below 2^42, where adjacent
/// doubles are 2^-10 < 0.001 apart. The decimal `at_ns / 1000` (at most
/// three digits after the point) rounds to that double, and no decimal
/// with fewer digits does: it would lie at least 0.001 away. So the
/// decimal is the shortest round-trip text, which is what `Display`
/// prints, and it is written from the integer with no float in sight.
fn write_ts(out: &mut String, at_ns: u64) {
    if at_ns >= EXACT_TS_NS {
        json::write_f64(out, at_ns as f64 / 1000.0);
        return;
    }
    json::write_u64(out, at_ns / 1000);
    let frac = at_ns % 1000;
    if frac != 0 {
        let digits = [
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ];
        let len = 1 + digits
            .iter()
            .rposition(|&d| d != b'0')
            .expect("a digit is nonzero");
        out.push_str(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
    }
}

/// Append the `traceEvents` elements of `tracks` to `out` in document
/// order, per track (one `tid` lane each, numbered from 1) its name
/// element and then its events, handing `out` to `each` after every
/// element.
fn encode_events<E>(
    tracks: &[Track],
    out: &mut String,
    mut each: impl FnMut(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    for (track, tid) in tracks.iter().zip(1u64..) {
        write_thread_name(out, track, tid);
        each(out)?;
        for ev in &track.events {
            write_event(out, ev, tid);
            each(out)?;
        }
    }
    Ok(())
}

/// Tracks as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form; loads in Perfetto and
/// `chrome://tracing`). One `tid` lane per track, named via `M`
/// metadata events; timestamps are microseconds (the format's unit)
/// derived exactly as `ns / 1000.0`, so the document is as
/// deterministic as the events. This is the whole document in memory,
/// each `traceEvents` element held as its encoded text
/// ([`Json::Raw`]); [`write_chrome`] streams the same bytes.
pub fn export_chrome(tracks: &[Track]) -> Json {
    let mut events = Vec::with_capacity(tracks.iter().map(|t| t.events.len() + 1).sum());
    let mut text = String::new();
    let Ok(()) = encode_events(tracks, &mut text, |text| -> Result<(), Infallible> {
        events.push(Json::Raw(text.as_str().into()));
        text.clear();
        Ok(())
    });
    Json::obj()
        .field("displayTimeUnit", "ns")
        .field("traceEvents", events)
}

/// How many bytes [`write_chrome`] buffers, and the most it hands to
/// one `write`.
pub const WRITE_BUF: usize = 64 * 1024;

/// Write `export_chrome(tracks).to_compact()` and a newline to `out`,
/// encoding each element straight into one [`WRITE_BUF`]-sized buffer
/// — never holding the document or its text.
pub fn write_chrome(tracks: &[Track], out: &mut impl io::Write) -> io::Result<()> {
    let mut flush = |buf: &mut String| {
        let written = buf
            .as_bytes()
            .chunks(WRITE_BUF)
            .try_for_each(|c| out.write_all(c));
        buf.clear();
        written
    };
    let mut buf = String::with_capacity(WRITE_BUF);
    // The document around its elements: the empty one, reopened.
    export_chrome(&[]).write_compact(&mut buf);
    buf.truncate(buf.len() - "]}".len());
    // Each element leaves a separator behind it, held back from the
    // flush so that the last one can be taken off again.
    encode_events(tracks, &mut buf, |buf| -> io::Result<()> {
        if buf.len() >= WRITE_BUF {
            flush(buf)?;
        }
        buf.push(',');
        Ok(())
    })?;
    if buf.ends_with(',') {
        buf.pop();
    }
    buf.push_str("]}\n");
    flush(&mut buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-wide flag and collector; serialize them
    /// and leave both clean.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_means_no_sinks() {
        let _l = trace_lock();
        set_enabled(false);
        let _ctx = context("off");
        assert!(sink("memsim").is_none());
        assert!(sink_named("x".into()).is_none());
        assert!(!active());
    }

    #[test]
    fn context_sequences_and_nesting() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let _ctx = context("app");
            assert_eq!(track_base("memsim").as_deref(), Some("app/memsim/0"));
            assert_eq!(track_base("memsim").as_deref(), Some("app/memsim/1"));
            assert_eq!(track_base("hops").as_deref(), Some("app/hops/0"));
            {
                let _inner = context("cal");
                assert_eq!(track_base("memsim").as_deref(), Some("app/cal/memsim/0"));
            }
            assert_eq!(track_base("memsim").as_deref(), Some("app/memsim/2"));
        }
        // No context: context-scoped sinks refuse, named sinks work.
        assert!(sink("memsim").is_none());
        assert!(sink_named("explicit".into()).is_some());
        set_enabled(false);
        take_tracks();
    }

    #[test]
    fn suppress_guards_nest() {
        let _l = trace_lock();
        set_enabled(true);
        let _ctx = context("app");
        {
            let _s1 = suppress();
            let _s2 = suppress();
            assert!(sink("memsim").is_none());
            assert!(sink_named("x".into()).is_none());
        }
        assert!(sink("memsim").is_some());
        set_enabled(false);
        take_tracks();
    }

    #[test]
    fn spans_link_parents_and_balance() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let mut s = sink_named("t".into()).unwrap();
            s.begin("outer", 10, 0);
            s.begin("inner", 20, 7);
            s.instant("mark", 25, 1);
            s.end(30);
            s.end(40);
        }
        set_enabled(false);
        let tracks = take_tracks();
        assert_eq!(tracks.len(), 1);
        let ev = &tracks[0].events;
        assert_eq!(ev.len(), 5);
        assert_eq!(
            (ev[0].phase, ev[0].span, ev[0].parent),
            (Phase::Begin, 1, 0)
        );
        assert_eq!(
            (ev[1].phase, ev[1].span, ev[1].parent),
            (Phase::Begin, 2, 1)
        );
        assert_eq!((ev[2].phase, ev[2].parent), (Phase::Instant, 2));
        assert_eq!(
            (ev[3].phase, ev[3].span, ev[3].name),
            (Phase::End, 2, "inner")
        );
        assert_eq!(
            (ev[4].phase, ev[4].span, ev[4].name),
            (Phase::End, 1, "outer")
        );
    }

    #[test]
    fn capacity_suppression_keeps_balance() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let mut s = sink_named("cap".into()).unwrap();
            s.capacity = 3;
            s.begin("a", 1, 0); // recorded
            s.begin("b", 2, 0); // recorded
            s.begin("c", 3, 0); // at capacity after this? events=2 -> recorded
            s.begin("d", 4, 0); // events=3 == cap -> suppressed
            s.instant("x", 5, 0); // dropped
            s.end(6); // matches suppressed d -> swallowed
            s.end(7); // closes c (past capacity, still emitted)
            s.end(8); // closes b
            s.end(9); // closes a
        }
        set_enabled(false);
        let tracks = take_tracks();
        let ev = &tracks[0].events;
        let begins = ev.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = ev.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, 3);
        assert_eq!(ends, 3, "suppressed begin's end swallowed, rest closed");
        assert_eq!(tracks[0].dropped, 2);
    }

    #[test]
    fn drop_closes_open_spans() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let mut s = sink_named("open".into()).unwrap();
            s.begin("never_closed", 100, 0);
            s.instant("late", 250, 0);
        }
        set_enabled(false);
        let tracks = take_tracks();
        let ev = &tracks[0].events;
        assert_eq!(ev.last().unwrap().phase, Phase::End);
        assert_eq!(ev.last().unwrap().at_ns, 250, "closed at last seen time");
    }

    #[test]
    fn take_tracks_sorts_by_name() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let mut b = sink_named("b".into()).unwrap();
            b.instant("x", 1, 0);
            let mut a = sink_named("a".into()).unwrap();
            a.instant("x", 1, 0);
        }
        set_enabled(false);
        let names: Vec<String> = take_tracks().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn chrome_export_shape() {
        let _l = trace_lock();
        set_enabled(true);
        {
            let mut s = sink_named("lane".into()).unwrap();
            s.begin("work", 1500, 3);
            s.counter("occ", 1600, 9);
            s.end(2500);
        }
        set_enabled(false);
        let tracks = take_tracks();
        let doc = export_chrome(&tracks);
        let parsed = json::parse(&doc.to_compact()).unwrap();
        let evs = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(evs.len(), 4, "metadata + B + C + E");
        assert_eq!(evs[0].get("ph").and_then(|p| p.as_str()), Some("M"));
        assert_eq!(
            evs[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str()),
            Some("lane")
        );
        assert_eq!(evs[1].get("ph").and_then(|p| p.as_str()), Some("B"));
        assert_eq!(evs[1].get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(evs[3].get("ph").and_then(|p| p.as_str()), Some("E"));
        assert_eq!(evs[3].get("ts").and_then(Json::as_f64), Some(2.5));
    }
}
