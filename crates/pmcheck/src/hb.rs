//! Happens-before analysis over recorded traces (paper §5.2).
//!
//! A second pass over a [`pmtrace`] stream that reconstructs the
//! ordering the *program* guarantees — not just the one interleaving
//! the recorder happened to observe. The model is FastTrack-shaped:
//!
//! - every thread carries a [`VClock`]; each trace event ticks the
//!   issuing thread's own component;
//! - a **fence** *releases* every line the closing epoch stored: the
//!   thread's clock is joined into the line's release clock (an epoch
//!   boundary publishes its stores, §5.1);
//! - a **transaction commit** likewise releases the lines the
//!   transaction wrote (commit publishes);
//! - a **store or load** of a line *acquires* its release clock — the
//!   accessor is coherence-ordered after every published epoch that
//!   wrote the line (observed same-line communication).
//!
//! Two accesses are HB-ordered iff the later one's clock has seen the
//! earlier one's own-component tick; otherwise they are concurrent
//! under *some* legal linearization. `P-CROSS-DEP` and `P-EPOCH-RACE`
//! in the checker are founded on exactly this relation, and the
//! same clocks yield the per-app **epoch dependency graph**
//! ([`EpochGraph`]) behind the paper's Fig. 5 cross-thread dependency
//! statistics. A built graph keeps its epochs, its cross edges and
//! those statistics, computed once; the per-epoch clocks they are read
//! from live in a build-time index that is dropped before
//! [`EpochGraph::build`] returns.
//!
//! Joining *more* ordering is the conservative direction here: every
//! release edge the model admits suppresses findings, so a program
//! clean under the recorded order stays clean under the HB refounding
//! (no new false positives), while transitivity lets the rules catch
//! races the recorded interleaving hid (fewer false negatives).
//!
//! All per-line state — last-write and pending-persist ticks, the
//! release clock and its releasing node — lives in the line's record
//! in the engine's `LineTable`; the per-thread sets are id lists
//! whose membership is read off those ticks.

use crate::table::{LineId, LineState, LineTable};
use pmem::{lines_spanning, Line};
use pmobs::Json;
use pmtrace::{Event, EventKind, Tid};
use std::io::{self, Write};

/// Clock components stored inline (thread slots `0..8`).
const INLINE_SLOTS: usize = 8;

/// A vector clock: one logical-time component per thread slot.
///
/// Slots are dense indices allocated by the engine in order of first
/// appearance; missing components read as 0. The first eight live
/// inline, so clocks of the usual handful of threads never allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock {
    head: [u64; INLINE_SLOTS],
    /// Components of slots `8..`.
    tail: Vec<u64>,
}

impl VClock {
    /// The component for `slot` (0 if never set).
    pub fn get(&self, slot: usize) -> u64 {
        match slot.checked_sub(INLINE_SLOTS) {
            None => self.head[slot],
            Some(i) => self.tail.get(i).copied().unwrap_or(0),
        }
    }

    fn tick(&mut self, slot: usize) {
        match slot.checked_sub(INLINE_SLOTS) {
            None => self.head[slot] += 1,
            Some(i) => {
                if self.tail.len() <= i {
                    self.tail.resize(i + 1, 0);
                }
                self.tail[i] += 1;
            }
        }
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VClock) {
        for (mine, theirs) in self.head.iter_mut().zip(&other.head) {
            *mine = (*mine).max(*theirs);
        }
        if self.tail.len() < other.tail.len() {
            self.tail.resize(other.tail.len(), 0);
        }
        for (mine, theirs) in self.tail.iter_mut().zip(&other.tail) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// A short list of `(thread slot, tick)` pairs in insertion order,
/// the first stored inline — nearly every line has one writer.
#[derive(Debug, Default)]
struct SlotTicks {
    /// `(slot + 1, tick)`; slot field 0 when the list is empty.
    first: (u32, u64),
    rest: Vec<(u32, u64)>,
}

impl SlotTicks {
    fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let first = (self.first.0 != 0).then_some(self.first);
        first
            .into_iter()
            .chain(self.rest.iter().copied())
            .map(|(tag, tick)| (tag as usize - 1, tick))
    }

    /// Set `slot`'s tick, appending the slot if it is new. Returns the
    /// tick it replaced.
    fn set(&mut self, slot: usize, tick: u64) -> Option<u64> {
        let tag = slot as u32 + 1;
        if self.first.0 == 0 {
            self.first = (tag, tick);
            return None;
        }
        let entry = std::iter::once(&mut self.first)
            .chain(&mut self.rest)
            .find(|e| e.0 == tag);
        match entry {
            Some(e) => Some(std::mem::replace(&mut e.1, tick)),
            None => {
                self.rest.push((tag, tick));
                None
            }
        }
    }

    /// Drop `slot`'s entry, keeping the others in order.
    fn remove(&mut self, slot: usize) {
        let tag = slot as u32 + 1;
        if self.first.0 == tag {
            self.first = if self.rest.is_empty() {
                (0, 0)
            } else {
                self.rest.remove(0)
            };
        } else {
            self.rest.retain(|e| e.0 != tag);
        }
    }
}

/// What the engine knows about one line, under the line table's id.
#[derive(Debug, Default)]
struct HbLine {
    /// Last write per thread slot: the writer's own-component tick.
    /// The tick doubles as the membership stamp of the slot's
    /// open-epoch and open-transaction line lists.
    writes: SlotTicks,
    /// Pending (unfenced) persist per thread slot. An entry for a slot
    /// is exactly membership in that slot's open-persist list.
    persists: SlotTicks,
    /// Join of every releasing epoch's / commit's clock.
    release: VClock,
    /// Last *fence*-releasing closed epoch node (graph provenance).
    release_node: Option<u32>,
}

/// Recording-mode state backing [`HbIndex`].
#[derive(Debug, Default)]
struct Recording {
    stamps: Vec<VClock>,
    slots: Vec<usize>,
    edges: Vec<(u32, u32)>,
    last_of_slot: Vec<Option<u32>>,
    pending: Option<usize>,
    /// Per line id: every release event's id (acquire edges).
    releases: Vec<Vec<u32>>,
}

impl Recording {
    /// Stamp the previous event with its thread's clock, now final.
    fn seal(&mut self, threads: &[HbThread]) {
        if let Some(s) = self.pending.take() {
            self.stamps.push(threads[s].clock.clone());
        }
    }

    fn released(&mut self, line: LineId, event: u32) {
        let line = line as usize;
        if self.releases.len() <= line {
            self.releases.resize_with(line + 1, Vec::new);
        }
        self.releases[line].push(event);
    }

    fn acquired(&mut self, line: LineId, event: u32) {
        if let Some(sources) = self.releases.get(line as usize) {
            self.edges.extend(sources.iter().map(|&src| (src, event)));
        }
    }
}

/// An epoch node under construction.
#[derive(Debug)]
struct BuildNode {
    slot: usize,
    index: u64,
    start_ns: u64,
    end_ns: u64,
    /// Where the clock at the node's first store sits in
    /// [`GraphBuilder::clocks`], and how many components it has.
    open_clock: (usize, usize),
    close_tick: u64,
    lines: usize,
    stores: u32,
    durable: bool,
    closed: bool,
    /// Source of the last cross edge into this node (an epoch's
    /// acquires mostly repeat one releasing epoch).
    last_src: Option<u32>,
}

/// Graph-mode state backing [`EpochGraph`].
#[derive(Debug, Default)]
struct GraphBuilder {
    nodes: Vec<BuildNode>,
    open: Vec<Option<u32>>,
    index_ctr: Vec<u64>,
    /// Cross edges; deduplicated when the graph is built.
    edges: Vec<(u32, u32)>,
    /// Every node's open clock, back to back.
    clocks: Vec<u64>,
}

impl GraphBuilder {
    fn grow(&mut self, slot: usize) {
        if self.open.len() <= slot {
            self.open.resize(slot + 1, None);
            self.index_ctr.resize(slot + 1, 0);
        }
    }

    /// The open node for `slot`, created at this (first) store.
    /// `threads` is how many slots exist, i.e. how many components of
    /// `clock` can be non-zero.
    fn touch(&mut self, slot: usize, at_ns: u64, clock: &VClock, threads: usize) -> u32 {
        self.grow(slot);
        if let Some(id) = self.open[slot] {
            return id;
        }
        let id = self.nodes.len() as u32;
        let at = self.clocks.len();
        self.clocks.extend((0..threads).map(|s| clock.get(s)));
        self.nodes.push(BuildNode {
            slot,
            index: self.index_ctr[slot],
            start_ns: at_ns,
            end_ns: at_ns,
            open_clock: (at, threads),
            close_tick: 0,
            lines: 0,
            stores: 0,
            durable: false,
            closed: false,
            last_src: None,
        });
        self.open[slot] = Some(id);
        id
    }

    fn close(&mut self, slot: usize, at_ns: u64, clock: &VClock, durable: bool) -> Option<u32> {
        self.grow(slot);
        let id = self.open[slot].take()?;
        let n = &mut self.nodes[id as usize];
        n.end_ns = at_ns;
        n.close_tick = clock.get(slot);
        n.durable = durable;
        n.closed = true;
        self.index_ctr[slot] += 1;
        Some(id)
    }
}

/// Per-thread engine state.
#[derive(Debug, Default)]
struct HbThread {
    clock: VClock,
    /// Lines stored in the open epoch: released by the next fence. A
    /// line is listed iff its write tick for this slot is newer than
    /// `epoch_tick`.
    open_lines: Vec<LineId>,
    /// Lines with a pending persist entry for this slot.
    open_persists: Vec<LineId>,
    /// Lines stored in the open transaction: released by its commit. A
    /// line is listed iff its write tick is newer than `tx_tick`.
    tx_lines: Vec<LineId>,
    in_tx: bool,
    /// Own-component tick of this thread's last fence.
    epoch_tick: u64,
    /// Own-component tick of this thread's last transaction begin.
    tx_tick: u64,
}

/// Streaming vector-clock happens-before engine.
///
/// Drive it either with [`apply`](HbEngine::apply) (one call per trace
/// event) or, as [`crate::checker::Checker`] does, with
/// [`begin_event`](HbEngine::begin_event) followed by the per-line
/// handlers — the clock semantics are identical; only conflict
/// *reporting* differs (persist conflicts are line-state-gated by the
/// checker and ignored by `apply`).
#[derive(Debug, Default)]
pub struct HbEngine {
    /// Lines, thread slots, and the line-state automaton. The checker
    /// shares it, so a line is interned once per event.
    pub(crate) table: LineTable,
    /// Per-line clocks, indexed by the table's line ids and grown to
    /// the table's size when the engine first meets an id past its end.
    lines: Vec<HbLine>,
    threads: Vec<HbThread>,
    cur: Option<(usize, u32)>,
    cur_ns: u64,
    events_seen: u32,
    record: Option<Recording>,
    graph: Option<GraphBuilder>,
}

impl HbEngine {
    /// A fresh engine with neither recording nor graph building.
    pub fn new() -> HbEngine {
        HbEngine::default()
    }

    /// Keep per-event stamps and explicit HB edges (for [`HbIndex`]).
    fn enable_recording(&mut self) {
        self.record = Some(Recording::default());
    }

    /// Build epoch nodes and cross-thread edges (for [`EpochGraph`]).
    fn enable_graph(&mut self) {
        self.graph = Some(GraphBuilder::default());
    }

    /// Start a new trace event on `tid` at `at_ns`: seals the previous
    /// event's stamp and ticks the thread's clock. Every subsequent
    /// per-line handler call belongs to this event.
    pub fn begin_event(&mut self, tid: Tid, at_ns: u64) {
        let s = self.table.slot(tid);
        self.begin_event_in(s, at_ns);
    }

    /// [`begin_event`](HbEngine::begin_event) for a caller that
    /// already resolved the thread's slot.
    pub(crate) fn begin_event_in(&mut self, s: usize, at_ns: u64) {
        if self.threads.len() <= s {
            self.threads.resize_with(s + 1, HbThread::default);
        }
        let id = self.events_seen;
        self.events_seen += 1;
        self.cur = Some((s, id));
        self.cur_ns = at_ns;
        if let Some(rec) = &mut self.record {
            rec.seal(&self.threads);
            if rec.last_of_slot.len() <= s {
                rec.last_of_slot.resize(s + 1, None);
            }
            rec.slots.push(s);
            if let Some(prev) = rec.last_of_slot[s] {
                rec.edges.push((prev, id));
            }
            rec.last_of_slot[s] = Some(id);
            rec.pending = Some(s);
        }
        self.threads[s].clock.tick(s);
    }

    fn cur(&self) -> (usize, u32) {
        self.cur.expect("begin_event before handlers")
    }

    /// Make sure `self.lines` reaches `line` (the first call for a
    /// line the table interned after the last growth).
    fn cover(&mut self, line: LineId) {
        if self.lines.len() <= line as usize {
            self.lines
                .resize_with(self.table.recs.len(), HbLine::default);
        }
    }

    /// The threads with an entry in `ticks` that the thread in slot `s`
    /// (at `clock`) has not observed — a conflict set, in entry order.
    fn concurrent(ticks: &SlotTicks, s: usize, clock: &VClock, tids: &[Tid]) -> Vec<Tid> {
        ticks
            .iter()
            .filter(|&(u, k)| u != s && clock.get(u) < k)
            .map(|(u, _)| tids[u])
            .collect()
    }

    /// Join `line`'s release clock into the current thread's clock.
    fn acquire(&mut self, s: usize, event: u32, line: LineId) {
        self.cover(line);
        let clock = &mut self.threads[s].clock;
        clock.join(&self.lines[line as usize].release);
        if let Some(rec) = &mut self.record {
            rec.acquired(line, event);
        }
    }

    /// Join the current thread's clock into `line`'s release clock.
    fn release(&mut self, s: usize, event: u32, line: LineId, node: Option<u32>) {
        let l = &mut self.lines[line as usize];
        l.release.join(&self.threads[s].clock);
        if node.is_some() {
            l.release_node = node;
        }
        if let Some(rec) = &mut self.record {
            rec.released(line, event);
        }
    }

    /// A store to `line` by the current event's thread. Returns the
    /// threads whose last write to the line is HB-concurrent with this
    /// one — the `P-CROSS-DEP` conflict set.
    pub fn store(&mut self, line: Line) -> Vec<Tid> {
        let id = self.table.intern(line);
        self.store_id(id)
    }

    /// [`store`](HbEngine::store) of an interned line.
    pub(crate) fn store_id(&mut self, line: LineId) -> Vec<Tid> {
        let (s, event) = self.cur();
        self.acquire(s, event, line);
        let t = &mut self.threads[s];
        let l = &mut self.lines[line as usize];
        let conflicts = Self::concurrent(&l.writes, s, &t.clock, &self.table.tids);
        // This slot's previous write tick, if it wrote the line before.
        let prev = l.writes.set(s, t.clock.get(s));
        let first_in_epoch = prev.is_none_or(|k| k <= t.epoch_tick);
        if first_in_epoch {
            t.open_lines.push(line);
        }
        if t.in_tx && prev.is_none_or(|k| k <= t.tx_tick) {
            t.tx_lines.push(line);
        }
        if let Some(g) = &mut self.graph {
            let node = g.touch(s, self.cur_ns, &t.clock, self.table.tids.len());
            let n = &mut g.nodes[node as usize];
            n.stores += 1;
            n.lines += usize::from(first_in_epoch);
            if let Some(src) = l.release_node.filter(|src| n.last_src != Some(*src)) {
                n.last_src = Some(src);
                if g.nodes[src as usize].slot != s {
                    g.edges.push((src, node));
                }
            }
        }
        conflicts
    }

    /// A load of `line`: acquire only (reading the line is
    /// coherence-ordered after every published epoch that wrote it).
    pub fn load(&mut self, line: Line) {
        let id = self.table.intern(line);
        self.load_id(id);
    }

    /// [`load`](HbEngine::load) of an interned line.
    pub(crate) fn load_id(&mut self, line: LineId) {
        let (s, event) = self.cur();
        self.acquire(s, event, line);
    }

    /// A persist operation (covering flush or NT store) of `line`.
    /// Returns the threads with a *pending* (unfenced) persist of the
    /// same line that is HB-concurrent with this one — the
    /// `P-EPOCH-RACE` conflict set.
    pub fn persist(&mut self, line: Line) -> Vec<Tid> {
        let id = self.table.intern(line);
        self.persist_id(id)
    }

    /// [`persist`](HbEngine::persist) of an interned line.
    pub(crate) fn persist_id(&mut self, line: LineId) -> Vec<Tid> {
        let (s, _) = self.cur();
        // A flush can be the first the engine hears of a line.
        self.cover(line);
        let t = &mut self.threads[s];
        let l = &mut self.lines[line as usize];
        let conflicts = Self::concurrent(&l.persists, s, &t.clock, &self.table.tids);
        if l.persists.set(s, t.clock.get(s)).is_none() {
            t.open_persists.push(line);
        }
        conflicts
    }

    /// A fence on the current event's thread: closes the epoch,
    /// releasing every line it stored and retiring the thread's
    /// pending persists.
    pub fn fence(&mut self, durable: bool) {
        let (s, event) = self.cur();
        let node = match &mut self.graph {
            Some(g) => g.close(s, self.cur_ns, &self.threads[s].clock, durable),
            None => None,
        };
        let mut lines = std::mem::take(&mut self.threads[s].open_lines);
        for line in lines.drain(..) {
            self.release(s, event, line, node);
        }
        let t = &mut self.threads[s];
        t.open_lines = lines;
        t.epoch_tick = t.clock.get(s);
        for line in t.open_persists.drain(..) {
            self.lines[line as usize].persists.remove(s);
        }
    }

    /// Transaction begin: subsequent stores join the commit's release
    /// set.
    pub fn tx_begin(&mut self) {
        let (s, _) = self.cur();
        let t = &mut self.threads[s];
        t.in_tx = true;
        t.tx_lines.clear();
        t.tx_tick = t.clock.get(s);
    }

    /// Transaction commit: releases every line the transaction stored
    /// (commit publishes the writes).
    pub fn tx_end(&mut self) {
        let (s, event) = self.cur();
        self.threads[s].in_tx = false;
        let mut lines = std::mem::take(&mut self.threads[s].tx_lines);
        for line in lines.drain(..) {
            self.release(s, event, line, None);
        }
        self.threads[s].tx_lines = lines;
    }

    /// Fold one whole trace event (the standalone-analysis driver; the
    /// checker instead interleaves the per-line handlers with its line
    /// state machines).
    pub fn apply(&mut self, ev: &Event) {
        self.begin_event(ev.tid, ev.at_ns);
        match ev.kind {
            EventKind::PmStore { addr, len, nt, .. } => {
                for (line, _, _) in lines_spanning(addr, len as usize) {
                    let id = self.table.intern(line);
                    self.store_id(id);
                    if nt {
                        self.persist_id(id);
                    }
                }
            }
            EventKind::Flush { addr } => {
                self.persist(Line::containing(addr));
            }
            EventKind::Fence => self.fence(false),
            EventKind::DFence => self.fence(true),
            EventKind::TxBegin { .. } => self.tx_begin(),
            EventKind::TxEnd { .. } => self.tx_end(),
            EventKind::PmLoad { addr } => self.load(Line::containing(addr)),
            EventKind::RecoveryBegin => {}
        }
    }
}

/// Per-event happens-before index over a full trace: vector-clock
/// stamps plus the explicit edge list (program order + release-acquire)
/// whose transitive closure the stamps summarize. Built for property
/// tests and small-trace analysis; memory is O(events × threads).
#[derive(Debug)]
pub struct HbIndex {
    stamps: Vec<VClock>,
    slots: Vec<usize>,
    edges: Vec<(u32, u32)>,
}

impl HbIndex {
    /// Index a whole trace.
    pub fn of(events: &[Event]) -> HbIndex {
        let mut eng = HbEngine::new();
        eng.enable_recording();
        for ev in events {
            eng.apply(ev);
        }
        let mut rec = eng.record.take().expect("recording enabled");
        rec.seal(&eng.threads);
        HbIndex {
            stamps: rec.stamps,
            slots: rec.slots,
            edges: rec.edges,
        }
    }

    /// Number of indexed events.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Whether event `a` happens-before event `b` (strict: an event
    /// never happens-before itself) — by vector-clock comparison.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let sa = self.slots[a];
        self.stamps[b].get(sa) >= self.stamps[a].get(sa)
    }

    /// The explicit HB edges (program order and release→acquire), as
    /// `(earlier event, later event)` index pairs. The transitive
    /// closure of this relation equals [`happens_before`][Self::happens_before].
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

/// One node of the epoch dependency graph: a store-containing epoch,
/// aligned with [`pmtrace::analysis::split_epochs`] numbering.
#[derive(Debug, Clone)]
pub struct EpochNode {
    /// Issuing thread.
    pub tid: Tid,
    /// Per-thread store-epoch ordinal (matches `Epoch::index`).
    pub index: u64,
    /// Timestamp of the epoch's first store.
    pub start_ns: u64,
    /// Timestamp of the closing fence.
    pub end_ns: u64,
    /// Unique 64 B lines stored.
    pub lines: usize,
    /// Store operations in the epoch.
    pub stores: u32,
    /// True when closed by a durability fence.
    pub durable: bool,
}

/// The per-app epoch dependency graph (paper §5.2, Fig. 5): nodes are
/// store-containing epochs, cross edges are release→acquire
/// dependencies between epochs of *different* threads, and per-thread
/// program order chains the rest. Acyclic by construction: every edge
/// leaves an epoch already closed when its target observed it.
///
/// The graph keeps only what it reports: the nodes, the cross edges and
/// two §5.2 statistics computed once by [`build`](EpochGraph::build).
/// The happens-before order between epochs that the maximum antichain
/// is read from lives in a build-time index and is dropped before
/// `build` returns.
#[derive(Debug)]
pub struct EpochGraph {
    /// Threads with at least one event, in slot order.
    pub threads: Vec<Tid>,
    /// Epoch nodes, in creation (first-store) order.
    pub nodes: Vec<EpochNode>,
    /// Cross-thread dependency edges as `(from, to)` node indices,
    /// deduplicated and sorted.
    pub cross_edges: Vec<(u32, u32)>,
    /// Count of implicit per-thread program-order edges.
    pub po_edges: usize,
    max_antichain: usize,
    epochs_with_cross_dep: usize,
}

impl EpochGraph {
    /// Build the graph for a whole trace. Epochs that never closed
    /// (trailing unfenced stores) are dropped, as in
    /// [`pmtrace::analysis::for_each_epoch`].
    pub fn build(events: &[Event]) -> EpochGraph {
        Self::build_with_order(events).0
    }

    /// [`build`](EpochGraph::build), also returning the order index the
    /// statistics were computed from.
    fn build_with_order(events: &[Event]) -> (EpochGraph, EpochOrder) {
        let mut eng = HbEngine::new();
        eng.enable_graph();
        for ev in events {
            eng.apply(ev);
        }
        let g = eng.graph.take().expect("graph enabled");
        let tids = eng.table.tids;
        let mut map: Vec<Option<u32>> = vec![None; g.nodes.len()];
        let mut nodes = Vec::new();
        let mut order = EpochOrder {
            clocks: g.clocks,
            open_clock_at: Vec::new(),
            close_ticks: Vec::new(),
            slots: Vec::new(),
            per_thread: vec![Vec::new(); tids.len()],
        };
        for (i, n) in g.nodes.iter().enumerate() {
            if !n.closed {
                continue;
            }
            let id = nodes.len() as u32;
            map[i] = Some(id);
            nodes.push(EpochNode {
                tid: tids[n.slot],
                index: n.index,
                start_ns: n.start_ns,
                end_ns: n.end_ns,
                lines: n.lines,
                stores: n.stores,
                durable: n.durable,
            });
            order.open_clock_at.push(n.open_clock);
            order.close_ticks.push(n.close_tick);
            order.slots.push(n.slot);
            order.per_thread[n.slot].push(id);
        }
        let mut cross_edges: Vec<(u32, u32)> = g
            .edges
            .iter()
            .filter_map(|(a, b)| Some((map[*a as usize]?, map[*b as usize]?)))
            .collect();
        cross_edges.sort_unstable();
        cross_edges.dedup();
        let po_edges = order
            .per_thread
            .iter()
            .map(|c| c.len().saturating_sub(1))
            .sum();
        // Edges are sorted by source, so count distinct targets apart.
        let mut targets: Vec<u32> = cross_edges.iter().map(|(_, b)| *b).collect();
        targets.sort_unstable();
        targets.dedup();
        let graph = EpochGraph {
            threads: tids,
            nodes,
            cross_edges,
            po_edges,
            max_antichain: order.max_antichain(),
            epochs_with_cross_dep: targets.len(),
        };
        (graph, order)
    }

    /// Distinct epochs with at least one incoming cross-thread edge —
    /// the numerator of the paper's "epochs with cross dependencies".
    pub fn epochs_with_cross_dep(&self) -> usize {
        self.epochs_with_cross_dep
    }

    /// The largest set of pairwise HB-concurrent epochs — the graph's
    /// maximum antichain, i.e. how many epochs can be in flight
    /// simultaneously under some legal linearization.
    pub fn max_antichain(&self) -> usize {
        self.max_antichain
    }

    /// Each thread's epochs in program order, in slot order.
    fn chains(&self) -> Vec<Vec<u32>> {
        let mut chains = vec![Vec::new(); self.threads.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let slot = self.threads.iter().position(|t| *t == n.tid);
            chains[slot.expect("every epoch's thread is listed")].push(i as u32);
        }
        chains
    }

    /// JSON export: stats plus full node and edge lists.
    pub fn to_json(&self, app: &str) -> Json {
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Json::obj()
                    .field("id", i as u64)
                    .field("tid", u64::from(n.tid.0))
                    .field("index", n.index)
                    .field("start_ns", n.start_ns)
                    .field("end_ns", n.end_ns)
                    .field("lines", n.lines as u64)
                    .field("stores", u64::from(n.stores))
                    .field("durable", n.durable)
            })
            .collect();
        let edges: Vec<Json> = self
            .cross_edges
            .iter()
            .map(|(a, b)| {
                Json::obj()
                    .field("from", u64::from(*a))
                    .field("to", u64::from(*b))
            })
            .collect();
        Json::obj()
            .field("app", app)
            .field("threads", self.threads.len() as u64)
            .field("epochs", self.nodes.len() as u64)
            .field("po_edges", self.po_edges as u64)
            .field("cross_edges", self.cross_edges.len() as u64)
            .field("epochs_with_cross_dep", self.epochs_with_cross_dep as u64)
            .field("max_antichain", self.max_antichain as u64)
            .field("nodes", nodes)
            .field("edges", edges)
    }

    /// Graphviz DOT export: one node per epoch (`t<tid>/e<index>`),
    /// gray program-order chains, red cross-thread dependency edges.
    pub fn write_dot(&self, app: &str, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "digraph \"{app}\" {{")?;
        writeln!(out, "  rankdir=LR;")?;
        writeln!(out, "  node [shape=box, fontsize=9];")?;
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(
                out,
                "  n{i} [label=\"{}/e{}\\n{} line(s)\"{}];",
                n.tid,
                n.index,
                n.lines,
                if n.durable { ", style=bold" } else { "" }
            )?;
        }
        for chain in self.chains() {
            for w in chain.windows(2) {
                writeln!(out, "  n{} -> n{} [color=gray];", w[0], w[1])?;
            }
        }
        for (a, b) in &self.cross_edges {
            writeln!(out, "  n{a} -> n{b} [color=red, penwidth=1.5];")?;
        }
        writeln!(out, "}}")
    }

    /// [`write_dot`](EpochGraph::write_dot) into a string.
    pub fn to_dot(&self, app: &str) -> String {
        let mut out = Vec::new();
        self.write_dot(app, &mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("DOT output is UTF-8")
    }
}

/// The happens-before order between a graph's epochs, which
/// [`EpochGraph::build`] reads the maximum antichain from and then
/// drops: at four threads, 68 B per epoch the graph does not keep.
#[derive(Debug)]
struct EpochOrder {
    /// Every built node's open clock, back to back.
    clocks: Vec<u64>,
    /// Per epoch: its open clock's `(offset, component count)` in
    /// `clocks`.
    open_clock_at: Vec<(usize, usize)>,
    /// Per epoch: its thread's own clock component at the closing fence.
    close_ticks: Vec<u64>,
    /// Per epoch: its thread slot.
    slots: Vec<usize>,
    /// Each thread slot's epochs in program order.
    per_thread: Vec<Vec<u32>>,
}

impl EpochOrder {
    /// Whether epoch `a` happens-before epoch `b`: same thread and
    /// earlier (a thread's epochs are numbered in program order), or
    /// `b`'s first store had already observed `a`'s closing fence.
    fn before(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (self.slots[a as usize], self.slots[b as usize]);
        if sa == sb {
            return a < b;
        }
        let (at, len) = self.open_clock_at[b as usize];
        let seen = if sa < len { self.clocks[at + sa] } else { 0 };
        seen >= self.close_ticks[a as usize]
    }

    /// The size of the largest set of pairwise HB-concurrent epochs.
    ///
    /// By Dilworth's theorem that is the size of a minimum chain cover,
    /// and by König's it is the epoch count minus a maximum matching of
    /// each epoch to one it happens-before. The per-thread program-order
    /// chains are already a cover of one chain per live thread, so at
    /// most `threads − 1` augmenting searches (`merge_chains`) reach
    /// the minimum: exact, and polynomial in the thread count.
    fn max_antichain(&self) -> usize {
        let n = self.slots.len();
        // The cover's matching: `next[a] = b` chains epoch `a` to `b`.
        let mut next: Vec<Option<u32>> = vec![None; n];
        let mut prev: Vec<Option<u32>> = vec![None; n];
        for chain in &self.per_thread {
            for w in chain.windows(2) {
                next[w[0] as usize] = Some(w[1]);
                prev[w[1] as usize] = Some(w[0]);
            }
        }
        let mut chains = self.per_thread.iter().filter(|c| !c.is_empty()).count();
        while self.merge_chains(&mut next, &mut prev) {
            chains -= 1;
        }
        chains
    }

    /// One augmenting-path search over the chain cover `next`/`prev`:
    /// from every chain's tail, follow "happens-before" to an epoch and
    /// then that epoch's cover predecessor, until some chain's head is
    /// reached; rewire the path and return true (one chain fewer), or
    /// return false when the cover is minimum. The epochs one epoch
    /// happens-before form a suffix of each thread's chain (clocks only
    /// grow along it), so each thread keeps the start of its
    /// already-scanned suffix and every epoch is scanned at most once:
    /// O(threads · epochs) checks plus a binary search per scan.
    fn merge_chains(&self, next: &mut [Option<u32>], prev: &mut [Option<u32>]) -> bool {
        let mut scanned: Vec<usize> = self.per_thread.iter().map(Vec::len).collect();
        let mut via = vec![u32::MAX; next.len()];
        let mut stack: Vec<u32> = (0..next.len() as u32)
            .filter(|a| next[*a as usize].is_none())
            .collect();
        while let Some(a) = stack.pop() {
            for (chain, end) in self.per_thread.iter().zip(&mut scanned) {
                if *end == 0 || !self.before(a, chain[*end - 1]) {
                    continue;
                }
                let from = chain[..*end].partition_point(|&b| !self.before(a, b));
                for &b in &chain[from..*end] {
                    via[b as usize] = a;
                    match prev[b as usize] {
                        Some(p) => stack.push(p),
                        None => {
                            // Rewire: each epoch on the path takes the
                            // one it reached, handing its old successor
                            // back to the epoch that reached that.
                            let mut b = b;
                            loop {
                                let a = via[b as usize];
                                prev[b as usize] = Some(a);
                                match next[a as usize].replace(b) {
                                    Some(old) => b = old,
                                    None => return true,
                                }
                            }
                        }
                    }
                }
                *end = from;
            }
        }
        false
    }
}

/// Trace-level durability proof for crash-image cross-validation: for
/// each requested 1-based fence ordinal (ascending), the lines the
/// analysis proves **spec-invariant durable** *at that fence* — a crash
/// at that ordinal must materialize these lines' durable bytes under
/// every crash spec, so an image that disagrees on one of them exhibits
/// a state this analysis declares order-impossible.
///
/// Two conditions must hold, mirroring two layers of the machine:
///
/// 1. *Coverage* — the checker's line-state machine proves the line
///    durable: flushed, retired by the flushing thread's fence, and
///    not re-stored since (NT stores self-flush, foreign `clwb`s take
///    over coverage, a dependent store re-dirties).
/// 2. *No live write-back* — no `clwb` snapshot or write-combining
///    entry of the line is still in flight anywhere. The machine never
///    displaces another thread's pending snapshot (a cacheable store
///    only supersedes WCB entries), so a stale snapshot can out-live
///    condition 1 and a crash spec may persist it over the durable
///    bytes; such lines are *not* spec-invariant and are excluded.
///
/// Crash workloads also run untraced setup before the trace starts, so
/// entries invisible to the trace can be in flight at its first event.
/// Every such entry drains at its owning thread's first traced fence;
/// the proof therefore stays empty until every thread that appears in
/// the trace has fenced at least once.
pub fn durable_lines_at_fences(events: &[Event], points: &[u64]) -> Vec<Vec<Line>> {
    // Coverage layer: the line-state automaton, as the checker runs it.
    let mut table = LineTable::default();
    // Untraced-setup guard: how many of the trace's threads have yet to
    // drain their pre-trace in-flight entries with a traced fence.
    for ev in events {
        table.slot(ev.tid);
    }
    let mut fenced = vec![false; table.tids.len()];
    let mut unfenced = fenced.len();
    // Machine layer: live in-flight write-back entries, listed per
    // thread and counted per line (`LineRec::live`). A `clwb` of a
    // dirty line snapshots it (`snaps` — the entry lives until the
    // *flusher's* fence); an NT store occupies a WCB slot (`wcbs`, with
    // the line's WCB generation) until a fence or a superseding
    // cacheable store. Repeated NT stores list and count the line
    // repeatedly, which leaves "no live entry" — all the proof asks —
    // unchanged.
    let mut snaps: Vec<Vec<LineId>> = vec![Vec::new(); fenced.len()];
    let mut wcbs: Vec<Vec<(LineId, u32)>> = vec![Vec::new(); fenced.len()];
    let mut out = Vec::with_capacity(points.len());
    let mut next = 0usize;
    let mut ordinal = 0u64;
    debug_assert!(points.windows(2).all(|w| w[0] <= w[1]), "points ascending");
    for ev in events {
        if next == points.len() {
            break;
        }
        let s = table.slot(ev.tid);
        match ev.kind {
            EventKind::PmStore { addr, len, nt, .. } => {
                for (line, _, _) in lines_spanning(addr, len as usize) {
                    let id = table.intern(line);
                    table.store(id, s, ev.at_ns, nt);
                    let rec = &mut table.recs[id as usize];
                    if nt {
                        wcbs[s].push((id, rec.wcb_gen));
                        rec.wcb_live += 1;
                        rec.live += 1;
                    } else {
                        // A cacheable store supersedes every WCB entry
                        // of the line — but not pending snapshots.
                        rec.live -= rec.wcb_live;
                        rec.wcb_live = 0;
                        rec.wcb_gen += 1;
                    }
                }
            }
            EventKind::Flush { addr } => {
                let id = table.intern(Line::containing(addr));
                // The machine snapshots a *dirty* line into the
                // flusher's pending set; a coverage takeover finds the
                // line clean in the machine, so no new snapshot.
                if let LineState::Dirty { .. } = table.flush(id, s, ev.at_ns) {
                    snaps[s].push(id);
                    table.recs[id as usize].live += 1;
                }
            }
            EventKind::Fence | EventKind::DFence => {
                table.fence(s);
                // The fence drains every in-flight entry this thread
                // owns (stale ones included).
                for id in snaps[s].drain(..) {
                    table.recs[id as usize].live -= 1;
                }
                for (id, gen) in wcbs[s].drain(..) {
                    let rec = &mut table.recs[id as usize];
                    if gen == rec.wcb_gen {
                        rec.wcb_live -= 1;
                        rec.live -= 1;
                    }
                }
                if !std::mem::replace(&mut fenced[s], true) {
                    unfenced -= 1;
                }
                ordinal += 1;
                while next < points.len() && points[next] == ordinal {
                    let mut durable: Vec<Line> = if unfenced == 0 {
                        table
                            .recs
                            .iter()
                            .filter(|rec| rec.state == LineState::Durable && rec.live == 0)
                            .map(|rec| rec.line)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    durable.sort_unstable();
                    out.push(durable);
                    next += 1;
                }
            }
            EventKind::TxBegin { .. }
            | EventKind::TxEnd { .. }
            | EventKind::PmLoad { .. }
            | EventKind::RecoveryBegin => {}
        }
    }
    // Points beyond the trace's fence count: nothing is provable.
    while out.len() < points.len() {
        out.push(Vec::new());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniprop::prelude::*;
    use pmtrace::{analysis, Category, TraceBuffer};

    const T0: Tid = Tid(0);
    const T1: Tid = Tid(1);

    #[test]
    fn program_order_is_hb() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.flush(T0, 0, 2);
        t.fence(T0, 3);
        let idx = HbIndex::of(t.events());
        assert!(idx.happens_before(0, 1));
        assert!(idx.happens_before(1, 2));
        assert!(idx.happens_before(0, 2));
        assert!(!idx.happens_before(2, 0));
        assert!(!idx.happens_before(0, 0), "strict: irreflexive");
    }

    #[test]
    fn fence_release_store_acquire_orders_across_threads() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1); // 0
        t.fence(T0, 2); // 1: releases line 0
        t.pm_store(T1, 0, 8, false, Category::UserData, 3); // 2: acquires
        t.pm_store(T1, 64, 8, false, Category::UserData, 4); // 3
        let idx = HbIndex::of(t.events());
        assert!(idx.happens_before(0, 2));
        assert!(idx.happens_before(1, 2));
        assert!(idx.happens_before(0, 3), "transitively via program order");
        assert!(!idx.happens_before(2, 0));
    }

    #[test]
    fn unrelated_threads_are_concurrent() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.pm_store(T1, 64, 8, false, Category::UserData, 2);
        let idx = HbIndex::of(t.events());
        assert!(!idx.happens_before(0, 1));
        assert!(!idx.happens_before(1, 0));
    }

    #[test]
    fn tx_commit_releases_its_lines() {
        let mut t = TraceBuffer::new();
        t.tx_begin(T0, 1, 1); // 0
        t.pm_store(T0, 0, 8, false, Category::UserData, 2); // 1
        t.tx_end(T0, 1, 3); // 2: releases line 0 (no fence!)
        t.pm_load(T1, 0, 4); // 3: acquires
        let idx = HbIndex::of(t.events());
        assert!(idx.happens_before(1, 3));
        assert!(idx.happens_before(2, 3));
    }

    #[test]
    fn engine_reports_concurrent_writers() {
        let mut eng = HbEngine::new();
        eng.begin_event(T0, 1);
        assert!(eng.store(Line(0)).is_empty());
        eng.begin_event(T1, 2);
        assert_eq!(eng.store(Line(0)), vec![T0], "unfenced WAW is concurrent");
        // After T1 fences and T0 re-stores, the race is ordered.
        eng.begin_event(T1, 3);
        eng.fence(false);
        eng.begin_event(T0, 4);
        assert!(eng.store(Line(0)).is_empty(), "acquired t1's release");
    }

    #[test]
    fn engine_persist_conflicts_cleared_by_fence() {
        let mut eng = HbEngine::new();
        eng.begin_event(T0, 1);
        eng.store(Line(0));
        assert!(eng.persist(Line(0)).is_empty());
        eng.begin_event(T1, 2);
        eng.store(Line(0));
        assert_eq!(eng.persist(Line(0)), vec![T0], "both persists pending");
        // Each thread fences, retiring its own pending persist and
        // releasing the line; a later persist conflicts with nobody.
        eng.begin_event(T1, 3);
        eng.fence(false);
        eng.begin_event(T0, 4);
        eng.fence(false);
        eng.begin_event(T0, 5);
        eng.store(Line(0));
        assert!(
            eng.persist(Line(0)).is_empty(),
            "no pending foreign persists"
        );
    }

    #[test]
    fn graph_nodes_align_with_split_epochs() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.pm_store(T0, 64, 8, false, Category::UserData, 2);
        t.fence(T0, 3);
        t.fence(T0, 4); // empty epoch: no node
        t.pm_store(T0, 128, 8, false, Category::UserData, 5);
        t.dfence(T0, 6);
        t.pm_store(T0, 0, 8, false, Category::UserData, 7); // trailing: dropped
        let g = EpochGraph::build(t.events());
        let epochs = analysis::split_epochs(t.events());
        assert_eq!(g.nodes.len(), epochs.len());
        for (n, e) in g.nodes.iter().zip(&epochs) {
            assert_eq!(n.tid, e.tid);
            assert_eq!(n.index, e.index);
            assert_eq!(n.start_ns, e.start_ns);
            assert_eq!(n.end_ns, e.end_ns);
            assert_eq!(n.lines, e.lines.len());
            assert_eq!(n.durable, e.durable);
        }
        assert_eq!(g.po_edges, 1);
        assert!(g.cross_edges.is_empty());
    }

    #[test]
    fn graph_cross_edge_from_release_to_acquiring_epoch() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.fence(T0, 2); // closes t0/e0, releasing line 0
        t.pm_store(T1, 0, 8, false, Category::UserData, 3); // t1/e0 acquires
        t.fence(T1, 4);
        let g = EpochGraph::build(t.events());
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.cross_edges, vec![(0, 1)]);
        assert_eq!(g.epochs_with_cross_dep(), 1);
        // The ordered pair cannot be concurrent.
        assert_eq!(g.max_antichain(), 1);
    }

    #[test]
    fn graph_is_acyclic_by_construction() {
        // Ping-pong communication: edges alternate directions between
        // the threads' successive epochs but never cycle.
        let mut t = TraceBuffer::new();
        let mut now = 1;
        for round in 0..4u64 {
            let (a, b) = if round % 2 == 0 { (T0, T1) } else { (T1, T0) };
            t.pm_store(a, 0, 8, false, Category::UserData, now);
            t.fence(a, now + 1);
            t.pm_store(b, 0, 8, false, Category::UserData, now + 2);
            t.fence(b, now + 3);
            now += 4;
        }
        let g = EpochGraph::build(t.events());
        // Kahn toposort must consume every node.
        let n = g.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in &g.cross_edges {
            adj[*a as usize].push(*b as usize);
            indeg[*b as usize] += 1;
        }
        for chain in g.chains() {
            for w in chain.windows(2) {
                adj[w[0] as usize].push(w[1] as usize);
                indeg[w[1] as usize] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        assert_eq!(seen, n, "epoch graph has a cycle");
    }

    #[test]
    fn max_antichain_counts_independent_threads() {
        let mut t = TraceBuffer::new();
        for (i, tid) in [T0, T1, Tid(2)].into_iter().enumerate() {
            t.pm_store(
                tid,
                i as u64 * 64,
                8,
                false,
                Category::UserData,
                1 + i as u64,
            );
            t.fence(tid, 10 + i as u64);
        }
        let g = EpochGraph::build(t.events());
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.max_antichain(), 3, "no ordering between the threads");
        assert_eq!(
            g.to_json("x").get("max_antichain").and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn max_antichain_is_exact_past_32_threads() {
        // 40 threads on private lines, two epochs each: one epoch per
        // thread is pairwise concurrent. A 41st thread then stores every
        // line, acquiring all of them, so its epoch follows every other
        // one and cannot join: the antichain is 40 of 41 threads.
        let mut t = TraceBuffer::new();
        let cat = Category::UserData;
        for round in 0..2 {
            for i in 0..40 {
                let now = 100 * round + 2 * u64::from(i);
                t.pm_store(Tid(i), u64::from(i) * 64, 8, false, cat, now + 1);
                t.fence(Tid(i), now + 2);
            }
        }
        for line in 0..40 {
            t.pm_store(Tid(40), line * 64, 8, false, cat, 200 + line);
        }
        t.fence(Tid(40), 300);
        let g = EpochGraph::build(t.events());
        assert_eq!((g.threads.len(), g.nodes.len()), (41, 81));
        assert_eq!(g.max_antichain(), 40);
    }

    /// The maximum antichain by exhaustive search over the order index
    /// `build` computed it from: every choice of at most one epoch per
    /// thread whose epochs are pairwise concurrent.
    fn brute_antichain(order: &EpochOrder) -> usize {
        fn pick(order: &EpochOrder, slot: usize, chosen: &mut Vec<u32>) -> usize {
            let Some(chain) = order.per_thread.get(slot) else {
                return chosen.len();
            };
            let mut best = pick(order, slot + 1, chosen);
            for &b in chain {
                if chosen
                    .iter()
                    .all(|&a| !order.before(a, b) && !order.before(b, a))
                {
                    chosen.push(b);
                    best = best.max(pick(order, slot + 1, chosen));
                    chosen.pop();
                }
            }
            best
        }
        pick(order, 0, &mut Vec::new())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Random traces over up to 10 threads (past the clock's eight
        /// inline slots): runs of one thread's epochs, each storing one
        /// of two shared lines (acquiring it from the thread that last
        /// released it) or a private one.
        #[test]
        fn max_antichain_matches_exhaustive_search(
            (threads, runs) in (1u32..=10, collection::vec((0u32..10, 0u64..3, 1u32..4), 0..16))
        ) {
            let mut t = TraceBuffer::new();
            let mut now = 0;
            for (tid, line, len) in runs {
                let tid = Tid(tid % threads);
                let addr = if line == 2 { u64::from(tid.0 + 2) * 64 } else { line * 64 };
                for _ in 0..len {
                    t.pm_store(tid, addr, 8, false, Category::UserData, now + 1);
                    t.fence(tid, now + 2);
                    now += 2;
                }
            }
            let (g, order) = EpochGraph::build_with_order(t.events());
            prop_assert_eq!(g.max_antichain(), brute_antichain(&order));
        }
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.fence(T0, 2);
        t.pm_store(T1, 0, 8, false, Category::UserData, 3);
        t.fence(T1, 4);
        let g = EpochGraph::build(t.events());
        let dot = g.to_dot("sample");
        assert!(dot.contains("digraph \"sample\""), "{dot}");
        assert!(dot.contains("t0/e0"), "{dot}");
        assert!(dot.contains("t1/e0"), "{dot}");
        assert!(dot.contains("color=red"), "{dot}");
    }

    #[test]
    fn durable_lines_tracks_the_state_machine() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.flush(T0, 0, 2);
        t.fence(T0, 3); // point 1: line 0 durable
        t.pm_store(T0, 0, 8, false, Category::UserData, 4); // re-dirtied
        t.pm_store(T0, 64, 8, true, Category::RedoLog, 5); // NT self-flush
        t.fence(T0, 6); // point 2: line 1 durable, line 0 not
        let d = durable_lines_at_fences(t.events(), &[1, 2]);
        assert_eq!(d[0], vec![Line(0)]);
        assert_eq!(d[1], vec![Line(1)]);
    }

    #[test]
    fn durable_lines_foreign_fence_does_not_retire() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.flush(T0, 0, 2);
        t.fence(T1, 3); // not the flusher's fence: retires nothing
        t.fence(T0, 4); // the flusher's fence does
        let d = durable_lines_at_fences(t.events(), &[1, 2]);
        assert!(d[0].is_empty());
        assert_eq!(d[1], vec![Line(0)]);
    }

    #[test]
    fn durable_lines_stale_snapshot_blocks_the_proof() {
        // T1 snapshots the line while it is dirty, then T0 re-stores
        // and persists it. Coverage says durable at T0's fence, but
        // T1's stale snapshot is still in flight — an adversarial
        // crash may persist it over the durable bytes, so the line is
        // only spec-invariant once T1's fence drains the snapshot.
        let mut t = TraceBuffer::new();
        t.fence(T1, 1); // clears the untraced-setup guard for T1
        t.pm_store(T0, 0, 8, false, Category::UserData, 2);
        t.flush(T1, 0, 3); // foreign clwb: snapshot lives in T1
        t.pm_store(T0, 0, 8, false, Category::UserData, 4);
        t.flush(T0, 0, 5);
        t.fence(T0, 6); // point 2: durable, but T1's snapshot is live
        t.fence(T1, 7); // point 3: snapshot drained
        let d = durable_lines_at_fences(t.events(), &[2, 3]);
        assert!(d[0].is_empty());
        assert_eq!(d[1], vec![Line(0)]);
    }

    #[test]
    fn durable_lines_wait_for_every_thread_to_fence() {
        // T1 participates in the trace but has not fenced by point 1:
        // untraced setup may have left its in-flight entries armed, so
        // nothing is provable until its first fence.
        let mut t = TraceBuffer::new();
        t.pm_store(T1, 64, 8, false, Category::UserData, 1);
        t.pm_store(T0, 0, 8, false, Category::UserData, 2);
        t.flush(T0, 0, 3);
        t.fence(T0, 4); // point 1: T1 has never fenced
        t.flush(T1, 64, 5);
        t.fence(T1, 6); // point 2: both threads drained
        let d = durable_lines_at_fences(t.events(), &[1, 2]);
        assert!(d[0].is_empty());
        assert_eq!(d[1], vec![Line(0), Line(1)]);
    }

    #[test]
    fn durable_lines_points_past_trace_are_empty() {
        let mut t = TraceBuffer::new();
        t.pm_store(T0, 0, 8, false, Category::UserData, 1);
        t.flush(T0, 0, 2);
        t.fence(T0, 3);
        let d = durable_lines_at_fences(t.events(), &[1, 9]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], vec![Line(0)]);
        assert!(d[1].is_empty());
    }
}
