//! The simulated machine.

use crate::cache::LruSet;
use crate::config::MachineConfig;
use crate::crash::{CrashPlan, CrashState, PlanEvent, PlanState};
use crate::elide::{ElidePlan, ElideState, ElideStats};
use crate::stats::MemStats;
use crate::wcb::WriteCombine;
use pmem::{
    lines_spanning, Addr, DramDevice, Line, LineMap, MemoryKind, PmDevice, PmImage, LINE_SIZE,
};
use pmtrace::{Category, Tid, TraceBuffer, TxId};

const LINE: usize = LINE_SIZE as usize;

/// Add an access's per-line tally to a `pmobs` counter: one atomic per
/// access instead of one per line. A zero tally is skipped so that it
/// does not register the counter (its key would show up in `--json`).
macro_rules! count_lines {
    ($name:literal, $n:expr) => {
        if $n > 0 {
            pmobs::count!($name, $n);
        }
    };
}

/// A line-sized snapshot waiting to become durable.
#[derive(Debug, Clone)]
pub(crate) struct PendingLine {
    pub(crate) line: Line,
    pub(crate) data: [u8; LINE],
    /// Global snapshot order, so a fence drains mixed `clwb` and
    /// write-combining entries oldest-first (newest value wins at the
    /// device).
    pub(crate) seq: u64,
}

/// The simulated machine: functional memory, durability tracking,
/// persistence instructions, trace recording, clock, and counters.
///
/// All operations name the issuing hardware thread ([`Tid`]); ids must
/// be `< config.threads`. See the crate docs for the functional/durable
/// split that makes application logic independent of the cache model.
///
/// When [`pmobs`] recording is enabled the machine also counts cache
/// hits/misses, persistence instructions, and WCB/eviction drains under
/// `memsim.*` — side-channel atomics that never touch the simulated
/// clock or the trace, so instrumented runs stay bit-identical.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    dram: DramDevice,
    /// Always-current PM contents (what loads observe). Volatile — a
    /// crash keeps only `pm_durable` — so it is the plain byte store,
    /// without the media's endurance counters and images.
    pm_functional: DramDevice,
    /// Crash-surviving PM contents (what recovery observes).
    pm_durable: PmDevice,
    /// Per-thread dirty cacheable PM lines; an evicted line writes back.
    dirty: Vec<LruSet>,
    /// Per-thread recently-referenced PM lines (clean); a PM load that
    /// hits here is cache-served and does not count as memory traffic.
    read_cache: Vec<LruSet>,
    /// Per-thread `clwb` snapshots awaiting an `sfence`.
    pending: Vec<Vec<PendingLine>>,
    /// Write-combining buffers for non-temporal stores (all threads).
    wcb: WriteCombine,
    /// line -> bitmask of threads holding the line dirty (0 = clean
    /// everywhere). Mirrors the per-thread dirty sets (every mutation
    /// goes through [`Machine::dirty_touch`]/[`Machine::dirty_remove`])
    /// so `clwb`'s cross-thread holder search is one table read instead
    /// of a probe of every thread's set. A `u64` mask caps the machine
    /// at 64 threads, asserted at construction (the paper's machine
    /// has 8).
    dirty_index: LineMap<u64>,
    /// Reusable drain buffer for [`Machine::fence_impl`], so a fence
    /// allocates nothing in steady state.
    fence_scratch: Vec<PendingLine>,
    clock_ns: u64,
    trace: TraceBuffer,
    stats: MemStats,
    dram_brk: Addr,
    /// Per-thread transaction-id counters for `tx_begin`.
    next_tx: Vec<TxId>,
    /// Monotone snapshot counter ordering in-flight writebacks.
    snap_seq: u64,
    /// Armed crash-injection plan (None in normal runs — the hooks in
    /// the store/flush/fence paths then cost one branch each).
    plan: Option<PlanState>,
    /// Armed elision plan: skip the planned flush/fence ordinals when
    /// they are machine-level no-ops (see [`crate::elide`]). `None` in
    /// normal runs — one branch per flush/fence.
    elide: Option<ElideState>,
    /// The workload's progress marker (see [`Machine::note_progress`]).
    progress: u64,
    /// Simulated-time trace sink (`pmobs::trace`): fence-drain spans,
    /// WCB-overflow and eviction instants. `None` unless tracing was
    /// enabled (and a naming context installed) at construction, so
    /// normal runs pay one `Option` branch per site. Events carry only
    /// values the simulation already computed — never perturbs results.
    obs_trace: Option<pmobs::trace::TraceSink>,
}

impl Machine {
    /// A machine with zeroed memory.
    pub fn new(cfg: MachineConfig) -> Machine {
        Machine::with_pm_image(cfg, None)
    }

    /// A machine whose PM is initialized from a crash image — the
    /// "reboot" path for recovery testing. DRAM and caches start empty.
    /// Both PM views boot from the image's pages (one pointer per page)
    /// and copy a page only when they first write it.
    pub fn from_image(cfg: MachineConfig, image: &PmImage) -> Machine {
        Machine::with_pm_image(cfg, Some(image))
    }

    fn with_pm_image(cfg: MachineConfig, image: Option<&PmImage>) -> Machine {
        assert!(cfg.threads > 0, "machine needs at least one thread");
        assert!(
            cfg.threads <= 64,
            "dirty-line index is a u64 thread bitmask; {} threads exceed 64",
            cfg.threads
        );
        let (pm_functional, pm_durable) = match image {
            Some(img) => {
                assert_eq!(img.range(), cfg.map.pm, "image does not match PM range");
                (DramDevice::from_image(img), PmDevice::from_image(img))
            }
            None => (DramDevice::new(cfg.map.pm), PmDevice::new(cfg.map.pm)),
        };
        let n = cfg.threads as usize;
        Machine {
            dram: DramDevice::new(cfg.map.dram),
            pm_functional,
            pm_durable,
            dirty: vec![LruSet::new(cfg.l1_dirty_lines, cfg.map.pm); n],
            read_cache: vec![LruSet::new(cfg.l2_lines, cfg.map.pm); n],
            pending: vec![Vec::new(); n],
            wcb: WriteCombine::new(n),
            dirty_index: LineMap::new(cfg.map.pm),
            fence_scratch: Vec::new(),
            clock_ns: 0,
            trace: TraceBuffer::new(),
            stats: MemStats::default(),
            dram_brk: cfg.map.dram.base,
            next_tx: vec![1; n],
            snap_seq: 0,
            plan: None,
            elide: None,
            progress: 0,
            obs_trace: pmobs::trace::sink("memsim"),
            cfg,
        }
    }

    /// A copy of the machine in its exact current state — memory,
    /// caches, in-flight writes, trace, clock and counters — that runs
    /// on independently: what either machine does next never reaches
    /// the other. Every line-indexed table is forked copy-on-write, so
    /// this costs one pointer per written page plus the per-thread
    /// cache lists, not a copy of the lines.
    ///
    /// The fork gets its own trace sink exactly as [`Machine::new`]
    /// would create one (none under `pmobs::trace::suppress`). Counted
    /// as `memsim.forks`.
    ///
    /// # Panics
    ///
    /// Panics if a crash or elision plan is armed: a plan's captures
    /// and ordinals belong to one run.
    pub fn fork(&mut self) -> Machine {
        assert!(
            self.plan.is_none() && self.elide.is_none(),
            "cannot fork a machine with an armed crash or elision plan"
        );
        pmobs::count!("memsim.forks");
        Machine {
            cfg: self.cfg,
            dram: self.dram.fork(),
            pm_functional: self.pm_functional.fork(),
            pm_durable: self.pm_durable.fork(),
            dirty: self.dirty.iter_mut().map(LruSet::fork).collect(),
            read_cache: self.read_cache.iter_mut().map(LruSet::fork).collect(),
            pending: self.pending.clone(),
            wcb: self.wcb.clone(),
            dirty_index: self.dirty_index.fork(),
            fence_scratch: Vec::new(),
            clock_ns: self.clock_ns,
            trace: self.trace.clone(),
            stats: self.stats,
            dram_brk: self.dram_brk,
            next_tx: self.next_tx.clone(),
            snap_seq: self.snap_seq,
            plan: None,
            elide: None,
            progress: self.progress,
            obs_trace: pmobs::trace::sink("memsim"),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advance the clock without touching memory (compute/think time).
    pub fn advance_ns(&mut self, ns: u64) {
        self.clock_ns += ns;
    }

    /// Account for `n` cache-resident DRAM accesses without simulating
    /// each one — the fast path for modeling an application's volatile
    /// work (request parsing, volatile indexes), which Figure 6 shows
    /// is >96% of all traffic.
    pub fn dram_bulk(&mut self, tid: Tid, n: u64) {
        self.check_tid(tid);
        self.stats.dram_accesses += n;
        self.clock_ns += n * self.cfg.lat.l1_hit_ns;
    }

    /// Access counters (Figure 6 input).
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The recorded trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable access to the trace buffer (e.g. to disable recording).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Media-level line writes to the PM device so far (includes
    /// evictions, flush drains, and WCB drains).
    pub fn media_line_writes(&self) -> u64 {
        self.pm_durable.total_line_writes()
    }

    /// Validate `tid` against this machine's thread count — the single
    /// source of truth every per-thread layer (engines, structures,
    /// replay models) should size itself from.
    ///
    /// # Errors
    ///
    /// [`crate::TidError`] when `tid` names a slot the machine does not
    /// have.
    pub fn validate_tid(&self, tid: Tid) -> Result<(), crate::TidError> {
        if (tid.0 as usize) < self.dirty.len() {
            Ok(())
        } else {
            Err(crate::TidError {
                tid,
                threads: self.cfg.threads,
            })
        }
    }

    fn check_tid(&self, tid: Tid) {
        if let Err(e) = self.validate_tid(tid) {
            panic!("{e}");
        }
    }

    /// Mark `line` dirty for thread `t`, keeping [`Machine::dirty_index`]
    /// in sync (including for the evicted victim, if any).
    fn dirty_touch(&mut self, t: usize, line: Line) -> Option<Line> {
        let (_, victim) = self.dirty[t].touch(line);
        *self.dirty_index.slot(line) |= 1 << t;
        if let Some(v) = victim {
            // The victim always differs from the just-touched line (a
            // fresh touch is the most recent, never the LRU).
            *self.dirty_index.slot(v) &= !(1 << t);
        }
        victim
    }

    /// Remove `line` from thread `t`'s dirty set, syncing the index.
    fn dirty_remove(&mut self, t: usize, line: Line) {
        if self.dirty[t].remove(line) {
            *self.dirty_index.slot(line) &= !(1 << t);
        }
    }

    /// First thread holding `line` dirty, probing in the order
    /// `tid, tid+1, … (mod threads)` — the issuing thread is the common
    /// case. One table read plus bit arithmetic; equivalent to probing
    /// each thread's set because mask bits at or above `cfg.threads`
    /// are never set.
    fn dirty_holder_from(&self, tid: Tid, line: Line) -> Option<usize> {
        let mask = self.dirty_index.get(line);
        if mask == 0 {
            return None;
        }
        let d = mask.rotate_right(tid.0).trailing_zeros() as usize;
        Some((tid.0 as usize + d) % 64)
    }

    fn kind_of(&self, addr: Addr, len: usize) -> MemoryKind {
        self.cfg
            .map
            .kind_of_span(addr, len)
            .unwrap_or_else(|| panic!("access outside memory map: {addr:#x}+{len}"))
    }

    /// Bump-allocate zeroed DRAM (for volatile application state).
    ///
    /// # Panics
    ///
    /// Panics when DRAM is exhausted or `align` is not a power of two.
    pub fn alloc_dram(&mut self, len: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.dram_brk + align - 1) & !(align - 1);
        assert!(
            base + len <= self.cfg.map.dram.end(),
            "DRAM exhausted: want {len} bytes at {base:#x}"
        );
        self.dram_brk = base + len;
        base
    }

    /// Allocate a fresh per-thread durable-transaction id.
    pub fn fresh_tx_id(&mut self, tid: Tid) -> TxId {
        self.check_tid(tid);
        let id = self.next_tx[tid.0 as usize];
        self.next_tx[tid.0 as usize] += 1;
        id
    }

    /// Record the start of a durable transaction in the trace.
    pub fn tx_begin(&mut self, tid: Tid, id: TxId) {
        self.trace.tx_begin(tid, id, self.clock_ns);
    }

    /// Record a durable-transaction commit in the trace.
    pub fn tx_end(&mut self, tid: Tid, id: TxId) {
        self.trace.tx_end(tid, id, self.clock_ns);
    }

    // ---------------------------------------------------------------
    // Loads
    // ---------------------------------------------------------------

    /// Load `buf.len()` bytes from `addr` into `buf`.
    pub fn load(&mut self, tid: Tid, addr: Addr, buf: &mut [u8]) {
        self.check_tid(tid);
        if buf.is_empty() {
            return;
        }
        match self.kind_of(addr, buf.len()) {
            MemoryKind::Dram => {
                self.dram.read(addr, buf);
                let lines = lines_spanning(addr, buf.len()).count() as u64;
                self.stats.dram_accesses += lines;
                self.clock_ns += self.cfg.lat.l1_hit_ns * lines;
            }
            MemoryKind::Pm => {
                self.pm_functional.read(addr, buf);
                let t = tid.0 as usize;
                let (mut hits, mut misses) = (0u64, 0u64);
                for (line, _, _) in lines_spanning(addr, buf.len()) {
                    if self.dirty[t].contains(line) || self.read_cache[t].touch(line).0 {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                // A miss is memory traffic (Figure 6).
                self.stats.pm_reads += misses;
                self.clock_ns += hits * self.cfg.lat.l1_hit_ns + misses * self.cfg.lat.pm_read_ns;
                count_lines!("memsim.pm_load_hit", hits);
                count_lines!("memsim.pm_load_miss", misses);
            }
        }
    }

    /// Load `len` bytes into a fresh vector.
    pub fn load_vec(&mut self, tid: Tid, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.load(tid, addr, &mut v);
        v
    }

    /// Load a little-endian `u64`.
    pub fn load_u64(&mut self, tid: Tid, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.load(tid, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Load a little-endian `u32`.
    pub fn load_u32(&mut self, tid: Tid, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.load(tid, addr, &mut b);
        u32::from_le_bytes(b)
    }

    // ---------------------------------------------------------------
    // Stores
    // ---------------------------------------------------------------

    /// Cacheable store. For PM spans the affected lines become dirty in
    /// the issuing thread's cache (volatile until flushed, fenced, or
    /// evicted) and a trace event is recorded.
    pub fn store(&mut self, tid: Tid, addr: Addr, bytes: &[u8], cat: Category) {
        self.check_tid(tid);
        if bytes.is_empty() {
            return;
        }
        match self.kind_of(addr, bytes.len()) {
            MemoryKind::Dram => {
                self.dram.write(addr, bytes);
                let lines = lines_spanning(addr, bytes.len()).count() as u64;
                self.stats.dram_accesses += lines;
                self.clock_ns += self.cfg.lat.l1_hit_ns * lines;
            }
            MemoryKind::Pm => {
                self.pm_functional.write(addr, bytes);
                self.trace
                    .pm_store(tid, addr, bytes.len() as u32, false, cat, self.clock_ns);
                let mut lines = 0u64;
                for (line, _, _) in lines_spanning(addr, bytes.len()) {
                    lines += 1;
                    self.clock_ns += self.cfg.lat.l1_hit_ns;
                    self.read_cache[tid.0 as usize].touch(line);
                    // A cacheable store supersedes any write-combining
                    // entry for the line: the cache path now owns its
                    // durability (mixing NT and cacheable stores to one
                    // line is otherwise undefined on real hardware).
                    self.wcb.supersede(line);
                    if let Some(victim) = self.dirty_touch(tid.0 as usize, line) {
                        self.write_back(victim);
                    }
                }
                count_lines!("memsim.pm_store_lines", lines);
                self.plan_event(PlanEvent::Store);
            }
        }
    }

    /// Non-temporal store: bypasses the cache into the write-combining
    /// buffer. Entries become durable when the WCB fills or at the next
    /// `sfence`. PM only.
    ///
    /// # Panics
    ///
    /// Panics if the span is not entirely in PM.
    pub fn store_nt(&mut self, tid: Tid, addr: Addr, bytes: &[u8], cat: Category) {
        self.check_tid(tid);
        if bytes.is_empty() {
            return;
        }
        assert_eq!(
            self.kind_of(addr, bytes.len()),
            MemoryKind::Pm,
            "non-temporal stores are modeled for PM only"
        );
        self.pm_functional.write(addr, bytes);
        self.trace
            .pm_store(tid, addr, bytes.len() as u32, true, cat, self.clock_ns);
        let mut lines = 0u64;
        for (line, _, _) in lines_spanning(addr, bytes.len()) {
            lines += 1;
            self.clock_ns += self.cfg.lat.l1_hit_ns;
            let t = tid.0 as usize;
            // NT stores must not leave stale dirty cache state: the line
            // is written around the cache.
            self.dirty_remove(t, line);
            let data = *self.pm_functional.line_view(line);
            self.snap_seq += 1;
            let inserted = self.wcb.upsert(t, line, data, self.snap_seq);
            if inserted && self.wcb.live_len(t) > self.cfg.wcb_entries {
                pmobs::count!("memsim.wcb_overflow_drains");
                let oldest = self.wcb.pop_oldest_live(t);
                self.media_write(oldest.line, &oldest.data);
                self.clock_ns += self.cfg.lat.pm_write_ns;
                if let Some(s) = self.obs_trace.as_mut() {
                    s.instant("wcb_overflow_drain", self.clock_ns, oldest.line.base());
                }
            }
        }
        count_lines!("memsim.pm_nt_store_lines", lines);
        self.plan_event(PlanEvent::Store);
    }

    /// Store a little-endian `u64` (cacheable).
    pub fn store_u64(&mut self, tid: Tid, addr: Addr, val: u64, cat: Category) {
        self.store(tid, addr, &val.to_le_bytes(), cat);
    }

    /// Store a little-endian `u32` (cacheable).
    pub fn store_u32(&mut self, tid: Tid, addr: Addr, val: u32, cat: Category) {
        self.store(tid, addr, &val.to_le_bytes(), cat);
    }

    // ---------------------------------------------------------------
    // Persistence instructions
    // ---------------------------------------------------------------

    /// `clwb`/`clflushopt`: snapshot the (dirty) line containing `addr`
    /// into the flush-pending set. The data becomes durable at the next
    /// `sfence` from this thread. Flushing a clean line is a no-op
    /// beyond its issue cost.
    pub fn clwb(&mut self, tid: Tid, addr: Addr) {
        pmobs::count!("memsim.clwb");
        self.clwb_line(tid, addr);
    }

    /// The shared `clwb`/`clflushopt` body: trace, issue cost, and the
    /// dirty-line snapshot. Returns the affected line (and whether an
    /// armed elision plan skipped the instruction) so `clflushopt`
    /// does not recompute or invalidate it.
    fn clwb_line(&mut self, tid: Tid, addr: Addr) -> (Line, bool) {
        self.check_tid(tid);
        let line = Line::containing(addr);
        if let Some(e) = self.elide.as_mut() {
            e.seen_flushes += 1;
            if e.plan.wants_flush(e.seen_flushes) {
                // Skip only a machine-level no-op: the line must be
                // clean in every thread's cache. Untraced setup can
                // leave a checker-"clean" line dirty here — veto.
                if self.dirty_index.get(line) != 0 {
                    e.stats.flush_vetoes += 1;
                } else {
                    e.stats.flushes_elided += 1;
                    return (line, true);
                }
            }
        }
        self.trace.flush(tid, addr, self.clock_ns);
        self.clock_ns += self.cfg.lat.clwb_issue_ns;
        // The line may be dirty in any thread's cache (coherence finds
        // it); check the issuing thread first as the common case.
        if let Some(i) = self.dirty_holder_from(tid, line) {
            self.dirty_remove(i, line);
            let data = *self.pm_functional.line_view(line);
            self.snap_seq += 1;
            self.pending[tid.0 as usize].push(PendingLine {
                line,
                data,
                seq: self.snap_seq,
            });
        }
        self.plan_event(PlanEvent::Flush);
        (line, false)
    }

    /// `clflushopt`: like [`Machine::clwb`] for durability, but also
    /// *invalidates* the line, so the next load is a memory access —
    /// the retention-vs-eviction difference between the two
    /// instructions. Counts under both `memsim.clflushopt` and
    /// `memsim.clwb` (it issues one).
    pub fn clflushopt(&mut self, tid: Tid, addr: Addr) {
        pmobs::count!("memsim.clflushopt");
        pmobs::count!("memsim.clwb");
        let (line, elided) = self.clwb_line(tid, addr);
        if elided {
            return;
        }
        for rc in &mut self.read_cache {
            rc.remove(line);
        }
    }

    /// `sfence`: all of this thread's outstanding flushes and
    /// non-temporal stores become durable before the fence completes.
    /// Records an ordering-fence trace event (ends the epoch).
    pub fn sfence(&mut self, tid: Tid) {
        self.fence_impl(tid, false);
    }

    /// An `sfence` that the program semantically relies on for
    /// *durability* (transaction commit, pre-I/O barrier). Identical
    /// machine behavior to [`Machine::sfence`]; recorded as a
    /// durability fence so the HOPS replay can distinguish `dfence`
    /// sites from plain ordering (`ofence`) sites.
    pub fn sfence_durable(&mut self, tid: Tid) {
        self.fence_impl(tid, true);
    }

    fn fence_impl(&mut self, tid: Tid, durable: bool) {
        self.check_tid(tid);
        let t = tid.0 as usize;
        if let Some(e) = self.elide.as_mut() {
            e.seen_fences += 1;
            if e.plan.wants_fence(e.seen_fences) {
                // Skip only when the fence would retire nothing for
                // this thread; otherwise execute it anyway (veto).
                if self.pending[t].is_empty() && self.wcb.live_len(t) == 0 {
                    e.stats.fences_elided += 1;
                    return;
                }
                e.stats.fence_vetoes += 1;
            }
        }
        // Merge clwb snapshots and write-combining entries and drain
        // them in snapshot order, so the newest value of a line wins at
        // the device even when cacheable and non-temporal writes mixed.
        // The scratch buffer is reused fence to fence, and `append`
        // leaves `pending[t]`'s allocation in place.
        let mut entries = std::mem::take(&mut self.fence_scratch);
        entries.append(&mut self.pending[t]);
        self.wcb.drain_thread(t, &mut entries);
        entries.sort_unstable_by_key(|e| e.seq);
        let drained = entries.len() as u64;
        let fence_start_ns = self.clock_ns;
        if durable {
            pmobs::count!("memsim.dfence");
        } else {
            pmobs::count!("memsim.sfence");
        }
        pmobs::observe!("memsim.fence_drain_lines", pmobs::Unit::Count, drained);
        for e in entries.drain(..) {
            self.media_write(e.line, &e.data);
        }
        self.fence_scratch = entries;
        // The first writeback pays full PM latency; subsequent ones
        // pipeline across memory-controller banks.
        self.clock_ns += self.cfg.lat.sfence_ns;
        if drained > 0 {
            self.clock_ns +=
                self.cfg.lat.pm_write_ns + (drained - 1) * self.cfg.lat.pm_write_ns / 4;
        }
        if durable {
            self.trace.dfence(tid, self.clock_ns);
        } else {
            self.trace.fence(tid, self.clock_ns);
        }
        if let Some(s) = self.obs_trace.as_mut() {
            // One span per fence covering its drain+stall window; the
            // value is the drained line count.
            s.begin(
                if durable { "dfence" } else { "fence" },
                fence_start_ns,
                drained,
            );
            s.end(self.clock_ns);
        }
        self.plan_event(PlanEvent::Fence);
    }

    fn write_back(&mut self, line: Line) {
        pmobs::count!("memsim.dirty_evictions");
        let data = *self.pm_functional.line_view(line);
        self.media_write(line, &data);
        self.clock_ns += self.cfg.lat.pm_write_ns;
        if let Some(s) = self.obs_trace.as_mut() {
            s.instant("dirty_eviction", self.clock_ns, line.base());
        }
    }

    /// All durable writes funnel here; this is also where PM write
    /// traffic is counted (Figure 6 counts memory-level traffic, and a
    /// PM line is written to memory exactly when it persists).
    fn media_write(&mut self, line: Line, data: &[u8; LINE]) {
        self.pm_durable.write(line.base(), data);
        self.stats.pm_writes += 1;
    }

    // ---------------------------------------------------------------
    // Durability inspection & crash (crash body in crash.rs)
    // ---------------------------------------------------------------

    /// Whether the *current* functional contents of `[addr, addr+len)`
    /// are durable (would read back identically after `DropVolatile`).
    pub fn is_durable(&self, addr: Addr, len: usize) -> bool {
        assert!(
            self.pm_functional.range().contains_span(addr, len),
            "PM read out of range: {addr:#x}+{len}"
        );
        // Compare through borrowed line views — no buffer materializes.
        lines_spanning(addr, len).all(|(line, start, l)| {
            let off = line.offset_of(start);
            let f = self.pm_functional.line_view(line);
            let d = self.pm_durable.line_view(line);
            f[off..off + l] == d[off..off + l]
        })
    }

    /// Snapshot of durable PM only (no in-flight writes), sharing the
    /// durable device's pages.
    pub fn durable_image(&mut self) -> PmImage {
        self.pm_durable.image()
    }

    /// Arm a crash-injection plan: the machine counts the plan's PM
    /// events and captures a [`CrashState`] after each planned ordinal,
    /// then keeps running. Replaces any previously armed plan (and
    /// discards its captures).
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.plan = Some(PlanState::new(plan));
    }

    /// Arm an elision plan: from now on the machine counts `clwb`/
    /// `clflushopt` and fence ordinals (1-based, per kind) and skips
    /// the planned ones when they are machine-level no-ops. Replaces
    /// any previously armed plan and resets its counters.
    pub fn set_elide_plan(&mut self, plan: ElidePlan) {
        self.elide = Some(ElideState::new(plan));
    }

    /// What the armed elision plan did so far (`None` when no plan is
    /// armed).
    pub fn elide_stats(&self) -> Option<ElideStats> {
        self.elide.as_ref().map(|e| e.stats)
    }

    /// Matching PM events seen since the plan was armed (0 when no
    /// plan is armed). With [`CrashPlan::probe`] this measures a run's
    /// total so sweep points can be chosen.
    pub fn crash_event_count(&self) -> u64 {
        self.plan.as_ref().map_or(0, PlanState::count)
    }

    /// Take the crash states captured so far (the plan stays armed and
    /// keeps counting).
    pub fn take_crash_states(&mut self) -> Vec<CrashState> {
        self.plan
            .as_mut()
            .map_or_else(Vec::new, PlanState::take_captured)
    }

    /// Record workload progress — by convention the number of fully
    /// committed operations. Purely volatile bookkeeping: no trace
    /// event, no clock movement; the value is stamped into each
    /// captured [`CrashState`] so a recovery oracle knows exactly which
    /// operations must have survived.
    pub fn note_progress(&mut self, ops: u64) {
        self.progress = ops;
    }

    /// The crash-decidable state right now, consuming the machine —
    /// the end-of-run analogue of a planned capture.
    pub fn into_crash_state(mut self) -> CrashState {
        self.capture_crash_state(self.crash_event_count())
    }

    /// The [`CrashState`] after event `at` — every capture, planned or
    /// end-of-run, is taken here. The durable image shares the durable
    /// device's pages; only the in-flight lines are copied.
    fn capture_crash_state(&mut self, at: u64) -> CrashState {
        CrashState {
            at,
            progress: self.progress,
            durable: self.pm_durable.image(),
            dirty: self
                .dirty
                .iter()
                .map(|s| {
                    s.lines()
                        .into_iter()
                        .map(|l| (l, *self.pm_functional.line_view(l)))
                        .collect()
                })
                .collect(),
            pending: self.pending.clone(),
            wcbs: self.wcb.live_entries(),
        }
    }

    /// The armed-plan hook at the end of every PM store/flush/fence
    /// path. Captures happen *after* the K-th event completes.
    fn plan_event(&mut self, ev: PlanEvent) {
        let due = match self.plan.as_mut() {
            None => return,
            Some(p) => p.advance(ev),
        };
        if let Some(at) = due {
            let state = self.capture_crash_state(at);
            self.plan
                .as_mut()
                .expect("plan checked above")
                .push_captured(state);
        }
    }

    /// `(directory slots, pages)` held by every line-indexed table of
    /// the machine — devices, cache sets, dirty index. What building
    /// and dropping a machine costs is proportional to this, not to the
    /// size of the address map.
    #[cfg(test)]
    fn resident(&self) -> (usize, usize) {
        let sets = self.dirty.iter().chain(&self.read_cache);
        [
            self.dram.resident(),
            self.pm_functional.resident(),
            self.pm_durable.resident(),
            self.dirty_index.resident(),
        ]
        .into_iter()
        .chain(sets.map(LruSet::resident))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn m() -> Machine {
        Machine::new(MachineConfig::tiny_for_tests())
    }

    fn pm_base(m: &Machine) -> Addr {
        m.config().map.pm.base
    }

    #[test]
    fn store_load_round_trip_pm_and_dram() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, b"pm-data", Category::UserData);
        assert_eq!(mc.load_vec(t, pa, 7), b"pm-data");
        let da = mc.alloc_dram(64, 8);
        mc.store(t, da, b"dram", Category::UserData);
        assert_eq!(mc.load_vec(t, da, 4), b"dram");
    }

    #[test]
    fn a_machine_costs_what_it_has_written() {
        // The paper's machine: 4 GiB DRAM + 4 GiB PM, 4 threads.
        let mut mc = Machine::new(MachineConfig::asplos17());
        let t = Tid(0);
        let pa = pm_base(&mc);
        assert_eq!(mc.resident(), (0, 0), "a fresh machine holds nothing");
        // DRAM loads, flushes, fences and durability queries allocate
        // nothing, wherever in the 8 GiB map they land.
        mc.load_u64(t, (4 << 30) - 8);
        mc.clflushopt(t, pa + (1 << 30));
        mc.sfence(t);
        assert!(mc.is_durable(pa + (4 << 30) - 64, 64));
        assert_eq!(mc.resident(), (0, 0));
        // One 8-byte store on the third page: the functional data page,
        // the thread's dirty- and read-set index pages and the dirty
        // index — four pages, each under a three-slot directory;
        // nothing durable, nothing in DRAM, nothing for the other three
        // threads.
        mc.store_u64(t, pa + 2 * 65_536, 7, Category::UserData);
        assert_eq!(mc.resident(), (12, 4));
        // Persisting it adds the media's data and endurance pages.
        mc.clwb(t, pa + 2 * 65_536);
        mc.sfence(t);
        assert_eq!(mc.resident(), (18, 6));
    }

    #[test]
    fn validate_tid_matches_thread_count() {
        let mc = m();
        let threads = mc.config().threads;
        for t in 0..threads {
            assert!(mc.validate_tid(Tid(t)).is_ok(), "t{t} is a real slot");
        }
        let err = mc.validate_tid(Tid(threads)).unwrap_err();
        assert_eq!(err.tid, Tid(threads));
        assert_eq!(err.threads, threads);
        let msg = err.to_string();
        assert!(
            msg.contains(&threads.to_string()),
            "error names the machine's thread count: {msg}"
        );
    }

    #[test]
    fn unfenced_store_is_not_durable() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[7; 8], Category::UserData);
        assert!(!mc.is_durable(pa, 8));
    }

    #[test]
    fn clwb_sfence_makes_durable() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[7; 8], Category::UserData);
        mc.clwb(t, pa);
        assert!(!mc.is_durable(pa, 8), "clwb alone is not durability");
        mc.sfence(t);
        assert!(mc.is_durable(pa, 8));
    }

    #[test]
    fn nt_store_durable_after_fence() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store_nt(t, pa, &[9; 16], Category::RedoLog);
        assert!(!mc.is_durable(pa, 16));
        mc.sfence(t);
        assert!(mc.is_durable(pa, 16));
    }

    #[test]
    fn wcb_overflow_drains_oldest() {
        let mut mc = m(); // wcb_entries = 2
        let t = Tid(0);
        let pa = pm_base(&mc);
        // Three NT stores to three different lines: first one drains.
        for i in 0..3u64 {
            mc.store_nt(t, pa + i * 64, &[i as u8 + 1; 8], Category::RedoLog);
        }
        assert!(mc.is_durable(pa, 8), "oldest WCB entry drained");
        assert!(!mc.is_durable(pa + 128, 8), "newest still buffered");
    }

    #[test]
    fn nt_write_combining_same_line() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store_nt(t, pa, &[1; 8], Category::RedoLog);
        mc.store_nt(t, pa + 8, &[2; 8], Category::RedoLog);
        mc.sfence(t);
        assert!(mc.is_durable(pa, 16));
        assert_eq!(mc.load_vec(t, pa, 16), [[1u8; 8], [2u8; 8]].concat());
    }

    #[test]
    fn eviction_makes_line_durable_early() {
        let mut mc = m(); // l1_dirty_lines = 4
        let t = Tid(0);
        let pa = pm_base(&mc);
        // Dirty five distinct lines: the first gets evicted (durable).
        for i in 0..5u64 {
            mc.store(t, pa + i * 64, &[i as u8 + 1; 8], Category::UserData);
        }
        assert!(
            mc.is_durable(pa, 8),
            "evicted line reached PM without a fence"
        );
        assert!(!mc.is_durable(pa + 4 * 64, 8));
    }

    #[test]
    fn sfence_only_drains_own_thread() {
        let mut mc = m();
        let pa = pm_base(&mc);
        mc.store(Tid(0), pa, &[1; 8], Category::UserData);
        mc.clwb(Tid(0), pa);
        mc.sfence(Tid(1)); // other thread's fence
        assert!(!mc.is_durable(pa, 8));
        mc.sfence(Tid(0));
        assert!(mc.is_durable(pa, 8));
    }

    #[test]
    fn clwb_of_clean_line_is_noop() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.clwb(t, pa);
        mc.sfence(t);
        assert!(mc.is_durable(pa, 8)); // all zero everywhere
    }

    #[test]
    fn clflushopt_invalidates_clwb_retains() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        // Warm the line, then clwb: a reload is still a cache hit.
        mc.load_vec(t, pa, 8);
        mc.clwb(t, pa);
        mc.sfence(t);
        let misses_before = mc.stats().pm_reads;
        mc.load_vec(t, pa, 8);
        assert_eq!(mc.stats().pm_reads, misses_before, "clwb retains the line");
        // clflushopt evicts: the reload misses.
        mc.clflushopt(t, pa);
        mc.sfence(t);
        mc.load_vec(t, pa, 8);
        assert_eq!(
            mc.stats().pm_reads,
            misses_before + 1,
            "clflushopt invalidates"
        );
    }

    #[test]
    fn clwb_snapshot_semantics() {
        // Value at clwb time is what the fence persists; a later
        // unflushed store stays volatile.
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[1; 8], Category::UserData);
        mc.clwb(t, pa);
        mc.store(t, pa, &[2; 8], Category::UserData);
        mc.sfence(t);
        let durable = mc.durable_image().read_vec(pa, 8);
        assert_eq!(durable, vec![1; 8]);
        assert_eq!(mc.load_vec(t, pa, 8), vec![2; 8]);
    }

    #[test]
    fn trace_records_stores_and_fences() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[1; 8], Category::UserData);
        mc.clwb(t, pa);
        mc.sfence(t);
        let ev = mc.trace().events();
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn dram_stores_not_traced() {
        let mut mc = m();
        let t = Tid(0);
        let da = mc.alloc_dram(64, 64);
        mc.store(t, da, &[1; 8], Category::UserData);
        assert!(mc.trace().is_empty());
        assert_eq!(mc.stats().dram_accesses, 1);
    }

    #[test]
    fn stats_count_memory_traffic_not_cache_hits() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, &[0; 128], Category::UserData); // 2 lines, dirty
        assert_eq!(mc.stats().pm_writes, 0, "nothing persisted yet");
        mc.load_vec(t, pa, 64); // dirty line: cache hit
        assert_eq!(mc.stats().pm_reads, 0);
        // A cold line misses once, then hits.
        mc.load_vec(t, pa + 4096, 8);
        mc.load_vec(t, pa + 4096, 8);
        assert_eq!(mc.stats().pm_reads, 1);
        // Persisting the dirty lines is what counts as PM writes.
        mc.clwb(t, pa);
        mc.clwb(t, pa + 64);
        mc.sfence(t);
        assert_eq!(mc.stats().pm_writes, 2);
    }

    #[test]
    fn dram_bulk_counts_and_advances() {
        let mut mc = m();
        let t0 = mc.now_ns();
        mc.dram_bulk(Tid(0), 1000);
        assert_eq!(mc.stats().dram_accesses, 1000);
        assert_eq!(mc.now_ns() - t0, 1000);
    }

    #[test]
    fn clock_advances() {
        let mut mc = m();
        let t = Tid(0);
        let t0 = mc.now_ns();
        mc.store(t, pm_base(&mc), &[1; 8], Category::UserData);
        assert!(mc.now_ns() > t0);
        let t1 = mc.now_ns();
        mc.advance_ns(100);
        assert_eq!(mc.now_ns(), t1 + 100);
    }

    #[test]
    fn from_image_restores_pm() {
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.store(t, pa, b"saved", Category::UserData);
        mc.clwb(t, pa);
        mc.sfence(t);
        let img = mc.durable_image();
        let mut mc2 = Machine::from_image(MachineConfig::tiny_for_tests(), &img);
        assert_eq!(mc2.load_vec(Tid(0), pa, 5), b"saved");
        assert!(mc2.is_durable(pa, 5));
    }

    #[test]
    fn fresh_tx_ids_are_per_thread_monotone() {
        let mut mc = m();
        assert_eq!(mc.fresh_tx_id(Tid(0)), 1);
        assert_eq!(mc.fresh_tx_id(Tid(0)), 2);
        assert_eq!(mc.fresh_tx_id(Tid(1)), 1);
    }

    #[test]
    fn elide_plan_skips_noop_flush_and_fence() {
        use crate::elide::ElidePlan;
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        // Flush ordinal 2 re-flushes a durable line; fence ordinal 2
        // retires nothing. Both are pure overhead and get skipped.
        mc.set_elide_plan(ElidePlan::new([2], [2]));
        mc.store(t, pa, &[7; 8], Category::UserData);
        mc.clwb(t, pa); // ordinal 1: executes
        mc.sfence(t); // ordinal 1: executes, persists
        let clock_before = mc.now_ns();
        let writes_before = mc.stats().pm_writes;
        let trace_before = mc.trace().events().len();
        mc.clwb(t, pa); // ordinal 2: durable line, elided
        mc.sfence(t); // ordinal 2: nothing pending, elided
        assert_eq!(mc.now_ns(), clock_before, "elided ops cost nothing");
        assert_eq!(mc.stats().pm_writes, writes_before);
        assert_eq!(mc.trace().events().len(), trace_before, "not traced");
        assert!(mc.is_durable(pa, 8));
        let stats = mc.elide_stats().expect("armed");
        assert_eq!((stats.flushes_elided, stats.fences_elided), (1, 1));
        assert_eq!(stats.veto_total(), 0);
    }

    #[test]
    fn elide_plan_vetoes_load_bearing_sites() {
        use crate::elide::ElidePlan;
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        // Plan to skip the only flush and fence covering a real store:
        // the machine must refuse both, keeping the data durable.
        mc.set_elide_plan(ElidePlan::new([1], [1]));
        mc.store(t, pa, &[9; 8], Category::UserData);
        mc.clwb(t, pa); // dirty line: vetoed, executes
        mc.sfence(t); // pending snapshot: vetoed, executes
        assert!(mc.is_durable(pa, 8), "vetoes preserved durability");
        let stats = mc.elide_stats().expect("armed");
        assert_eq!((stats.flush_vetoes, stats.fence_vetoes), (1, 1));
        assert_eq!(stats.elided_total(), 0);
    }

    #[test]
    fn elided_fence_counts_toward_no_crash_plan_event() {
        use crate::crash::{CrashCounter, CrashPlan};
        use crate::elide::ElidePlan;
        let mut mc = m();
        let t = Tid(0);
        let pa = pm_base(&mc);
        mc.set_crash_plan(CrashPlan::probe(CrashCounter::Fences));
        mc.set_elide_plan(ElidePlan::new([], [2]));
        mc.store(t, pa, &[1; 8], Category::UserData);
        mc.clwb(t, pa);
        mc.sfence(t); // counted
        mc.sfence(t); // elided: not counted
        mc.sfence(t); // counted
        assert_eq!(mc.crash_event_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tid_panics() {
        let mut mc = m();
        mc.sfence(Tid(99));
    }

    #[test]
    #[should_panic(expected = "outside memory map")]
    fn unmapped_access_panics() {
        let mut mc = m();
        let end = mc.config().map.pm.end();
        mc.load_vec(Tid(0), end, 8);
    }

    #[test]
    #[should_panic(expected = "PM only")]
    fn nt_store_to_dram_panics() {
        let mut mc = m();
        let da = mc.alloc_dram(64, 64);
        mc.store_nt(Tid(0), da, &[1; 8], Category::UserData);
    }

    #[test]
    fn alloc_dram_aligns() {
        let mut mc = m();
        let a = mc.alloc_dram(10, 64);
        let b = mc.alloc_dram(10, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
    }
}
