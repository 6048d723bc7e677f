//! Trace-replay timing models for the five Figure 10 configurations.
//!
//! The replay re-prices a recorded WHISPER trace under each persistence
//! mechanism. Time between a thread's trace events is treated as
//! volatile work (identical across models, after subtracting the
//! recording machine's own persistence charges); what differs is what
//! each mechanism pays at stores, flushes, and fences:
//!
//! * **x86-64 (NVM)** — `clwb` per dirty line, `sfence` waits for every
//!   writeback to reach the NVM device. The recording baseline.
//! * **x86-64 (PWQ)** — same instructions, but a persistent write queue
//!   at the memory controller is the durability point, so fences wait
//!   only for MC ACKs ("this results in faster durability operations").
//! * **HOPS (NVM)** — no flush instructions; `ofence` is a local
//!   timestamp bump; the [`PersistBuffer`] drains in the *background*
//!   during volatile work; only `dfence` waits, and only for what the
//!   background never caught up on.
//! * **HOPS (PWQ)** — HOPS draining to an MC-side write queue. The
//!   paper finds the PWQ adds little once flushes are off the critical
//!   path ("the PWQ only improves runtime by 1.4% for HOPS").
//! * **IDEAL (non-CC)** — ignores all ordering; not crash-consistent.
//!
//! One [`Replayer::step`] body prices all five; the HOPS models differ
//! from the others only where they step the persist buffer.

use crate::config::{HopsConfig, TimingConfig};
use crate::persist_buffer::PersistBuffer;
use memsim::{pipelined_ns, Latency};
use pmem::lines_spanning;
use pmtrace::{Event, EventKind, Tid};

/// The five persistence configurations of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistModel {
    /// `clwb`+`sfence`, durable at the NVM device (baseline).
    X86Nvm,
    /// `clwb`+`sfence`, durable at the memory controller.
    X86Pwq,
    /// Persist buffers + `ofence`/`dfence`, durable at NVM.
    HopsNvm,
    /// Persist buffers + `ofence`/`dfence`, durable at the MC.
    HopsPwq,
    /// No ordering at all; not crash-consistent.
    Ideal,
}

impl PersistModel {
    /// All five, in Figure 10's bar order.
    pub const ALL: [PersistModel; 5] = [
        PersistModel::X86Nvm,
        PersistModel::X86Pwq,
        PersistModel::HopsNvm,
        PersistModel::HopsPwq,
        PersistModel::Ideal,
    ];
}

impl std::fmt::Display for PersistModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PersistModel::X86Nvm => "x86-64 (NVM)",
            PersistModel::X86Pwq => "x86-64 (PWQ)",
            PersistModel::HopsNvm => "HOPS (NVM)",
            PersistModel::HopsPwq => "HOPS (PWQ)",
            PersistModel::Ideal => "IDEAL (NON-CC)",
        };
        f.write_str(s)
    }
}

/// Replay result: per-thread and total runtimes.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// The configuration replayed.
    pub model: PersistModel,
    /// Runtime of each thread (ns); the app finishes at the slowest.
    pub per_thread_ns: Vec<u64>,
    /// max over threads.
    pub runtime_ns: u64,
}

#[derive(Debug, Default)]
struct ThreadReplay {
    /// Accumulated runtime under the model.
    clock_ns: u64,
    /// Timestamp of this thread's previous event in the original run.
    last_at: u64,
    /// Lines flushed/NT-written since the last fence: what the recording
    /// machine's fence waited for, and what an x86 model's fence waits
    /// for (both models issue the recorded `clwb`s and NT stores).
    recorded_pending: u64,
    /// Ordering-stall time: fence/ofence/dfence charges plus
    /// persist-buffer-overflow stalls. Maintained unconditionally (two
    /// integer adds per fence) so the serving profiler can decompose
    /// service time into replay vs fence-stall phases.
    stall_ns: u64,
    /// Whether an epoch span is currently open on `trace`.
    epoch_open: bool,
    /// Per-thread trace sink (`None` unless the replayer was built
    /// while tracing was active): epoch spans, fence-stall sub-spans,
    /// persist-buffer occupancy samples — all on this thread's
    /// replayed clock.
    trace: Option<pmobs::trace::TraceSink>,
}

/// Incremental trace replay under one persistence model.
///
/// [`replay`] prices a whole trace in one call; the serving engine
/// instead needs the clock *between* request boundaries, so the replay
/// state is exposed as a stepping cursor: feed events in trace order
/// with [`step`](Replayer::step), sample the running makespan with
/// [`makespan_ns`](Replayer::makespan_ns) at each boundary, and
/// [`finish`](Replayer::finish) into the usual [`RuntimeReport`].
/// Stepping a full trace is charge-for-charge identical to [`replay`].
///
/// The HOPS models step a real [`PersistBuffer`]: a store buffers its
/// lines, volatile time retires them in the background, a full buffer
/// stalls until its overflow retires, and a `dfence` waits for the
/// rest (the crate docs step the paper's worked example through it).
#[derive(Debug)]
pub struct Replayer {
    model: PersistModel,
    cfg: TimingConfig,
    /// The recording machine's charges, subtracted from trace gaps to
    /// recover volatile time.
    rec: Latency,
    /// The HOPS models' persist buffers (unused by the others).
    pb: PersistBuffer,
    /// Background drain rate: within an epoch, writes flush
    /// "concurrently to the MCs", so the per-line unit is the persist
    /// latency spread over the controllers and their queue depth.
    drain_unit: u64,
    /// A dfence waits at least for its final epoch's ACK at the
    /// durability point.
    dfence_floor: u64,
    /// Track-name base (`ctx/hops[model]/N`) captured at construction
    /// while tracing was active; per-thread sinks append `/tK`.
    trace_base: Option<String>,
    /// Per-thread pricing state, indexed by the thread's persist-buffer
    /// handle (every model registers threads there on first sight).
    threads: Vec<(Tid, ThreadReplay)>,
}

impl Replayer {
    /// A fresh cursor at simulated time zero.
    pub fn new(cfg: &TimingConfig, hops_cfg: &HopsConfig, model: PersistModel) -> Replayer {
        let drain_unit = match model {
            PersistModel::HopsNvm | PersistModel::X86Nvm => {
                cfg.pm_write_ns / (cfg.mem_controllers * 4)
            }
            PersistModel::HopsPwq | PersistModel::X86Pwq => {
                cfg.pwq_ack_ns / (cfg.mem_controllers * 4)
            }
            PersistModel::Ideal => 1,
        }
        .max(1);
        let dfence_floor = match model {
            PersistModel::HopsNvm => cfg.pm_write_ns,
            PersistModel::HopsPwq => cfg.pwq_ack_ns,
            _ => 0,
        };
        let trace_base = if pmobs::trace::active() {
            pmobs::trace::track_base(&format!("hops[{model}]"))
        } else {
            None
        };
        Replayer {
            model,
            cfg: *cfg,
            rec: Latency::asplos17(),
            pb: PersistBuffer::new(hops_cfg),
            drain_unit,
            dfence_floor,
            trace_base,
            threads: Vec::new(),
        }
    }

    /// The persist buffers the HOPS models step.
    pub fn buffer(&self) -> &PersistBuffer {
        &self.pb
    }

    /// Price one event. Events must arrive in trace (time) order.
    pub fn step(&mut self, ev: &Event) {
        let model = self.model;
        let hops = matches!(model, PersistModel::HopsNvm | PersistModel::HopsPwq);
        let slot = self.pb.thread(ev.tid);
        if slot == self.threads.len() {
            self.threads.push((ev.tid, ThreadReplay::default()));
        }
        let (cfg, rec) = (&self.cfg, &self.rec);
        let t = &mut self.threads[slot].1;
        if t.trace.is_none() {
            if let Some(base) = &self.trace_base {
                t.trace = Some(pmobs::trace::TraceSink::new(format!(
                    "{base}/t{}",
                    ev.tid.0
                )));
            }
        }
        let start_ns = t.clock_ns;
        let is_fence = matches!(ev.kind, EventKind::Fence | EventKind::DFence);
        // HOPS: the persist buffer's occupancy as a fence arrives.
        let mut pb_at_fence = 0;
        // Volatile time since this thread's previous event, minus what
        // the recording machine charged for persistence then (the
        // subtraction happens implicitly: recording charges are added
        // back below only under the model's own pricing).
        let gap = ev.at_ns.saturating_sub(t.last_at);
        t.last_at = ev.at_ns;

        // Reconstruct the recording machine's charge for this event so
        // the gap can be re-priced (the recorder runs x86-64(NVM)).
        let recorded_charge;
        let model_charge;
        match ev.kind {
            EventKind::PmStore { addr, len, nt, .. } => {
                let lines = lines_spanning(addr, len as usize).count() as u64;
                recorded_charge = lines * rec.l1_hit_ns;
                if nt {
                    t.recorded_pending += lines;
                }
                // Store cost is identical in every model (Consequence
                // 11: no overhead on the access path).
                model_charge = lines * cfg.l1_hit_ns;
                if hops {
                    self.pb.store(slot, addr, len as usize);
                    // PB tracking + writeback bandwidth contention.
                    t.clock_ns += lines * cfg.pb_contention_ns;
                }
            }
            EventKind::Flush { .. } => {
                recorded_charge = rec.clwb_issue_ns;
                t.recorded_pending += 1;
                model_charge = match model {
                    PersistModel::X86Nvm | PersistModel::X86Pwq => cfg.clwb_issue_ns,
                    // HOPS "makes data persistent without explicit
                    // flushes"; IDEAL drops them too.
                    _ => 0,
                };
            }
            EventKind::Fence | EventKind::DFence => {
                let n = t.recorded_pending;
                t.recorded_pending = 0;
                recorded_charge = rec.fence_ns(n);
                model_charge = match model {
                    PersistModel::X86Nvm => cfg.sfence_ns + pipelined_ns(n, cfg.pm_write_ns),
                    PersistModel::X86Pwq => cfg.sfence_ns + pipelined_ns(n, cfg.pwq_ack_ns),
                    _ if hops => {
                        pb_at_fence = self.pb.len(slot);
                        if ev.kind == EventKind::DFence {
                            // Drain whatever background flushing has
                            // not yet retired, plus the final epoch's
                            // ACK round trip.
                            let wait = pb_at_fence * self.drain_unit + self.dfence_floor;
                            self.pb.dfence(slot);
                            cfg.ofence_ns + wait
                        } else {
                            self.pb.ofence(slot);
                            cfg.ofence_ns
                        }
                    }
                    _ => 0,
                };
            }
            EventKind::TxBegin { .. }
            | EventKind::TxEnd { .. }
            | EventKind::PmLoad { .. }
            | EventKind::RecoveryBegin => {
                // Markers (and loads, which application traces never
                // record) carry no persistence charge in any model.
                recorded_charge = 0;
                model_charge = 0;
            }
        }

        // Volatile share of the gap (never negative: eviction/WCB
        // charges the recorder folded in are treated as volatile).
        let volatile = gap.saturating_sub(recorded_charge);

        // HOPS drains persist buffers in the background of volatile
        // execution ("moving most flushes from the foreground to the
        // background").
        let mut overflow_stall = 0;
        if hops && self.pb.len(slot) > 0 {
            // A full PB stalls the thread, but only long enough for
            // the overflow to retire — not a drain to empty.
            overflow_stall = self.pb.retire(slot, volatile / self.drain_unit) * self.drain_unit;
            t.clock_ns += overflow_stall;
        }

        t.clock_ns += volatile + model_charge;

        // Stall accounting (unconditional, two adds): what the serving
        // profiler calls the "fence_stall" phase — ordering charges at
        // fences plus persist-buffer overflow stalls. Everything else
        // in the service time is replay (volatile work + store/flush
        // issue costs, identical across mechanisms by Consequence 11).
        if is_fence {
            t.stall_ns += model_charge;
        }
        t.stall_ns += overflow_stall;

        // Trace emission, all on this thread's replayed clock. Buffer
        // order is timestamp order: epoch begin at `start_ns`, any
        // overflow stall right after it, fence work in the final
        // `model_charge` window, epoch end at the updated clock.
        if let Some(s) = t.trace.as_mut() {
            let end_ns = t.clock_ns;
            if !t.epoch_open {
                s.begin("epoch", start_ns, 0);
                t.epoch_open = true;
            }
            if overflow_stall > 0 {
                s.begin("pb_overflow_stall", start_ns, overflow_stall);
                s.end(start_ns + overflow_stall);
            }
            if is_fence {
                if hops {
                    s.counter("pb_outstanding", end_ns - model_charge, pb_at_fence);
                }
                if model_charge > 0 {
                    let name = match (hops, ev.kind == EventKind::DFence) {
                        (true, true) => "dfence_stall",
                        (true, false) => "ofence_stall",
                        (false, _) => "fence_stall",
                    };
                    s.begin(name, end_ns - model_charge, model_charge);
                    s.end(end_ns);
                }
                s.end(end_ns);
                t.epoch_open = false;
            }
        }
    }

    /// The running makespan: the slowest thread's accumulated clock.
    /// Sampling this between [`step`](Replayer::step) calls is how the
    /// serving engine turns a trace into per-request service times.
    pub fn makespan_ns(&self) -> u64 {
        self.threads
            .iter()
            .map(|(_, t)| t.clock_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total ordering-stall time accumulated so far, summed over
    /// threads: fence/ofence/dfence charges plus persist-buffer
    /// overflow stalls. Differencing this across request boundaries
    /// (like [`makespan_ns`](Replayer::makespan_ns)) is how the serving
    /// profiler splits service time into replay vs fence-stall phases.
    pub fn stall_total_ns(&self) -> u64 {
        self.threads.iter().map(|(_, t)| t.stall_ns).sum()
    }

    /// Consume the cursor into a [`RuntimeReport`] (threads in
    /// ascending-tid order, like [`replay`]).
    pub fn finish(self) -> RuntimeReport {
        let mut threads = self.threads;
        threads.sort_by_key(|(tid, _)| *tid);
        let per_thread_ns: Vec<u64> = threads.iter().map(|(_, t)| t.clock_ns).collect();
        let runtime_ns = per_thread_ns.iter().copied().max().unwrap_or(0);
        RuntimeReport {
            model: self.model,
            per_thread_ns,
            runtime_ns,
        }
    }
}

/// Replay a recorded trace under `model`.
///
/// `events` must be the time-ordered stream from one application run on
/// the `memsim` machine (whose charging formulas this function inverts
/// to recover volatile time).
pub fn replay(
    events: &[Event],
    cfg: &TimingConfig,
    hops_cfg: &HopsConfig,
    model: PersistModel,
) -> RuntimeReport {
    pmobs::count!("hops.replay_events", events.len() as u64);
    let mut r = Replayer::new(cfg, hops_cfg, model);
    for ev in events {
        r.step(ev);
    }
    r.finish()
}

thread_local! {
    static FIG10_INVOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`figure10_bars`] has run on the current thread.
///
/// The five-model replay is the most expensive analysis step, so the
/// suite driver promises to run it exactly once per trace; tests verify
/// that promise by differencing this counter around a call. Per-thread
/// so concurrently running tests (or suite workers) cannot observe each
/// other's replays.
pub fn fig10_invocations() -> u64 {
    FIG10_INVOCATIONS.with(std::cell::Cell::get)
}

/// Replay all five models and return runtimes normalized to the
/// x86-64(NVM) baseline, in [`PersistModel::ALL`] order — one cluster
/// of Figure 10 bars.
pub fn figure10_bars(
    events: &[Event],
    cfg: &TimingConfig,
    hops_cfg: &HopsConfig,
) -> Vec<(PersistModel, f64)> {
    FIG10_INVOCATIONS.with(|c| c.set(c.get() + 1));
    pmobs::count!("hops.fig10_replays");
    // One replay per model: the baseline is ALL[0] (x86-64 NVM), so a
    // separate baseline replay would price the same trace twice.
    let runtimes: Vec<(PersistModel, u64)> = PersistModel::ALL
        .iter()
        .map(|&m| {
            let r = replay(events, cfg, hops_cfg, m).runtime_ns;
            // Simulated-clock domain: deterministic per (trace, config).
            if pmobs::enabled() {
                pmobs::record_sim_ns(&format!("fig10_runtime/{m}"), r);
            }
            (m, r)
        })
        .collect();
    let base = runtimes[0].1;
    debug_assert_eq!(runtimes[0].0, PersistModel::X86Nvm);
    runtimes
        .into_iter()
        .map(|(m, r)| {
            let norm = if base == 0 {
                0.0
            } else {
                r as f64 / base as f64
            };
            (m, norm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtrace::{Category, TraceBuffer};

    /// A synthetic PM-heavy trace: per iteration, `work_ns` of volatile
    /// time, one store + flush + fence epoch, and a dfence every 10.
    fn synth_trace(iters: u64, work_ns: u64) -> Vec<Event> {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        let mut now = 0;
        for i in 0..iters {
            now += work_ns + 1; // volatile work + store (1 line × l1)
            t.pm_store(tid, i * 64, 8, false, Category::UserData, now);
            now += 2; // clwb issue
            t.flush(tid, i * 64, now);
            // Recorder charge for the fence: sfence 5 + pm_write 40.
            now += 45;
            if i % 10 == 9 {
                t.dfence(tid, now);
            } else {
                t.fence(tid, now);
            }
        }
        t.into_events()
    }

    #[test]
    fn model_ordering_matches_figure10() {
        let events = synth_trace(1000, 100);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let bars = figure10_bars(&events, &cfg, &h);
        let get = |m: PersistModel| bars.iter().find(|(b, _)| *b == m).unwrap().1;
        assert!(
            (get(PersistModel::X86Nvm) - 1.0).abs() < 1e-9,
            "baseline is 1.0"
        );
        assert!(get(PersistModel::X86Pwq) < get(PersistModel::X86Nvm));
        assert!(get(PersistModel::HopsNvm) < get(PersistModel::X86Pwq));
        assert!(get(PersistModel::HopsPwq) <= get(PersistModel::HopsNvm));
        assert!(get(PersistModel::Ideal) < get(PersistModel::HopsPwq) + 1e-12);
    }

    #[test]
    fn pwq_helps_hops_much_less_than_x86() {
        // Realistic volatile gaps give the persist buffers background
        // time to drain, which is exactly why the PWQ stops mattering
        // under HOPS.
        let events = synth_trace(1000, 1500);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let bars = figure10_bars(&events, &cfg, &h);
        let get = |m: PersistModel| bars.iter().find(|(b, _)| *b == m).unwrap().1;
        let x86_gain = get(PersistModel::X86Nvm) - get(PersistModel::X86Pwq);
        let hops_gain = get(PersistModel::HopsNvm) - get(PersistModel::HopsPwq);
        assert!(
            hops_gain < x86_gain / 2.0,
            "PWQ matters far less under HOPS: {hops_gain} vs {x86_gain}"
        );
    }

    #[test]
    fn speedup_proportional_to_pm_intensity() {
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let dense = figure10_bars(&synth_trace(1000, 50), &cfg, &h);
        let sparse = figure10_bars(&synth_trace(1000, 2000), &cfg, &h);
        let gain = |bars: &[(PersistModel, f64)]| {
            1.0 - bars
                .iter()
                .find(|(m, _)| *m == PersistModel::HopsNvm)
                .unwrap()
                .1
        };
        assert!(
            gain(&dense) > gain(&sparse) * 2.0,
            "PM-intense apps gain more: {} vs {}",
            gain(&dense),
            gain(&sparse)
        );
    }

    #[test]
    fn empty_trace_runs_in_zero_time() {
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let r = replay(&[], &cfg, &h, PersistModel::X86Nvm);
        assert_eq!(r.runtime_ns, 0);
        assert!(r.per_thread_ns.is_empty());
    }

    #[test]
    fn ideal_is_volatile_time_plus_stores() {
        // With all persistence charges gone, IDEAL ≈ volatile + stores.
        let events = synth_trace(100, 1000);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let ideal = replay(&events, &cfg, &h, PersistModel::Ideal).runtime_ns;
        // 100 iters × (1000 work + 1 store line) = 100_100, plus
        // nothing else.
        assert_eq!(ideal, 100 * (1000 + 1));
    }

    #[test]
    fn per_thread_runtimes_reported() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 10);
        t.fence(Tid(0), 60);
        t.pm_store(Tid(1), 64, 8, false, Category::UserData, 500);
        t.fence(Tid(1), 600);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        let r = replay(t.events(), &cfg, &h, PersistModel::X86Nvm);
        assert_eq!(r.per_thread_ns.len(), 2);
        assert_eq!(r.runtime_ns, *r.per_thread_ns.iter().max().unwrap());
    }

    #[test]
    fn stepping_replayer_matches_batch_replay() {
        // The incremental cursor is the same pricing engine; stepping a
        // whole trace must reproduce replay() exactly, for every model,
        // and its sampled makespan must be monotone along the trace.
        let events = synth_trace(500, 300);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        for model in PersistModel::ALL {
            let batch = replay(&events, &cfg, &h, model);
            let mut r = Replayer::new(&cfg, &h, model);
            let mut last = 0;
            for ev in &events {
                r.step(ev);
                let now = r.makespan_ns();
                assert!(now >= last, "{model}: makespan went backwards");
                last = now;
            }
            assert_eq!(r.makespan_ns(), batch.runtime_ns, "{model}");
            let stepped = r.finish();
            assert_eq!(stepped, batch, "{model}");
        }
    }

    #[test]
    fn stall_accounting_splits_fence_time() {
        let events = synth_trace(100, 100);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        // x86: every fence pays sfence + writeback waits — all stall.
        let mut x86 = Replayer::new(&cfg, &h, PersistModel::X86Nvm);
        // IDEAL ignores ordering entirely: zero stall by definition.
        let mut ideal = Replayer::new(&cfg, &h, PersistModel::Ideal);
        for ev in &events {
            x86.step(ev);
            ideal.step(ev);
        }
        assert!(x86.stall_total_ns() > 0);
        assert!(x86.stall_total_ns() <= x86.makespan_ns());
        assert_eq!(ideal.stall_total_ns(), 0);
    }

    #[test]
    fn replay_traces_epochs_and_stalls() {
        use pmobs::trace::Phase;
        let events = synth_trace(20, 100);
        let cfg = TimingConfig::default();
        let h = HopsConfig::default();
        pmobs::trace::set_enabled(true);
        {
            let _ctx = pmobs::trace::context("test");
            let mut r = Replayer::new(&cfg, &h, PersistModel::HopsNvm);
            for ev in &events {
                r.step(ev);
            }
            // Dropping the replayer drops its per-thread sinks, which
            // submit their tracks.
        }
        pmobs::trace::set_enabled(false);
        let tracks = pmobs::trace::take_tracks();
        let track = tracks
            .iter()
            .find(|t| t.name == "test/hops[HOPS (NVM)]/0/t0")
            .expect("per-thread replay track submitted");
        let begins = track
            .events
            .iter()
            .filter(|e| e.phase == Phase::Begin)
            .count();
        let ends = track
            .events
            .iter()
            .filter(|e| e.phase == Phase::End)
            .count();
        assert_eq!(begins, ends, "balanced spans");
        for name in ["epoch", "ofence_stall", "dfence_stall", "pb_outstanding"] {
            assert!(
                track.events.iter().any(|e| e.name == name),
                "expected {name} events"
            );
        }
        let mut last = 0;
        for e in &track.events {
            assert!(e.at_ns >= last, "timestamps non-decreasing");
            last = e.at_ns;
        }
    }

    #[test]
    fn display_names_are_figure10_labels() {
        assert_eq!(format!("{}", PersistModel::X86Nvm), "x86-64 (NVM)");
        assert_eq!(format!("{}", PersistModel::Ideal), "IDEAL (NON-CC)");
    }
}
