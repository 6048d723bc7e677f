//! Open-loop serving engine: saturation curves with latency SLOs.
//!
//! WHISPER's Figure 10 compares persistence mechanisms by *closed-loop*
//! relative runtime — each bar is "how long did the same work take".
//! Serving systems do not work that way: requests arrive whether or not
//! the server is ready (open loop), so the quantity of interest is the
//! tail of the latency distribution as offered load approaches the
//! saturation knee. This module turns the suite's recorded traces into
//! exactly that experiment:
//!
//! 1. **Calibrate.** The application is set up once (its seed-free
//!    build-and-load, see [`crate::apps`]) at the run's worker count,
//!    and each of `shards` simulated machines drives it once with its
//!    own seed — shards `0..n−1` drive copy-on-write forks of the
//!    setup, the last shard drives the setup itself. Each trace is
//!    segmented into per-request service times. Request boundaries
//!    fall on epoch-closing events (`Fence`/`DFence`) — a request is
//!    not done until its final ordering point retires — and the segment
//!    is priced under each persistence mechanism with the incremental
//!    [`hops::Replayer`], so one trace yields one service-time pool per
//!    mechanism per shard.
//! 2. **Sweep.** For each offered-load fraction of the measured
//!    baseline capacity, an arrival process (paced, or deterministic-
//!    Poisson derived from the run seed) generates request timestamps
//!    on the simulated clock; a zipfian key stream routes each request
//!    to `key % shards`; every shard is a FIFO single-server queue
//!    consuming its calibrated service times in order.
//! 3. **Measure.** Per-request latency (queueing wait + service, all on
//!    the `sim.*` clock domain — no host time anywhere) accumulates in
//!    [`pmobs::Histogram`]s; each sweep point reports achieved
//!    throughput and interpolated p50/p90/p99/p999.
//!
//! Everything is a pure function of
//! `(scale, seed, shards, arrival, worker_threads)`:
//! the arrival schedule and key stream are derived from the seed alone
//! (never from the shard count or worker parallelism), and apps fan out
//! across workers on the same pool as the suite runner, so the serve
//! section reproduces byte-for-byte whatever the `--parallel` setting —
//! the same property the crash campaign pins.

use crate::apps::{App, Setup};
use crate::pool::fan_out;
use crate::profile::{AppProfile, MechanismProfile, TailPoint};
use crate::suite::{scaled_ops, SuiteConfig, APP_NAMES};
use crate::workloads::Zipf;
use hops::{HopsConfig, PersistModel, Replayer, TimingConfig};
use pmem::hash::fnv1a;
use pmobs::{Histogram, Json, Unit};
use pmrand::{splitmix64, Rng, SeedableRng, SmallRng};
use pmtrace::{Event, EventKind};

/// The three mechanisms the saturation sweep compares: the `clwb`
/// baseline, HOPS, and the persistent-write-queue variant of x86.
pub const SERVE_MODELS: [PersistModel; 3] = [
    PersistModel::X86Nvm,
    PersistModel::HopsNvm,
    PersistModel::X86Pwq,
];

/// Offered load as fractions of the baseline mechanism's measured
/// capacity: three points below the knee, two past it.
pub const LOAD_FRACTIONS: [f64; 5] = [0.5, 0.75, 0.9, 1.05, 1.25];

/// Key-space size of the routing stream (YCSB-style zipfian).
pub const SERVE_KEYS: usize = 1024;

/// YCSB's default request skew.
pub const SERVE_THETA: f64 = 0.99;

/// Requests per sweep point, as a multiple of the app's effective op
/// count. Deliberately independent of the shard count so the arrival
/// schedule is too.
pub const REQUESTS_PER_OP: usize = 4;

/// Arrival process of the open-loop driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Fixed interarrival gap (a perfectly paced load generator).
    Paced,
    /// Exponential interarrival gaps — a Poisson process made
    /// deterministic by drawing from the run seed.
    Bursty,
}

impl std::fmt::Display for Arrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Arrival::Paced => "paced",
            Arrival::Bursty => "bursty",
        })
    }
}

impl std::str::FromStr for Arrival {
    type Err = String;
    fn from_str(s: &str) -> Result<Arrival, String> {
        match s {
            "paced" => Ok(Arrival::Paced),
            "bursty" => Ok(Arrival::Bursty),
            other => Err(format!(
                "unknown arrival process {other:?}; use paced|bursty"
            )),
        }
    }
}

/// Serving-sweep knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Same meaning as [`SuiteConfig::scale`]: multiplier on each
    /// app's base op count, which sets both calibration-trace length
    /// and requests per sweep point.
    pub scale: f64,
    /// Master seed: calibration runs, key stream, and arrival schedule
    /// all derive from it.
    pub seed: u64,
    /// Number of sharded machines serving each app (the paper's
    /// four-thread machine, times this).
    pub shards: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Worker threads apps fan out across. Never changes results.
    pub parallelism: usize,
    /// Scheduler workers inside the calibration runs — the workload
    /// knob [`SuiteConfig::worker_threads`], which `--threads` sets.
    pub worker_threads: u32,
}

impl ServeConfig {
    /// Quick-scale sweep matching [`SuiteConfig::quick`].
    pub fn quick() -> ServeConfig {
        ServeConfig::from_suite(&SuiteConfig::quick())
    }

    /// Adopt scale/seed/parallelism/worker threads from a suite
    /// configuration, with the default four shards and bursty arrivals.
    pub fn from_suite(cfg: &SuiteConfig) -> ServeConfig {
        ServeConfig {
            scale: cfg.scale,
            seed: cfg.seed,
            shards: 4,
            arrival: Arrival::Bursty,
            parallelism: cfg.parallelism,
            worker_threads: cfg.worker_threads,
        }
    }
}

/// One sweep point: offered load and what the latency distribution did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Offered load (req/s on the simulated clock).
    pub offered_rps: f64,
    /// Achieved throughput: requests over the last completion time.
    pub achieved_rps: f64,
    /// Requests simulated at this point.
    pub requests: u64,
    /// Interpolated latency percentiles (simulated ns).
    pub p50_ns: u64,
    /// 90th.
    pub p90_ns: u64,
    /// 99th.
    pub p99_ns: u64,
    /// 99.9th.
    pub p999_ns: u64,
    /// Mean queueing wait (ns) — how much of the latency is the queue.
    pub mean_wait_ns: f64,
}

/// The saturation curve of one mechanism for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismCurve {
    /// The persistence mechanism priced into the service times.
    pub model: PersistModel,
    /// Mean per-request service time across all shards (ns).
    pub mean_service_ns: f64,
    /// This mechanism's own aggregate capacity (req/s): `shards`
    /// servers each retiring `1/mean_service` per ns.
    pub capacity_rps: f64,
    /// One entry per [`LOAD_FRACTIONS`] element.
    pub points: Vec<ServePoint>,
}

/// Serving results for one Table 1 application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppServe {
    /// Table 1 name.
    pub name: String,
    /// Shard count the sweep ran with.
    pub shards: usize,
    /// Requests per sweep point.
    pub requests: usize,
    /// Offered load shared by every curve's i-th point (req/s) —
    /// [`LOAD_FRACTIONS`] times the baseline capacity, so mechanisms
    /// are compared at identical x-coordinates.
    pub offered_rps: Vec<f64>,
    /// One curve per [`SERVE_MODELS`] entry, in that order.
    pub curves: Vec<MechanismCurve>,
}

/// The deterministic arrival schedule: `n` request timestamps (ns on
/// the simulated clock) at offered rate `rate_rps`.
///
/// The schedule is a function of `(seed, n, rate_rps, arrival)` only —
/// in particular it does not depend on the shard count or worker
/// parallelism, which is what makes the serve section reproducible
/// across both.
pub fn arrival_schedule(seed: u64, n: usize, rate_rps: f64, arrival: Arrival) -> Vec<u64> {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    let mean_gap = 1e9 / rate_rps;
    match arrival {
        Arrival::Paced => (1..=n)
            .map(|i| (i as f64 * mean_gap).round() as u64)
            .collect(),
        Arrival::Bursty => {
            let mut rng = SmallRng::seed_from_u64(splitmix64(&mut (seed ^ 0xa55a)));
            let mut t = 0.0f64;
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen();
                    // Inverse-CDF exponential draw; (1-u) keeps ln's
                    // argument in (0, 1].
                    t += -(1.0 - u).ln() * mean_gap;
                    t.round() as u64
                })
                .collect()
        }
    }
}

/// The deterministic zipfian key stream routing requests to shards.
/// Like the arrival schedule, a function of `(seed, n)` alone.
pub fn key_stream(seed: u64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(SERVE_KEYS, SERVE_THETA);
    let mut rng = SmallRng::seed_from_u64(splitmix64(&mut (seed ^ 0x5aa5)));
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// Segment a calibration trace into `n` per-request slices whose
/// boundaries fall just after an epoch-closing event (`Fence` or
/// `DFence`) — a request counts as served once its last ordering point
/// has retired. Returns `n` end-exclusive event indices, the last of
/// which is `events.len()`.
pub fn request_bounds(events: &[Event], n: usize) -> Vec<usize> {
    assert!(n > 0, "need at least one request");
    let len = events.len();
    let mut bounds = Vec::with_capacity(n);
    let mut prev = 0usize;
    for i in 1..=n {
        let mark = (len * i).div_ceil(n);
        let mut b = mark.max(prev);
        // Snap forward so the segment ends right after a fence.
        while b < len && !matches!(events[b - 1].kind, EventKind::Fence | EventKind::DFence) {
            b += 1;
        }
        if i == n {
            b = len;
        }
        bounds.push(b);
        prev = b;
    }
    bounds
}

/// Price a calibration trace's request segments under `model`, as
/// `(service, stall)` pairs. The service time is the growth of the
/// replay makespan across the segment (floored at 1 ns so a queue can
/// never serve in zero time); the stall is its ordering-stall share,
/// the growth of the replayer's
/// [`stall_total_ns`](Replayer::stall_total_ns) across the segment,
/// clamped to the service time (the stall sum is over threads while the
/// makespan is a max, so an unclamped delta could exceed the segment on
/// multi-threaded traces).
pub fn service_times_with_stalls(
    events: &[Event],
    bounds: &[usize],
    model: PersistModel,
) -> Vec<(u64, u64)> {
    let cfg = TimingConfig::default();
    let hops_cfg = HopsConfig::default();
    let mut rp = Replayer::new(&cfg, &hops_cfg, model);
    let mut services = Vec::with_capacity(bounds.len());
    let mut prev = 0u64;
    let mut prev_stall = 0u64;
    let mut idx = 0usize;
    for &b in bounds {
        while idx < b {
            rp.step(&events[idx]);
            idx += 1;
        }
        let now = rp.makespan_ns();
        let stall_now = rp.stall_total_ns();
        // The replayer's makespan is monotone in replayed events, so a
        // segment can be empty (0 ns, floored to 1 below) but never
        // negative. Going backwards means a replayer clock bug —
        // assert in debug builds, and surface it as a counter in
        // release runs instead of silently reporting a 1 ns segment.
        debug_assert!(
            now >= prev,
            "replayer makespan went backwards: {now} < {prev} at bound {b}"
        );
        if now < prev {
            pmobs::count!("serve.nonmonotone_makespan");
        }
        let svc = now.saturating_sub(prev).max(1);
        let stall = stall_now.saturating_sub(prev_stall).min(svc);
        services.push((svc, stall));
        prev = now;
        prev_stall = stall_now;
    }
    services
}

/// One `(service, stall)` pool per [`SERVE_MODELS`] entry per shard:
/// `pools[model][shard]`.
type Pools = Vec<Vec<Vec<(u64, u64)>>>;

/// The seed shard `shard` of app stream `stream` drives its run with.
fn shard_seed(seed: u64, stream: u64, shard: usize) -> u64 {
    splitmix64(&mut (seed ^ stream ^ (shard as u64 + 1)))
}

/// Calibrate `app`: set it up once, drive one seeded run per shard —
/// forks for all shards but the last, which drives the setup itself —
/// and price each run's request segments under every mechanism.
/// Calibration runs are warm-up, not the experiment: their tracks are
/// suppressed.
fn calibrate(app: &App, ops: usize, cfg: &ServeConfig) -> Pools {
    let stream = fnv1a(app.name.as_bytes());
    let mut pools: Pools = vec![Vec::with_capacity(cfg.shards); SERVE_MODELS.len()];
    let _quiet = pmobs::trace::suppress();
    let mut price = |shard: usize, setup: Setup| {
        let run = setup.drive(shard_seed(cfg.seed, stream, shard), true);
        let bounds = request_bounds(&run.events, ops);
        for (mi, &model) in SERVE_MODELS.iter().enumerate() {
            pools[mi].push(service_times_with_stalls(&run.events, &bounds, model));
        }
    };
    let mut setup = (app.setup)(ops, cfg.worker_threads);
    for shard in 0..cfg.shards - 1 {
        price(shard, setup.fork());
    }
    price(cfg.shards - 1, setup);
    pools
}

/// Run the serving sweep for one application, with its phase profile
/// (see [`crate::profile`]).
///
/// Pure in `(name, scale, seed, shards, arrival, worker_threads)`;
/// `cfg.parallelism`
/// is never consulted here. The profile derives from the same per-request samples that feed the
/// latency histograms, so computing it never changes the [`AppServe`]
/// half. When tracing is active, the knee point (the last
/// [`LOAD_FRACTIONS`] entry) of every mechanism also emits one request
/// track per shard plus one shared arrivals track — after the
/// simulation loop, from the recorded samples, so tracing cannot
/// perturb the queues either.
pub fn serve_app_full(name: &str, cfg: &ServeConfig) -> (AppServe, AppProfile) {
    assert!(cfg.shards > 0, "need at least one shard");
    let app = crate::apps::named(name);
    let ops = scaled_ops(cfg.scale, app.base_ops);
    let pools = calibrate(app, ops, cfg);
    // FNV-1a over the app name: a stable per-app stream discriminator.
    let stream = fnv1a(name.as_bytes());

    let mean_service = |pool: &[Vec<(u64, u64)>]| {
        let (sum, count) = pool.iter().fold((0u64, 0u64), |(s, c), v| {
            (
                s + v.iter().map(|&(svc, _)| svc).sum::<u64>(),
                c + v.len() as u64,
            )
        });
        sum as f64 / count.max(1) as f64
    };
    let capacity = |mean_ns: f64| cfg.shards as f64 * 1e9 / mean_ns;

    // Offered loads are fractions of the *baseline* capacity so every
    // mechanism's curve shares x-coordinates; a faster mechanism then
    // visibly survives loads that saturate the baseline.
    let base_capacity = capacity(mean_service(&pools[0]));
    let offered: Vec<f64> = LOAD_FRACTIONS.iter().map(|f| f * base_capacity).collect();

    let n_req = ops * REQUESTS_PER_OP;
    let keys = key_stream(cfg.seed ^ stream, n_req);
    let knee = LOAD_FRACTIONS.len() - 1;

    let mut mechanisms: Vec<MechanismProfile> = Vec::with_capacity(SERVE_MODELS.len());
    let curves: Vec<MechanismCurve> = SERVE_MODELS
        .iter()
        .enumerate()
        .map(|(mi, &model)| {
            let mean_ns = mean_service(&pools[mi]);
            let mut queue_ns = 0u64;
            let mut replay_ns = 0u64;
            let mut fence_stall_ns = 0u64;
            let mut tail: Vec<TailPoint> = Vec::with_capacity(offered.len());
            let points: Vec<ServePoint> = offered
                .iter()
                .enumerate()
                .map(|(pi, &rate)| {
                    let arrivals = arrival_schedule(cfg.seed ^ stream, n_req, rate, cfg.arrival);
                    let (p, samples) = simulate_point(&arrivals, &keys, &pools[mi], rate);
                    for s in &samples {
                        queue_ns += s.start - s.at;
                        replay_ns += s.svc - s.stall;
                        fence_stall_ns += s.stall;
                    }
                    tail.push(tail_attribution(&p, LOAD_FRACTIONS[pi], &samples));
                    if pi == knee {
                        emit_knee_trace(name, model, mi == 0, &samples, cfg.shards);
                    }
                    if pmobs::enabled() {
                        pmobs::record_sim_ns(&format!("serve_p99_ns/{name}/{model}"), p.p99_ns);
                    }
                    p
                })
                .collect();
            mechanisms.push(MechanismProfile {
                model,
                queue_ns,
                replay_ns,
                fence_stall_ns,
                service_ns: replay_ns + fence_stall_ns,
                total_ns: queue_ns + replay_ns + fence_stall_ns,
                tail,
            });
            MechanismCurve {
                model,
                mean_service_ns: mean_ns,
                capacity_rps: capacity(mean_ns),
                points,
            }
        })
        .collect();

    (
        AppServe {
            name: name.to_string(),
            shards: cfg.shards,
            requests: n_req,
            offered_rps: offered,
            curves,
        },
        AppProfile {
            name: name.to_string(),
            mechanisms,
        },
    )
}

/// One simulated request, kept for profiling and knee tracing. The
/// latency histograms never read these, so collecting them cannot
/// change the serve section.
#[derive(Debug, Clone, Copy)]
struct RequestSample {
    shard: usize,
    key: usize,
    at: u64,
    start: u64,
    done: u64,
    svc: u64,
    stall: u64,
}

/// Restrict the phase sum to requests at or above the point's reported
/// p99. `latency = queue + replay + stall` holds per request, so the
/// three percentages sum to exactly 100.
fn tail_attribution(p: &ServePoint, load_fraction: f64, samples: &[RequestSample]) -> TailPoint {
    let mut n = 0u64;
    let mut total = 0u64;
    let mut queue = 0u64;
    let mut replay = 0u64;
    let mut stall = 0u64;
    for s in samples {
        let lat = s.done - s.at;
        if lat >= p.p99_ns {
            n += 1;
            total += lat;
            queue += s.start - s.at;
            replay += s.svc - s.stall;
            stall += s.stall;
        }
    }
    let pct = |x: u64| {
        if total == 0 {
            0.0
        } else {
            x as f64 * 100.0 / total as f64
        }
    };
    TailPoint {
        load_fraction,
        offered_rps: p.offered_rps,
        p99_ns: p.p99_ns,
        tail_requests: n,
        tail_total_ns: total,
        queue_pct: pct(queue),
        replay_pct: pct(replay),
        fence_stall_pct: pct(stall),
    }
}

/// Emit the knee point's request tracks from recorded samples: per
/// shard, a lane of `request` spans (value = queue wait) each nesting
/// its `fence_stall` share at the end of service; once per app, an
/// arrivals lane of instants (value = routing key). FIFO guarantees
/// per-shard starts are non-decreasing, so each lane is monotone and
/// its spans never overlap.
fn emit_knee_trace(
    name: &str,
    model: PersistModel,
    first_model: bool,
    samples: &[RequestSample],
    shards: usize,
) {
    if !pmobs::trace::active() {
        return;
    }
    if first_model {
        if let Some(mut lane) = pmobs::trace::sink_named(format!("serve/{name}/arrivals")) {
            for r in samples {
                lane.instant("arrival", r.at, r.key as u64);
            }
        }
    }
    for shard in 0..shards {
        let Some(mut lane) = pmobs::trace::sink_named(format!("serve/{name}/{model}/shard{shard}"))
        else {
            return;
        };
        for r in samples.iter().filter(|r| r.shard == shard) {
            lane.begin("request", r.start, r.start - r.at);
            if r.stall > 0 {
                lane.begin("fence_stall", r.done - r.stall, r.stall);
                lane.end(r.done);
            }
            lane.end(r.done);
        }
    }
}

/// Drive one offered-load point through the FIFO shard queues.
fn simulate_point(
    arrivals: &[u64],
    keys: &[usize],
    pool: &[Vec<(u64, u64)>],
    rate: f64,
) -> (ServePoint, Vec<RequestSample>) {
    let shards = pool.len();
    let mut free = vec![0u64; shards];
    let mut cursor = vec![0usize; shards];
    let latency = Histogram::new(Unit::Nanos);
    let wait = Histogram::new(Unit::Nanos);
    let mut last_done = 0u64;
    let mut samples = Vec::with_capacity(arrivals.len());
    for (i, (&at, &key)) in arrivals.iter().zip(keys).enumerate() {
        debug_assert!(i == 0 || arrivals[i - 1] <= at, "arrivals are sorted");
        let s = key % shards;
        let (svc, stall) = pool[s][cursor[s] % pool[s].len()];
        cursor[s] += 1;
        let start = at.max(free[s]);
        let done = start + svc;
        free[s] = done;
        latency.record(done - at);
        wait.record(start - at);
        last_done = last_done.max(done);
        samples.push(RequestSample {
            shard: s,
            key,
            at,
            start,
            done,
            svc,
            stall,
        });
    }
    let lat = latency.snapshot();
    let pct = |p: f64| lat.percentile(p).unwrap_or(0);
    let point = ServePoint {
        offered_rps: rate,
        achieved_rps: arrivals.len() as f64 * 1e9 / last_done.max(1) as f64,
        requests: lat.count,
        p50_ns: pct(50.0),
        p90_ns: pct(90.0),
        p99_ns: pct(99.0),
        p999_ns: pct(99.9),
        mean_wait_ns: wait.snapshot().mean().unwrap_or(0.0),
    };
    (point, samples)
}

/// Sweep every Table 1 application, fanned out across
/// `cfg.parallelism` workers on the suite runner's pool, keeping the
/// per-app phase profiles. Results are bit-identical whatever the
/// worker count: each [`serve_app_full`] is seeded and self-contained,
/// and rows come back in Table 1 order.
pub fn run_serve_profiled(cfg: &ServeConfig) -> (Vec<AppServe>, Vec<AppProfile>) {
    serve_apps_profiled(&APP_NAMES, cfg)
}

/// Sweep a chosen set of applications, in the given order.
pub fn serve_apps(names: &[&str], cfg: &ServeConfig) -> Vec<AppServe> {
    serve_apps_profiled(names, cfg).0
}

/// Sweep a chosen set of applications and keep their phase profiles.
pub fn serve_apps_profiled(names: &[&str], cfg: &ServeConfig) -> (Vec<AppServe>, Vec<AppProfile>) {
    fan_out(cfg.parallelism, names.len(), |i| {
        serve_app_full(names[i], cfg)
    })
    .into_iter()
    .unzip()
}

/// Serialize the sweep for the report's `serve` section (schema v4).
/// Everything here is on the simulated clock, so the section is
/// deterministic per `(scale, seed, shards, arrival)` — but it sits
/// outside the golden deterministic subset, like `crash`.
pub fn serve_json(reports: &[AppServe], cfg: &ServeConfig) -> Json {
    let apps: Vec<Json> = reports
        .iter()
        .map(|r| {
            let curves: Vec<Json> = r
                .curves
                .iter()
                .map(|c| {
                    let points: Vec<Json> = c
                        .points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("offered_rps", p.offered_rps)
                                .field("achieved_rps", p.achieved_rps)
                                .field("requests", p.requests)
                                .field("p50_ns", p.p50_ns)
                                .field("p90_ns", p.p90_ns)
                                .field("p99_ns", p.p99_ns)
                                .field("p999_ns", p.p999_ns)
                                .field("mean_wait_ns", p.mean_wait_ns)
                        })
                        .collect();
                    Json::obj()
                        .field("model", c.model.to_string().as_str())
                        .field("mean_service_ns", c.mean_service_ns)
                        .field("capacity_rps", c.capacity_rps)
                        .field("points", points)
                })
                .collect();
            Json::obj()
                .field("name", r.name.as_str())
                .field("shards", r.shards as u64)
                .field("requests", r.requests as u64)
                .field(
                    "offered_rps",
                    r.offered_rps
                        .iter()
                        .copied()
                        .map(Json::from)
                        .collect::<Vec<_>>(),
                )
                .field("curves", curves)
        })
        .collect();
    Json::obj()
        .field("shards", cfg.shards as u64)
        .field("arrival", cfg.arrival.to_string().as_str())
        .field(
            "load_fractions",
            LOAD_FRACTIONS
                .iter()
                .copied()
                .map(Json::from)
                .collect::<Vec<_>>(),
        )
        .field(
            "models",
            SERVE_MODELS
                .iter()
                .map(|m| Json::from(m.to_string()))
                .collect::<Vec<_>>(),
        )
        .field("apps", apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_named, run_named_threads};

    #[test]
    fn arrival_schedule_is_seeded_and_sorted() {
        for arrival in [Arrival::Paced, Arrival::Bursty] {
            let a = arrival_schedule(42, 500, 1e6, arrival);
            let b = arrival_schedule(42, 500, 1e6, arrival);
            assert_eq!(a, b, "{arrival}: same seed, same schedule");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{arrival}: sorted");
            let c = arrival_schedule(43, 500, 1e6, arrival);
            if arrival == Arrival::Bursty {
                assert_ne!(a, c, "different seed, different bursts");
            } else {
                assert_eq!(a, c, "paced ignores the seed");
            }
        }
    }

    #[test]
    fn bursty_mean_gap_matches_rate() {
        let n = 20_000;
        let sched = arrival_schedule(7, n, 1e6, Arrival::Bursty);
        // 1e6 req/s → 1000 ns mean gap → last arrival ≈ n × 1000.
        let mean_gap = *sched.last().unwrap() as f64 / n as f64;
        assert!(
            (mean_gap - 1000.0).abs() < 50.0,
            "mean gap {mean_gap} far from 1000"
        );
    }

    #[test]
    fn key_stream_is_skewed_and_shard_independent() {
        let keys = key_stream(42, 10_000);
        assert_eq!(keys, key_stream(42, 10_000));
        let hot = keys.iter().filter(|&&k| k == 0).count();
        let cold = keys.iter().filter(|&&k| k == SERVE_KEYS / 2).count();
        assert!(hot > cold * 5 + 5, "zipf head dominates: {hot} vs {cold}");
        assert!(keys.iter().all(|&k| k < SERVE_KEYS));
    }

    #[test]
    fn request_bounds_end_on_fences() {
        let run = run_named("hashmap", 40, 3);
        let bounds = request_bounds(&run.events, 40);
        assert_eq!(bounds.len(), 40);
        assert_eq!(*bounds.last().unwrap(), run.events.len());
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "monotone");
        for &b in &bounds[..bounds.len() - 1] {
            if b < run.events.len() && b > 0 {
                assert!(
                    matches!(run.events[b - 1].kind, EventKind::Fence | EventKind::DFence),
                    "segment must end just after an epoch boundary"
                );
            }
        }
    }

    #[test]
    fn service_times_sum_to_replay_makespan() {
        let run = run_named("ctree", 60, 5);
        let bounds = request_bounds(&run.events, 60);
        for model in SERVE_MODELS {
            let services = service_times_with_stalls(&run.events, &bounds, model);
            assert_eq!(services.len(), 60);
            assert!(services.iter().all(|&(svc, stall)| stall <= svc), "{model}");
            let total: u64 = services.iter().map(|&(svc, _)| svc).sum();
            let replayed = hops::replay(
                &run.events,
                &TimingConfig::default(),
                &HopsConfig::default(),
                model,
            )
            .runtime_ns;
            // Segments partition the trace; only the max(1) floor on
            // empty segments can push the sum past the makespan.
            assert!(total >= replayed, "{model}");
            assert!(total <= replayed + 60, "{model}: {total} vs {replayed}");
        }
    }

    #[test]
    fn makespan_is_monotone_and_empty_segments_floor_to_one() {
        // Duplicate bounds make genuinely empty segments: the makespan
        // must not move across them (they floor to the 1 ns minimum),
        // and a healthy replayer must never trip the
        // `serve.nonmonotone_makespan` counter — that counter exists to
        // surface replayer clock bugs that the release build would
        // otherwise hide behind `saturating_sub(..).max(1)`.
        let was = pmobs::enabled();
        pmobs::set_enabled(true);
        let run = run_named("ctree", 40, 9);
        let bounds = request_bounds(&run.events, 40);
        let mut doubled = Vec::with_capacity(bounds.len() * 2);
        for &b in &bounds {
            doubled.push(b);
            doubled.push(b); // empty segment
        }
        let services = service_times_with_stalls(&run.events, &doubled, PersistModel::X86Nvm);
        for pair in services.chunks(2) {
            assert_eq!(pair[1], (1, 0), "empty segment floors to 1 ns, no stall");
        }
        let snap = pmobs::global().snapshot();
        assert_eq!(
            snap.counters.get("serve.nonmonotone_makespan").copied(),
            None,
            "monotone replay must never count a backwards makespan"
        );
        pmobs::set_enabled(was);
    }

    #[test]
    fn calibration_prices_the_runs_at_the_configured_worker_count() {
        // `--threads 1` reaches serve: each shard prices exactly the
        // trace a one-worker run with its seed records.
        let cfg = ServeConfig {
            scale: 0.004,
            seed: 23,
            shards: 3,
            arrival: Arrival::Bursty,
            parallelism: 1,
            worker_threads: 1,
        };
        for name in ["redis", "memcached", "vacation"] {
            let app = crate::apps::named(name);
            let ops = scaled_ops(cfg.scale, app.base_ops);
            let stream = fnv1a(name.as_bytes());
            let mut want: Pools = vec![Vec::new(); SERVE_MODELS.len()];
            for shard in 0..cfg.shards {
                let seed = shard_seed(cfg.seed, stream, shard);
                let run = run_named_threads(name, ops, seed, 1);
                let bounds = request_bounds(&run.events, ops);
                for (mi, &model) in SERVE_MODELS.iter().enumerate() {
                    want[mi].push(service_times_with_stalls(&run.events, &bounds, model));
                }
            }
            assert_eq!(calibrate(app, ops, &cfg), want, "{name}");
            let four = ServeConfig {
                worker_threads: 4,
                ..cfg
            };
            assert_ne!(calibrate(app, ops, &four), want, "{name}: workers ignored");
        }
    }

    #[test]
    fn serve_app_emits_full_curves() {
        let cfg = ServeConfig {
            scale: 0.008,
            seed: 11,
            shards: 2,
            arrival: Arrival::Bursty,
            parallelism: 1,
            worker_threads: 4,
        };
        let (r, _) = serve_app_full("hashmap", &cfg);
        assert_eq!(r.curves.len(), SERVE_MODELS.len());
        assert_eq!(r.offered_rps.len(), LOAD_FRACTIONS.len());
        for c in &r.curves {
            assert_eq!(c.points.len(), LOAD_FRACTIONS.len());
            assert!(c.capacity_rps > 0.0);
            for p in &c.points {
                assert!(p.requests > 0);
                assert!(p.p50_ns > 0, "{}: vacuous histogram", c.model);
                assert!(p.p50_ns <= p.p90_ns && p.p90_ns <= p.p99_ns);
                assert!(p.p99_ns <= p.p999_ns);
            }
        }
        // HOPS removes foreground ordering stalls, so it serves faster.
        assert!(r.curves[1].capacity_rps > r.curves[0].capacity_rps);
    }

    #[test]
    fn tail_attribution_sums_to_hundred() {
        let cfg = ServeConfig {
            scale: 0.008,
            seed: 11,
            shards: 2,
            arrival: Arrival::Bursty,
            parallelism: 1,
            worker_threads: 4,
        };
        let (_, prof) = serve_app_full("hashmap", &cfg);
        assert_eq!(prof.mechanisms.len(), SERVE_MODELS.len());
        for m in &prof.mechanisms {
            assert_eq!(m.service_ns, m.replay_ns + m.fence_stall_ns);
            assert_eq!(m.total_ns, m.queue_ns + m.service_ns);
            assert_eq!(m.tail.len(), LOAD_FRACTIONS.len());
            for t in &m.tail {
                assert!(t.tail_requests > 0, "{}: p99 tail never empty", m.model);
                assert!(t.tail_total_ns > 0);
                let sum = t.queue_pct + t.replay_pct + t.fence_stall_pct;
                assert!(
                    (sum - 100.0).abs() < 1e-6,
                    "{}: phases sum to {sum}",
                    m.model
                );
            }
        }
        // The x86 baseline pays ordering in the foreground; HOPS hides
        // most of it — visible directly in the stall phase.
        assert!(prof.mechanisms[0].fence_stall_ns > prof.mechanisms[1].fence_stall_ns);
    }

    #[test]
    fn queueing_grows_past_the_knee() {
        let cfg = ServeConfig {
            scale: 0.01,
            seed: 42,
            shards: 2,
            arrival: Arrival::Bursty,
            parallelism: 1,
            worker_threads: 4,
        };
        let (r, _) = serve_app_full("ctree", &cfg);
        for c in &r.curves {
            let below = &c.points[0]; // 0.5 × baseline capacity
            let above = c.points.last().unwrap(); // 1.25 ×
            assert!(
                above.mean_wait_ns > below.mean_wait_ns,
                "{}: queueing must grow with offered load",
                c.model
            );
        }
        // The baseline is saturated at 1.25× its own capacity: the
        // tail there is dominated by queue build-up.
        let base = &r.curves[0];
        assert!(
            base.points.last().unwrap().p99_ns > base.points[0].p99_ns * 2,
            "saturated p99 should blow past the uncongested one"
        );
    }
}
