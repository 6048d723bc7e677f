//! Counters, high-water gauges, and log-scaled histograms.
//!
//! Recording is a handful of relaxed atomic operations, so instruments
//! can sit on hot paths; aggregation happens only when a
//! [`Registry::snapshot`] is taken. Snapshots are plain data and
//! [merge](MetricsSnapshot::merge), so per-worker or per-process
//! metrics combine losslessly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (`2^0 ..= 2^63`).
pub const BUCKETS: usize = 65;

/// What a histogram's values measure, carried into snapshots and JSON
/// so consumers never have to guess units from metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts (entries, lines, events).
    Count,
    /// Nanoseconds. The *clock domain* is encoded in the metric name:
    /// `span.*` histograms are host wall-clock, `sim.*` histograms are
    /// the deterministic simulated clock (see the crate docs).
    Nanos,
    /// Bytes.
    Bytes,
}

impl Unit {
    /// Stable string form used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanos => "ns",
            Unit::Bytes => "bytes",
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge: keeps the maximum value ever observed.
#[derive(Debug, Default)]
pub struct MaxGauge {
    value: AtomicU64,
}

impl MaxGauge {
    /// A gauge at zero.
    pub fn new() -> MaxGauge {
        MaxGauge::default()
    }

    /// Raise the high-water mark to at least `v`.
    pub fn observe(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The highest value observed so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket index for a recorded value: 0 for 0, otherwise
/// `floor(log2(v)) + 1`, so bucket `b >= 1` covers `[2^(b-1), 2^b)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[low, high]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1 << (i - 1), u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

/// A log2-scaled histogram: 65 buckets cover the whole `u64` range, so
/// recording never clamps and never allocates. Percentile estimates
/// interpolate by rank within a bucket, so their error is bounded by
/// the occupied width of the bucket the rank lands in.
#[derive(Debug)]
pub struct Histogram {
    unit: Unit,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// An empty histogram measuring `unit`.
    pub fn new(unit: Unit) -> Histogram {
        Histogram {
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The histogram's unit.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all accumulators.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            unit: self.unit,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`Histogram`], suitable for merging and
/// serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Unit of the recorded values.
    pub unit: Unit,
    /// Number of values recorded.
    pub count: u64,
    /// Sum of all values (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest recorded value, if any.
    pub min: Option<u64>,
    /// Largest recorded value, if any.
    pub max: Option<u64>,
    /// Per-bucket counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean, if anything was recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `p`-th percentile (`0.0..=100.0`): linear
    /// interpolation by rank *within* the bucket containing the target
    /// rank, with the bucket's value range clamped to the observed
    /// `[min, max]` — exact for distributions within one bucket, at
    /// worst off by the occupied width of one bucket otherwise. `p100`
    /// is the observed maximum exactly.
    ///
    /// The old estimator returned the bucket's upper bound, which
    /// inflated tail percentiles (p99/p999) by up to 2x bucket width:
    /// a p99 landing in `[2^k, 2^(k+1))` always reported `2^(k+1)-1`
    /// no matter where the rank actually fell.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Clamp the bucket's nominal range to what was actually
                // observed: the extreme buckets can only hold values
                // between the recorded min and max.
                let (blo, bhi) = bucket_bounds(i);
                let lo = blo.max(self.min.unwrap_or(blo));
                let hi = bhi.min(self.max.unwrap_or(bhi));
                if hi <= lo {
                    return Some(lo);
                }
                // rank_in ∈ 1..=c positions the estimate linearly
                // across the occupied range (rank_in == c ⇒ hi).
                let rank_in = rank - seen;
                let est = lo as f64 + (hi - lo) as f64 * (rank_in as f64 / c as f64);
                return Some(est.round() as u64);
            }
            seen += c;
        }
        self.max
    }

    /// Fold another snapshot into this one.
    ///
    /// # Panics
    ///
    /// Panics if the units disagree — merging nanoseconds into bytes is
    /// always a caller bug.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.unit, other.unit,
            "cannot merge histograms with different units"
        );
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold another snapshot into this one: counters and histogram
    /// buckets add, gauges take the maximum.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// True when nothing has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<MaxGauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of instruments.
///
/// Lookup takes a mutex, so callers on hot paths should resolve an
/// instrument once and keep the `Arc` (the [`count!`](crate::count),
/// [`observe!`](crate::observe), and [`high_water!`](crate::high_water)
/// macros cache the lookup in a `OnceLock`). Recording through the
/// returned handles is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.lock().unwrap();
        g.counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The high-water gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<MaxGauge> {
        let mut g = self.inner.lock().unwrap();
        g.gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(MaxGauge::new()))
            .clone()
    }

    /// The histogram named `name`, created with `unit` on first use.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with a different unit.
    pub fn histogram(&self, name: &str, unit: Unit) -> Arc<Histogram> {
        let mut g = self.inner.lock().unwrap();
        let h = g
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(unit)))
            .clone();
        assert_eq!(
            h.unit(),
            unit,
            "histogram {name:?} re-registered with a different unit"
        );
        h
    }

    /// Copy every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(9);
        g.observe(7);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's bounds round-trip through bucket_index.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_accumulators() {
        let h = Histogram::new(Unit::Nanos);
        for v in [0, 1, 5, 1000, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2006);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1000));
        assert_eq!(s.mean(), Some(2006.0 / 5.0));
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[3], 1); // 5
        assert_eq!(s.buckets[10], 2); // 1000 in [512, 1023]
    }

    #[test]
    fn percentiles_exact_within_a_bucket() {
        let h = Histogram::new(Unit::Count);
        // 100 values, all exactly 1000: every percentile is 1000.
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Some(1000), "p{p}");
        }
    }

    #[test]
    fn percentiles_bounded_by_bucket_width() {
        let h = Histogram::new(Unit::Count);
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p10's rank is 10 → bucket [8,15], rank 3 of 8 within it →
        // interpolates to 11 (true value 10; the old upper-bound
        // estimator reported 15).
        assert_eq!(s.percentile(10.0), Some(11));
        // Uniform data lands interpolation on the true rank values.
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(99));
        // The top percentile is the observed max exactly.
        assert_eq!(s.percentile(100.0), Some(100));
        // Empty histograms have no percentiles.
        assert_eq!(
            Histogram::new(Unit::Count).snapshot().percentile(50.0),
            None
        );
    }

    #[test]
    fn tail_percentiles_not_inflated_by_bucket_upper_bound() {
        // 1000 uniform latencies 1..=1000 ns: the p99/p999 ranks land
        // mid-bucket in [512, 1023]. The old upper-bound estimator
        // reported the bucket bound (1000 after the max clamp) for
        // every rank in the bucket; rank interpolation recovers the
        // true order statistics almost exactly.
        let h = Histogram::new(Unit::Nanos);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(99.0), Some(990));
        // p99.9's rank rounds up to the top rank at this count, which
        // reports the observed max — never past it.
        assert_eq!(s.percentile(99.9), Some(1000));
        assert_eq!(s.percentile(100.0), Some(1000));
        // Merged snapshots estimate identically to a single histogram
        // fed the union of values.
        let a = Histogram::new(Unit::Nanos);
        let b = Histogram::new(Unit::Nanos);
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.percentile(p), s.percentile(p), "p{p}");
        }
    }

    #[test]
    fn snapshot_merge_is_lossless() {
        let a = Histogram::new(Unit::Nanos);
        let b = Histogram::new(Unit::Nanos);
        let whole = Histogram::new(Unit::Nanos);
        for v in 0..50 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..70 {
            b.record(v * 17 + 1);
            whole.record(v * 17 + 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    #[should_panic(expected = "different units")]
    fn merge_rejects_unit_mismatch() {
        let mut a = Histogram::new(Unit::Nanos).snapshot();
        a.merge(&Histogram::new(Unit::Bytes).snapshot());
    }

    #[test]
    fn registry_returns_same_instrument() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
        r.gauge("g").observe(7);
        r.histogram("h", Unit::Bytes).record(42);
        let s = r.snapshot();
        assert_eq!(s.counters["x"], 5);
        assert_eq!(s.gauges["g"], 7);
        assert_eq!(s.histograms["h"].count, 1);
    }

    #[test]
    fn metrics_snapshot_merge() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("shared").add(2);
        r2.counter("shared").add(5);
        r2.counter("only2").add(1);
        r1.gauge("hw").observe(10);
        r2.gauge("hw").observe(4);
        r1.histogram("h", Unit::Nanos).record(1);
        r2.histogram("h", Unit::Nanos).record(100);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot());
        assert_eq!(s.counters["shared"], 7);
        assert_eq!(s.counters["only2"], 1);
        assert_eq!(s.gauges["hw"], 10);
        assert_eq!(s.histograms["h"].count, 2);
        assert_eq!(s.histograms["h"].min, Some(1));
        assert_eq!(s.histograms["h"].max, Some(100));
    }
}
