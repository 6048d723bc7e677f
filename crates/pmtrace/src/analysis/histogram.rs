//! Epoch-size distribution (Figure 4).

use super::Epoch;

/// Labels for the paper's Figure 4 buckets.
pub const SIZE_BUCKET_LABELS: [&str; 7] = ["1", "2", "3", "4", "5", "6-63", ">=64"];

/// Histogram of epoch sizes in unique 64 B cache lines, bucketed exactly
/// as Figure 4: 1, 2, 3, 4, 5, 6–63, ≥64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochSizeHistogram {
    /// Epoch counts per bucket, in [`SIZE_BUCKET_LABELS`] order.
    pub buckets: [u64; 7],
}

impl EpochSizeHistogram {
    /// Bucket index for an epoch of `lines` unique lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`; an epoch by definition stores something.
    pub fn bucket_for(lines: usize) -> usize {
        match lines {
            0 => panic!("an epoch has at least one line"),
            1 => 0,
            2 => 1,
            3 => 2,
            4 => 3,
            5 => 4,
            6..=63 => 5,
            _ => 6,
        }
    }

    /// Total epochs counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of epochs in bucket `i` (0.0 if the histogram is empty).
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.buckets[i] as f64 / total as f64
        }
    }

    /// Fraction of singleton epochs — the paper's headline "75% of
    /// epochs update exactly one 64B cache line".
    pub fn singleton_fraction(&self) -> f64 {
        self.fraction(0)
    }

    /// Account one epoch.
    pub fn push(&mut self, e: &Epoch) {
        self.buckets[EpochSizeHistogram::bucket_for(e.unique_lines())] += 1;
    }

    /// All bucket fractions, in label order.
    pub fn fractions(&self) -> [f64; 7] {
        let mut out = [0.0; 7];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.fraction(i);
        }
        out
    }
}

impl std::fmt::Display for EpochSizeHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (label, frac) in SIZE_BUCKET_LABELS.iter().zip(self.fractions()) {
            write!(f, "{label}:{:.1}% ", frac * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::{Category, Tid, TraceBuffer};

    #[test]
    fn bucket_boundaries() {
        assert_eq!(EpochSizeHistogram::bucket_for(1), 0);
        assert_eq!(EpochSizeHistogram::bucket_for(5), 4);
        assert_eq!(EpochSizeHistogram::bucket_for(6), 5);
        assert_eq!(EpochSizeHistogram::bucket_for(63), 5);
        assert_eq!(EpochSizeHistogram::bucket_for(64), 6);
        assert_eq!(EpochSizeHistogram::bucket_for(1000), 6);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        EpochSizeHistogram::bucket_for(0);
    }

    #[test]
    fn histogram_from_trace() {
        let mut t = TraceBuffer::new();
        // singleton
        t.pm_store(Tid(0), 0, 8, false, Category::UserData, 1);
        t.fence(Tid(0), 2);
        // 64-line epoch: a PMFS-style 4 KB block write
        t.pm_store(Tid(0), 4096, 4096, true, Category::UserData, 3);
        t.fence(Tid(0), 4);
        let h = Analyzer::analyze_events(t.events()).size_hist;
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[6], 1);
        assert_eq!(h.total(), 2);
        assert!((h.singleton_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let h = EpochSizeHistogram {
            buckets: [3, 1, 0, 0, 0, 2, 4],
        };
        let s: f64 = h.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_fractions_zero() {
        let h = EpochSizeHistogram::default();
        assert_eq!(h.singleton_fraction(), 0.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", EpochSizeHistogram::default()).is_empty());
    }
}
