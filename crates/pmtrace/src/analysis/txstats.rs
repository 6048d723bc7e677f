//! Epochs per durable transaction (Figure 3).

use super::Epoch;
use crate::event::{Tid, TxId};
use pmem::FxHashMap;

/// Distribution of transaction sizes, where "the size of a transaction
/// is the number of epochs or ordering points in the transaction"
/// (Figure 3 caption).
#[derive(Debug, Clone, Default)]
pub struct TxStats {
    /// Epoch count for every observed transaction.
    pub epochs_per_tx: Vec<u64>,
}

impl TxStats {
    /// Number of transactions observed.
    pub fn tx_count(&self) -> usize {
        self.epochs_per_tx.len()
    }

    /// Median transaction size (the statistic Figure 3 plots).
    /// `None` when no transactions were observed.
    pub fn median(&self) -> Option<u64> {
        if self.epochs_per_tx.is_empty() {
            return None;
        }
        let mut v = self.epochs_per_tx.clone();
        v.sort_unstable();
        Some(v[v.len() / 2])
    }

    /// Largest transaction observed.
    pub fn max(&self) -> Option<u64> {
        self.epochs_per_tx.iter().copied().max()
    }

    /// Mean transaction size.
    pub fn mean(&self) -> Option<f64> {
        if self.epochs_per_tx.is_empty() {
            return None;
        }
        let sum: u64 = self.epochs_per_tx.iter().sum();
        Some(sum as f64 / self.epochs_per_tx.len() as f64)
    }
}

/// Figure 3's accumulator: feed epochs one at a time, then
/// [`finish`](TxStatsBuilder::finish).
#[derive(Debug, Default)]
pub struct TxStatsBuilder {
    per_tx: FxHashMap<(Tid, TxId), u64>,
}

impl TxStatsBuilder {
    /// Account one epoch. Epochs outside any transaction are ignored,
    /// as in the paper's transaction-size figure.
    pub fn push(&mut self, e: &Epoch) {
        if let Some(tx) = e.tx {
            *self.per_tx.entry((e.tid, tx)).or_insert(0) += 1;
        }
    }

    /// Produce the distribution, ordered by (thread, transaction id) so
    /// the result is independent of hash-map iteration order.
    pub fn finish(self) -> TxStats {
        let mut keys: Vec<_> = self.per_tx.into_iter().collect();
        keys.sort_unstable_by_key(|((tid, tx), _)| (*tid, *tx));
        TxStats {
            epochs_per_tx: keys.into_iter().map(|(_, n)| n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::{Category, TraceBuffer};

    #[test]
    fn counts_epochs_inside_tx() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.tx_begin(tid, 1, 0);
        for i in 0..3u64 {
            t.pm_store(tid, i * 64, 8, false, Category::UserData, 1 + i * 2);
            t.fence(tid, 2 + i * 2);
        }
        t.tx_end(tid, 1, 10);
        // An epoch outside any transaction:
        t.pm_store(tid, 640, 8, false, Category::UserData, 11);
        t.fence(tid, 12);
        let stats = Analyzer::analyze_events(t.events()).tx_stats;
        assert_eq!(stats.tx_count(), 1);
        assert_eq!(stats.epochs_per_tx, vec![3]);
        assert_eq!(stats.median(), Some(3));
        assert_eq!(stats.max(), Some(3));
    }

    #[test]
    fn median_of_even_and_odd() {
        let s = TxStats {
            epochs_per_tx: vec![1, 5, 3],
        };
        assert_eq!(s.median(), Some(3));
        let s = TxStats {
            epochs_per_tx: vec![1, 2, 3, 10],
        };
        assert_eq!(s.median(), Some(3)); // upper median
    }

    #[test]
    fn empty_stats() {
        let s = TxStats::default();
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn separate_threads_separate_tx() {
        let mut t = TraceBuffer::new();
        for tid in [Tid(0), Tid(1)] {
            t.tx_begin(tid, 7, 0);
            t.pm_store(
                tid,
                64 * (tid.0 as u64 + 1) * 100,
                8,
                false,
                Category::UserData,
                1,
            );
            t.fence(tid, 2);
            t.tx_end(tid, 7, 3);
        }
        let stats = Analyzer::analyze_events(t.events()).tx_stats;
        assert_eq!(stats.tx_count(), 2);
        assert_eq!(stats.mean(), Some(1.0));
    }
}
