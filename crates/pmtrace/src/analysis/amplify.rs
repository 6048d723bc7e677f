//! Write amplification by category (Section 5.2).
//!
//! "We define write amplification as the number of additional bytes
//! written to PM for every byte of user data stored in PM during a
//! transaction. The additional bytes are incurred by recovery mechanisms
//! such as undo and redo logs and the memory allocator."

use super::Epoch;
use crate::event::Category;

/// Byte totals per write category, plus the derived amplification
/// factor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AmplificationReport {
    /// Bytes per category, indexed as [`Category::ALL`].
    pub bytes_by_cat: [u64; Category::ALL.len()],
}

impl AmplificationReport {
    /// Account one epoch.
    pub fn push(&mut self, e: &Epoch) {
        for (slot, add) in self.bytes_by_cat.iter_mut().zip(e.bytes_by_cat) {
            *slot += add;
        }
    }

    /// Bytes recorded for one category.
    pub fn bytes(&self, cat: Category) -> u64 {
        self.bytes_by_cat[cat.index()]
    }

    /// Total PM bytes written.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_cat.iter().sum()
    }

    /// Bytes of user data.
    pub fn user_bytes(&self) -> u64 {
        self.bytes(Category::UserData)
    }

    /// Overhead bytes (everything that is not user data).
    pub fn overhead_bytes(&self) -> u64 {
        self.total_bytes() - self.user_bytes()
    }

    /// Additional bytes per user byte — the paper's write amplification.
    /// PMFS ≈ 0.1 ("for every 4096 bytes ... roughly 400 additional
    /// bytes"), Mnemosyne 3–6, NVML ≈ 10, N-store 2–14.
    ///
    /// Returns `None` when no user data was written (amplification is
    /// undefined).
    pub fn amplification(&self) -> Option<f64> {
        let user = self.user_bytes();
        if user == 0 {
            None
        } else {
            Some(self.overhead_bytes() as f64 / user as f64)
        }
    }
}

impl std::fmt::Display for AmplificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for cat in Category::ALL {
            let b = self.bytes(cat);
            if b > 0 {
                write!(f, "{cat}:{b}B ")?;
            }
        }
        match self.amplification() {
            Some(a) => write!(f, "amplification:{:.0}%", a * 100.0),
            None => write!(f, "amplification:n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::{Tid, TraceBuffer};

    #[test]
    fn pmfs_like_ten_percent() {
        // 4096 B of user data + ~400 B of metadata/journal.
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 4096, 4096, true, Category::UserData, 1);
        t.fence(tid, 2);
        t.pm_store(tid, 0, 400, false, Category::FsMeta, 3);
        t.fence(tid, 4);
        let r = Analyzer::analyze_events(t.events()).amplification;
        let a = r.amplification().unwrap();
        assert!((a - 400.0 / 4096.0).abs() < 1e-9);
    }

    #[test]
    fn nvml_like_1000_percent() {
        let mut t = TraceBuffer::new();
        let tid = Tid(0);
        t.pm_store(tid, 0, 10, false, Category::UserData, 1);
        t.pm_store(tid, 64, 60, false, Category::UndoLog, 2);
        t.pm_store(tid, 128, 40, false, Category::AllocMeta, 3);
        t.fence(tid, 4);
        let r = Analyzer::analyze_events(t.events()).amplification;
        assert_eq!(r.user_bytes(), 10);
        assert_eq!(r.overhead_bytes(), 100);
        assert!((r.amplification().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_user_data_is_undefined() {
        let mut t = TraceBuffer::new();
        t.pm_store(Tid(0), 0, 8, false, Category::LogMeta, 1);
        t.fence(Tid(0), 2);
        let r = Analyzer::analyze_events(t.events()).amplification;
        assert_eq!(r.amplification(), None);
        assert_eq!(r.total_bytes(), 8);
    }

    #[test]
    fn display_nonempty() {
        let r = AmplificationReport::default();
        assert!(!format!("{r}").is_empty());
    }
}
