//! HOPS configuration.

/// Persist-buffer sizing, from the paper's evaluation: "We evaluate
/// HOPS with 32 entry PBs per thread" (Section 6.4). The paper also
/// launches flushing at 16 buffered entries; the replay drains in the
/// background of volatile time instead, so it has no threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopsConfig {
    /// Persist-buffer entries per hardware thread.
    pub pb_entries: usize,
    /// Coalesce same-line stores within one epoch into a single PB
    /// entry. The paper's PB Back Ends "allow optimizations such as
    /// epoch coalescing, which we leave for future work" (Section 6.3);
    /// implemented here as that future work. Off by default to match
    /// the evaluated configuration.
    pub coalesce: bool,
}

impl Default for HopsConfig {
    fn default() -> Self {
        HopsConfig {
            pb_entries: 32,
            coalesce: false,
        }
    }
}

/// Latency parameters for the Figure 10 timing replay: the replay's own
/// prices for the persistence path. (What the recording machine charged
/// — subtracted from trace gaps to recover volatile time — is read from
/// [`memsim::Latency`].) The replay prices the full cost of making a line
/// durable through the cache hierarchy and controller (hundreds of ns
/// on NVM-class media), which is what puts the paper's 15–40 %
/// persistence overheads on the x86 critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// L1 hit (volatile access, and the store cost in every model).
    pub l1_hit_ns: u64,
    /// End-to-end cost of persisting one line to the NVM device.
    pub pm_write_ns: u64,
    /// ACK latency when a persistent write queue at the memory
    /// controller is the durability point ("data becomes durable ...
    /// when it reaches the MC").
    pub pwq_ack_ns: u64,
    /// Memory controllers available for concurrent line writebacks.
    pub mem_controllers: u64,
    /// `clwb`/`clflushopt` issue cost (x86 models only; HOPS needs no
    /// flush instructions).
    pub clwb_issue_ns: u64,
    /// `sfence` base cost (x86 models).
    pub sfence_ns: u64,
    /// `ofence` cost: "simply increments the thread TS register ...
    /// a low latency operation".
    pub ofence_ns: u64,
    /// Per-line cost of tracking a store in the persist buffer and
    /// sharing writeback bandwidth with demand traffic — the PB Back
    /// Ends sit on the path to the memory controllers, so their flushes
    /// contend with ordinary traffic regardless of where durability
    /// lands (which is why the PWQ buys HOPS so little).
    pub pb_contention_ns: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            l1_hit_ns: 1,
            pm_write_ns: 300,
            pwq_ack_ns: 190,
            mem_controllers: 2,
            clwb_issue_ns: 10,
            sfence_ns: 30,
            ofence_ns: 8,
            pb_contention_ns: 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let h = HopsConfig::default();
        assert_eq!(h.pb_entries, 32);
        let t = TimingConfig::default();
        assert!(t.pm_write_ns > t.pwq_ack_ns);
        assert_eq!(t.mem_controllers, 2);
        assert!(t.ofence_ns < t.sfence_ns);
    }
}
