//! Machine configuration.

use pmem::AddressMap;

/// Simulated core clock in Hz (4 GHz, 0.25 ns per cycle — the rate at
/// which [`Latency`] expresses Table 3's cycle counts as nanoseconds).
/// Everything on the `sim.*` clock domain, including the serving
/// engine's offered-load ↔ interarrival conversions, uses this rate.
pub const SIM_CLOCK_HZ: u64 = 4_000_000_000;

/// Nanoseconds per second on the simulated clock — the conversion
/// factor between request rates (req/s) and interarrival gaps (ns).
pub const SIM_NS_PER_SEC: u64 = 1_000_000_000;

/// Operation latencies in simulated nanoseconds.
///
/// The paper's gem5 system (Table 3) runs 4-core 2 GHz x86 with 40-cycle
/// DRAM and 160-cycle PM read/write latency; the trace machine is a
/// 4 GHz Skylake. We use a 4 GHz clock (0.25 ns/cycle) so Table 3's
/// numbers become DRAM 10 ns, PM 40 ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// An L1 cache hit (load or store).
    pub l1_hit_ns: u64,
    /// A DRAM access on an L1 miss.
    pub dram_ns: u64,
    /// A PM read on an L1 miss.
    pub pm_read_ns: u64,
    /// Writing one line to the PM device (the durability cost).
    pub pm_write_ns: u64,
    /// Base cost of an `sfence` with nothing outstanding.
    pub sfence_ns: u64,
    /// Issue cost of a `clwb`/`clflushopt` (the writeback itself is
    /// charged at the fence that awaits it).
    pub clwb_issue_ns: u64,
}

impl Latency {
    /// Latencies matching the paper's simulated system (Table 3) at
    /// 4 GHz.
    pub fn asplos17() -> Latency {
        Latency {
            l1_hit_ns: 1,
            dram_ns: 10,
            pm_read_ns: 40,
            pm_write_ns: 40,
            sfence_ns: 5,
            clwb_issue_ns: 2,
        }
    }

    /// What a fence that drains `lines` writebacks charges the clock:
    /// its base cost plus the pipelined drain ([`pipelined_ns`]).
    pub fn fence_ns(&self, lines: u64) -> u64 {
        self.sfence_ns + pipelined_ns(lines, self.pm_write_ns)
    }
}

/// Time to write `lines` lines back at `unit` ns a line: the first pays
/// the full latency, the rest pipeline across memory-controller banks
/// at a quarter each. The machine's fence drain, and the timing
/// replay's for every persistence model.
pub fn pipelined_ns(lines: u64, unit: u64) -> u64 {
    if lines == 0 {
        0
    } else {
        unit + (lines - 1) * unit / 4
    }
}

impl Default for Latency {
    fn default() -> Self {
        Latency::asplos17()
    }
}

/// Full configuration of a simulated [`crate::Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Physical address map (DRAM + PM ranges).
    pub map: AddressMap,
    /// Number of hardware threads (the paper simulates 4 cores × 1 HW
    /// thread).
    pub threads: u32,
    /// Per-thread L1 capacity in 64 B lines used for *dirty PM line*
    /// tracking. When exceeded, the least-recently-written dirty line is
    /// evicted and becomes durable — modeling cache-driven reordering.
    pub l1_dirty_lines: usize,
    /// Write-combining buffer entries per thread; non-temporal stores
    /// drain (become durable) when the buffer is full or at a fence.
    pub wcb_entries: usize,
    /// Per-thread capacity, in lines, of the clean-PM-line reference
    /// cache (models the private L1+L2 of Table 3 for deciding whether
    /// a PM load is memory traffic).
    pub l2_lines: usize,
    /// Operation latencies.
    pub lat: Latency,
}

impl MachineConfig {
    /// The paper's simulated system: 4 threads, Table 3 latencies,
    /// 512 dirty-trackable lines (32 KB of dirty PM data) per L1, and a
    /// 8-entry write-combining buffer, matching commodity x86.
    pub fn asplos17() -> MachineConfig {
        MachineConfig {
            map: AddressMap::asplos17(),
            threads: 4,
            l1_dirty_lines: 512,
            wcb_entries: 8,
            l2_lines: 32_768, // 2 MB private L2 (Table 3)
            lat: Latency::asplos17(),
        }
    }

    /// A tiny configuration for unit tests: frequent evictions and WCB
    /// drains so edge paths are exercised.
    pub fn tiny_for_tests() -> MachineConfig {
        MachineConfig {
            map: AddressMap::asplos17(),
            threads: 4,
            l1_dirty_lines: 4,
            wcb_entries: 2,
            l2_lines: 8,
            lat: Latency::asplos17(),
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::asplos17()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asplos17_matches_table3_at_4ghz() {
        let l = Latency::asplos17();
        // 40 cycles @ 4 GHz = 10 ns; 160 cycles = 40 ns.
        assert_eq!(l.dram_ns, 10);
        assert_eq!(l.pm_read_ns, 40);
        assert_eq!(l.pm_write_ns, 40);
        let c = MachineConfig::asplos17();
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn default_is_asplos17() {
        assert_eq!(MachineConfig::default(), MachineConfig::asplos17());
    }
}
