//! The epoch-writing idiom used by all WHISPER access layers.

use crate::machine::Machine;
use pmem::{lines_spanning, Addr, Line};
use pmtrace::{Category, Tid};

/// Tracks the cache lines written since the last ordering point and
/// turns them into a correct `clwb…; sfence` sequence.
///
/// This encapsulates the "assembly-language style of programming" the
/// paper describes for native persistence (Section 2): after a group of
/// PM stores, *every* line they touched must be flushed individually
/// before the fence — and "if an object spans multiple cache lines, the
/// programmer must flush each individual cache line". `PmWriter` is the
/// programmer who never forgets one.
///
/// Non-temporal writes need no flush (they bypass the cache) but still
/// require the fence to drain the write-combining buffer.
///
/// # Example
///
/// ```
/// use memsim::{Machine, MachineConfig, PmWriter};
/// use pmtrace::{Category, Tid};
///
/// let mut m = Machine::new(MachineConfig::asplos17());
/// let mut w = PmWriter::new(Tid(0));
/// let a = m.config().map.pm.base;
/// w.write(&mut m, a, &[1u8; 100], Category::UserData); // 2+ lines
/// w.ordering_fence(&mut m); // clwb per line + sfence
/// assert!(m.is_durable(a, 100));
/// ```
#[derive(Debug, Clone)]
pub struct PmWriter {
    tid: Tid,
    /// Lines written since the last fence: sorted ascending, unique.
    /// Cleared, not dropped, at each fence, so an epoch allocates
    /// nothing in steady state.
    to_flush: Vec<Line>,
}

impl PmWriter {
    /// A writer for thread `tid` with no pending lines.
    pub fn new(tid: Tid) -> PmWriter {
        PmWriter {
            tid,
            to_flush: Vec::new(),
        }
    }

    /// The thread this writer issues on.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Cacheable PM store; the touched lines are remembered for the
    /// next fence.
    pub fn write(&mut self, m: &mut Machine, addr: Addr, bytes: &[u8], cat: Category) {
        m.store(self.tid, addr, bytes, cat);
        for (line, _, _) in lines_spanning(addr, bytes.len()) {
            if let Err(at) = self.to_flush.binary_search(&line) {
                self.to_flush.insert(at, line);
            }
        }
    }

    /// Cacheable little-endian `u64` store.
    pub fn write_u64(&mut self, m: &mut Machine, addr: Addr, val: u64, cat: Category) {
        self.write(m, addr, &val.to_le_bytes(), cat);
    }

    /// Cacheable little-endian `u32` store.
    pub fn write_u32(&mut self, m: &mut Machine, addr: Addr, val: u32, cat: Category) {
        self.write(m, addr, &val.to_le_bytes(), cat);
    }

    /// Non-temporal PM store (no flush needed; drained by the fence).
    pub fn write_nt(&mut self, m: &mut Machine, addr: Addr, bytes: &[u8], cat: Category) {
        m.store_nt(self.tid, addr, bytes, cat);
    }

    fn flush_all(&mut self, m: &mut Machine) {
        for line in &self.to_flush {
            m.clwb(self.tid, line.base());
        }
        self.to_flush.clear();
    }

    /// End the epoch: flush every written line, then `sfence`.
    ///
    /// On current x86-64 this is the only way to order PM writes, and it
    /// conflates ordering with durability — the inefficiency HOPS's
    /// `ofence` removes (Section 6).
    pub fn ordering_fence(&mut self, m: &mut Machine) {
        self.flush_all(m);
        m.sfence(self.tid);
    }

    /// End the epoch at a point where the program *needs* durability
    /// (transaction commit, pre-I/O). Machine-identical to
    /// [`PmWriter::ordering_fence`]; traced as a durability fence.
    pub fn durability_fence(&mut self, m: &mut Machine) {
        self.flush_all(m);
        m.sfence_durable(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use pmtrace::analysis::split_epochs;

    fn setup() -> (Machine, PmWriter, Addr) {
        let m = Machine::new(MachineConfig::tiny_for_tests());
        let base = m.config().map.pm.base;
        (m, PmWriter::new(Tid(0)), base)
    }

    #[test]
    fn multi_line_object_fully_flushed() {
        let (mut m, mut w, a) = setup();
        w.write(&mut m, a, &[3u8; 200], Category::UserData); // 4 lines
        assert_eq!(w.to_flush.len(), 4);
        w.ordering_fence(&mut m);
        assert_eq!(w.to_flush.len(), 0);
        assert!(m.is_durable(a, 200));
    }

    #[test]
    fn nt_write_durable_after_fence_without_flushes() {
        let (mut m, mut w, a) = setup();
        w.write_nt(&mut m, a, &[5u8; 64], Category::RedoLog);
        assert_eq!(w.to_flush.len(), 0);
        w.ordering_fence(&mut m);
        assert!(m.is_durable(a, 64));
    }

    #[test]
    fn epochs_match_fences() {
        let (mut m, mut w, a) = setup();
        w.write_u64(&mut m, a, 1, Category::UserData);
        w.ordering_fence(&mut m);
        w.write_u64(&mut m, a + 64, 2, Category::UserData);
        w.write_u64(&mut m, a + 128, 3, Category::UserData);
        w.durability_fence(&mut m);
        let epochs = split_epochs(m.trace().events());
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].unique_lines(), 1);
        assert!(!epochs[0].durable);
        assert_eq!(epochs[1].unique_lines(), 2);
        assert!(epochs[1].durable);
    }

    #[test]
    fn same_line_written_twice_flushed_once() {
        let (mut m, mut w, a) = setup();
        w.write_u64(&mut m, a, 1, Category::UserData);
        w.write_u64(&mut m, a + 8, 2, Category::UserData);
        assert_eq!(w.to_flush.len(), 1);
        w.ordering_fence(&mut m);
        let flushes = m
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, pmtrace::EventKind::Flush { .. }))
            .count();
        assert_eq!(flushes, 1);
    }

    #[test]
    fn writes_survive_crash_after_fence() {
        let (mut m, mut w, a) = setup();
        w.write(&mut m, a, b"critical", Category::UserData);
        w.durability_fence(&mut m);
        let img = m.crash(crate::CrashSpec::DropVolatile);
        assert_eq!(img.read_vec(a, 8), b"critical");
    }
}
