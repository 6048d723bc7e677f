//! The per-thread cache-line sets: one exact-LRU set, used twice.
//!
//! The machine keeps two bounded sets of PM lines per hardware thread —
//! the lines *dirty* in its L1 (capacity [`l1_dirty_lines`]) and the
//! lines recently *referenced* (capacity [`l2_lines`]) — and both are an
//! [`LruSet`]: an intrusive doubly-linked recency list threaded through
//! a slab of `{line, prev, next}` nodes, plus a [`LineMap`] from line to
//! slab slot. `touch`, `remove` and `contains` are O(1) with no
//! hashing; the slab never holds more than `capacity` nodes however
//! many touches the run makes; and the index, like every [`LineMap`],
//! costs nothing until a line is first touched.
//!
//! The invariant the machine's timing rests on: the list is in exact
//! recency order (head = least recently touched), a `touch` of an
//! absent line on a full set evicts the head and nothing else, and
//! `remove` unlinks the line and frees its slot at once — there are no
//! stale entries to skip, so the victim is a function of the
//! touch/remove sequence alone.
//!
//! [`l1_dirty_lines`]: crate::MachineConfig::l1_dirty_lines
//! [`l2_lines`]: crate::MachineConfig::l2_lines

use pmem::{AddrRange, Line, LineMap};

/// "No node": list ends and the empty free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    line: Line,
    /// Towards the head (less recently touched); the free list is
    /// threaded through `next` alone.
    prev: u32,
    next: u32,
}

/// A bounded set of PM lines with least-recently-*touched* eviction.
///
/// As a thread's dirty set, an evicted line writes back to the PM
/// device, i.e. it becomes durable "early" — the cache-driven
/// reordering the paper's Section 2 warns about. As its read set the
/// eviction is silent (clean lines just age out) and presence decides
/// whether a PM load is served by the cache hierarchy or counts as
/// memory traffic, the distinction Figure 6 measures. Only PM lines
/// are tracked: DRAM lines need no durability bookkeeping, and the
/// memory contents live elsewhere (see the crate docs).
#[derive(Debug, Clone)]
pub(crate) struct LruSet {
    capacity: usize,
    /// The slab; grows by one node per insertion up to `capacity`.
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Least recently touched line.
    head: u32,
    /// Most recently touched line.
    tail: u32,
    len: usize,
    /// line → slab slot + 1 (0 = absent).
    index: LineMap<u32>,
}

impl LruSet {
    /// An empty set of at most `capacity` lines of `range`.
    pub(crate) fn new(capacity: usize, range: AddrRange) -> LruSet {
        assert!(capacity > 0, "LRU-set capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "LRU-set slots are u32: capacity {capacity} too large"
        );
        LruSet {
            capacity,
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            index: LineMap::new(range),
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, i: u32) {
        let tail = self.tail;
        let node = &mut self.nodes[i as usize];
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Make `line` the most recently touched member, inserting it if
    /// absent. Returns whether it was already present (the read set's
    /// hit) and the line evicted to make room, if the insertion found
    /// the set full (the dirty set's write-back victim).
    ///
    /// # Panics
    ///
    /// Panics if `line` lies outside the set's range.
    pub(crate) fn touch(&mut self, line: Line) -> (bool, Option<Line>) {
        let slot = self.index.get(line);
        if slot != 0 {
            let i = slot - 1;
            if i != self.tail {
                self.unlink(i);
                self.push_tail(i);
            }
            return (true, None);
        }
        // Absent. A full set recycles its head's node, so the slab
        // never exceeds `capacity`; the victim is never `line` itself.
        let (i, victim) = if self.len == self.capacity {
            let i = self.head;
            let victim = self.nodes[i as usize].line;
            self.unlink(i);
            *self.index.slot(victim) = 0;
            self.nodes[i as usize].line = line;
            (i, Some(victim))
        } else {
            self.len += 1;
            let node = Node {
                line,
                prev: NIL,
                next: NIL,
            };
            let i = match self.free {
                NIL => {
                    self.nodes.push(node);
                    self.nodes.len() as u32 - 1
                }
                i => {
                    self.free = self.nodes[i as usize].next;
                    self.nodes[i as usize] = node;
                    i
                }
            };
            (i, None)
        };
        self.push_tail(i);
        *self.index.slot(line) = i + 1;
        (false, victim)
    }

    /// Remove `line` (it was flushed or invalidated), freeing its slot.
    /// Returns whether it was present.
    pub(crate) fn remove(&mut self, line: Line) -> bool {
        let slot = self.index.get(line);
        if slot == 0 {
            return false;
        }
        let i = slot - 1;
        self.unlink(i);
        self.nodes[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
        *self.index.slot(line) = 0;
        true
    }

    /// A copy of the set that shares its line index's pages until one
    /// of the two writes them (see [`LineMap::fork`]).
    pub(crate) fn fork(&mut self) -> LruSet {
        LruSet {
            nodes: self.nodes.clone(),
            index: self.index.fork(),
            ..*self
        }
    }

    /// Whether `line` is currently a member.
    pub(crate) fn contains(&self, line: Line) -> bool {
        self.index.get(line) != 0
    }

    /// All member lines, in deterministic (line-number) order.
    pub(crate) fn lines(&self) -> Vec<Line> {
        let mut v = Vec::with_capacity(self.len);
        let mut i = self.head;
        while i != NIL {
            let node = self.nodes[i as usize];
            v.push(node.line);
            i = node.next;
        }
        v.sort_unstable();
        v
    }

    /// `(directory slots, pages)` the line index holds.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> (usize, usize) {
        self.index.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniprop::prelude::*;

    /// Lines per [`LineMap`] page (`pmem`'s `PAGE_LINES`).
    const PAGE: u64 = 1024;
    const BASE: u64 = 4 << 30;
    const LEN: u64 = 1 << 20;

    fn set(capacity: usize) -> LruSet {
        LruSet::new(capacity, AddrRange::new(BASE, LEN))
    }

    fn l(n: u64) -> Line {
        Line(Line::containing(BASE).0 + n)
    }

    #[test]
    fn touch_and_contains() {
        let mut d = set(4);
        assert_eq!(d.touch(l(1)), (false, None));
        assert!(d.contains(l(1)));
        assert!(!d.contains(l(2)));
        assert_eq!(d.touch(l(1)), (true, None), "a second touch is a hit");
    }

    #[test]
    fn evicts_least_recently_touched() {
        let mut d = set(2);
        d.touch(l(1));
        d.touch(l(2));
        d.touch(l(1)); // refresh 1
        assert_eq!(d.touch(l(3)), (false, Some(l(2))));
        assert!(d.contains(l(1)));
        assert!(d.contains(l(3)));
        assert!(!d.contains(l(2)));
    }

    #[test]
    fn retouch_does_not_evict() {
        let mut d = set(2);
        d.touch(l(1));
        d.touch(l(2));
        assert_eq!(d.touch(l(2)), (true, None));
        assert_eq!(d.lines().len(), 2);
    }

    #[test]
    fn remove_reports_presence_and_frees_the_slot() {
        let mut d = set(2);
        d.touch(l(5));
        assert!(d.remove(l(5)));
        assert!(!d.remove(l(5)));
        assert!(d.lines().is_empty());
        // The freed node is reused: two more lines fit without evicting
        // and without growing the slab past capacity.
        assert_eq!(d.touch(l(6)).1, None);
        assert_eq!(d.touch(l(7)).1, None);
        assert_eq!(d.nodes.len(), 2);
    }

    #[test]
    fn lines_sorted() {
        let mut d = set(8);
        for n in [9u64, 3, 7] {
            d.touch(l(n));
        }
        assert_eq!(d.lines(), vec![l(3), l(7), l(9)]);
    }

    #[test]
    fn out_of_range_lines_are_absent_to_read_only_queries() {
        let mut d = set(2);
        assert!(!d.contains(Line(0)));
        assert!(!d.remove(Line(0)));
        assert_eq!(d.resident(), (0, 0), "queries allocate nothing");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        set(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touching_outside_the_range_panics() {
        set(2).touch(Line(0));
    }

    /// Regression for the queue this set replaced, which kept one entry
    /// per touch until the set overflowed: a million touches of a
    /// hundred lines leave a hundred nodes.
    #[test]
    fn slab_is_bounded_by_capacity_not_by_touches() {
        let mut d = set(512);
        for i in 0..1_000_000u64 {
            d.touch(l(i * 7 % 100));
        }
        assert_eq!(d.nodes.len(), 100);
        let mut tight = set(64);
        for i in 0..1_000_000u64 {
            tight.touch(l(i * 7 % 100));
        }
        assert_eq!(tight.nodes.len(), 64);
        assert_eq!(tight.lines().len(), 64);
    }

    /// The reference the set must be indistinguishable from: members in
    /// recency order in a `Vec`, least recent first.
    struct NaiveLru {
        capacity: usize,
        order: Vec<Line>,
    }

    impl NaiveLru {
        fn touch(&mut self, line: Line) -> (bool, Option<Line>) {
            let hit = self.remove(line);
            self.order.push(line);
            let victim = (self.order.len() > self.capacity).then(|| self.order.remove(0));
            (hit, victim)
        }

        fn remove(&mut self, line: Line) -> bool {
            let at = self.order.iter().position(|l| *l == line);
            at.map(|i| self.order.remove(i)).is_some()
        }
    }

    /// Twelve lines: six straddling the first [`LineMap`] page
    /// boundary, the range's first line, and its last five.
    fn model_line(k: u64) -> Line {
        let lines = LEN / 64;
        match k {
            0..=5 => l(PAGE - 3 + k),
            6 => l(0),
            _ => l(lines - 12 + k),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn matches_the_naive_recency_list(
            capacity in prop_oneof![Just(1usize), Just(2), Just(4), Just(512)],
            ops in collection::vec((0u8..8, 0u64..12), 1..200),
        ) {
            let mut set = set(capacity);
            let mut model = NaiveLru { capacity, order: Vec::new() };
            for (op, k) in ops {
                let line = model_line(k);
                match op {
                    0..=4 => prop_assert_eq!(set.touch(line), model.touch(line)),
                    5 => prop_assert_eq!(set.remove(line), model.remove(line)),
                    6 => prop_assert_eq!(set.contains(line), model.order.contains(&line)),
                    _ => {
                        let mut want = model.order.clone();
                        want.sort_unstable();
                        prop_assert_eq!(set.lines(), want);
                    }
                }
                prop_assert!(set.nodes.len() <= capacity);
            }
            let mut want = model.order.clone();
            want.sort_unstable();
            prop_assert_eq!(set.lines(), want);
        }
    }
}
