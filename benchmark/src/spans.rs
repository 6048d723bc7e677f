//! The runner's own spans: name, start, end, parent, iteration id.
//!
//! Every layer is measured from outside, so a span here wraps one call
//! into a layer's public function. Spans stay in memory until the run
//! ends; with the recorder off (every end-to-end measurement) a scope
//! is one branch around the call.
//!
//! The recorder allocates once, when it is created, and a span holds
//! no heap data. An allocation made while a workload holds its peak
//! memory would sit at the top of the heap and stop the allocator
//! returning the rest to the system afterwards; the next iteration
//! would then skip the page faults a plain run pays, and the traced
//! run would time different work (on `trace-export` a quarter less).

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug)]
pub struct Span {
    /// Layer call, e.g. `pmcheck.check`.
    pub name: &'static str,
    /// What the call worked on (an application name), or empty.
    pub label: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::finished`], if any.
    pub parent: Option<usize>,
    /// The iteration this span belongs to.
    pub iteration: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(on: bool) -> Spans {
        // Room for every span of the longest run; past that the
        // vector grows like any other.
        let capacity = if on { 16 * 1024 } else { 0 };
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(capacity.min(16)),
            iteration: 0,
        }
    }

    /// Whether scopes are recorded. Workloads branch on this only where
    /// the traced run must take layers apart that the plain run calls
    /// as one function.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to iteration `id`.
    pub fn set_iteration(&mut self, id: u32) {
        self.iteration = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span. Nested scopes get this span as parent.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every finished span, in opening order.
    pub fn finished(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per `(name, label)` for one iteration, in seconds: a
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self, iteration: u32) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            if s.iteration == iteration {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                *out.entry((s.name, s.label)).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_still_runs_the_closure() {
        let mut s = Spans::off();
        let v = s.scope("a", "", |s| s.scope("b", "", |_| 7));
        assert_eq!(v, 7);
        assert!(s.finished().is_empty());
    }

    #[test]
    fn parents_iterations_and_self_time() {
        let mut s = Spans::on();
        s.set_iteration(3);
        s.scope("root", "", |s| {
            s.scope("leaf", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
            s.scope("leaf", "y", |_| ());
        });
        let spans = s.finished();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|sp| sp.iteration == 3));

        let own = s.self_times(3);
        let root = own[&("root", "")];
        let leaf_x = own[&("leaf", "x")];
        assert!(leaf_x >= 0.005, "leaf slept 5 ms, got {leaf_x}");
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        let leaf_y = own[&("leaf", "y")];
        assert!((root + leaf_x + leaf_y - total).abs() < 1e-9);
        assert!(s.self_times(4).is_empty());
    }
}
