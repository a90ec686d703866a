//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that was open when it began (its parent), and the id of the operation
//! it belongs to. Spans stay in memory while the workload runs and are
//! written once, at exit, as Chrome trace-event JSON that Perfetto opens.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `sparse.block_plan.compile`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The operation (solve, pass or request) the span belongs to.
    pub op: u64,
    /// Recording thread.
    pub tid: u32,
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover.
    pub self_ns: u64,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on this one's clock.
    pub fn for_thread(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` under a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, op);
        let r = f();
        self.close();
        r
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per operation, the summed milliseconds of the spans named `name`
    /// (operations with none are left out).
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        by_op.into_values().collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events, times in
    /// microseconds); `args` carries each span's index, parent and op.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_children_to_the_child_not_the_parent() {
        let mut t = Tracer::new(true);
        t.open("outer", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.close();
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", 0, || ());
        t.open("y", 0);
        t.close();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_threads_keep_their_nesting() {
        let mut main = Tracer::new(true);
        main.time("a", 0, || ());
        let mut other = main.for_thread(1);
        other.open("b", 7);
        other.time("c", 7, || ());
        other.close();
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.per_op_ms("c").len(), 1);
        assert!(main.chrome_json().contains("\"parent\":1"));
    }
}
