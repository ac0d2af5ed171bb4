//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions, kept in memory, and written out once when
//! the run ends. A disabled recorder makes every call a no-op, so the
//! untraced run pays nothing for the instrumentation points.

use experiments::json::Json;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (returned by [`Tracer::enter`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for `workload`; `enabled == false` records nothing.
    #[must_use]
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Self {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every closed span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Durations of every span named `name`, in milliseconds.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON document (name, start, end, parent, self time
    /// and workload per span).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("self_ns", Json::U64(self_ns)),
                    ("workload", Json::str(self.workload)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (work on
/// several threads); the covered part is the union of their intervals,
/// clipped to the parent's.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 130, Some(0)), // runs past the parent's end
            span("grandchild", 12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60) and [90, 100): 60 ns of the parent.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn nested_children_do_not_count_twice() {
        let spans = vec![
            span("root", 0, 50, None),
            span("x", 5, 25, Some(0)),
            span("y", 25, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 20]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new("w", false);
        let v = t.span("core.encode", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_links_parents() {
        let mut t = Tracer::new("w", true);
        let outer = t.enter("accel.dispatch");
        t.span("core.encode", || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
