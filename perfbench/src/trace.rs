//! Span recording for the traced run, and the self-time arithmetic
//! that turns spans into per-layer figures.
//!
//! Spans are recorded by the harness around its calls into each layer
//! (the program itself carries no tracing). A [`Recorder`] belongs to one
//! thread and keeps its spans in memory; they are merged and written out
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`json.parse_request`, `global.realize`, …).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder with an explicit parent stack.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder timing relative to `origin` (share one origin between
    /// threads so their spans merge on one clock).
    pub fn new(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Tags every span opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.push(name, start, start)
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-finished interval as a child of the innermost
    /// open span — for durations the program measured itself.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        let id = self.push(name, start, end);
        self.open.pop();
        debug_assert_eq!(self.spans[id].end, end);
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, parent, op: self.op });
        self.open.push(id);
        id
    }

    /// The recorded spans, every one closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of the run");
        self.spans
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span of one recorder's output: its duration
/// minus the part of its interval its direct children cover (children
/// that overlap each other are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Per op, the summed self time (ns) of the spans of each name.
pub fn self_time_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.op).or_default().entry(s.name).or_default() += t;
    }
    out
}

/// For each op with a root span named `root`, the share of the root's
/// interval covered by no span except the `structural` ones (the root
/// itself and pure grouping spans).
pub fn residual_by_op(spans: &[Span], root: &str, structural: &[&str]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for r in spans.iter().filter(|s| s.name == root && s.duration() > 0) {
        let layers: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.op == r.op && !structural.contains(&s.name))
            .map(|s| (s.start, s.end))
            .collect();
        let gap = r.duration() - covered(&layers, r.start, r.end);
        out.insert(r.op, gap as f64 / r.duration() as f64);
    }
    out
}

/// One span as a JSON-lines record; `parent` indexes the spans of the
/// same `workload` and `thread`.
pub fn span_line(s: &Span, workload: &str, thread: usize) -> String {
    let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
    format!(
        "{{\"workload\":\"{workload}\",\"thread\":{thread},\"op\":{},\"name\":\"{}\",\
         \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
        s.op, s.name, s.start, s.end
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    #[test]
    fn union_counts_overlaps_once_and_clips() {
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(0, 4), (2, 6), (8, 9)], 0, 10), 7);
        assert_eq!(covered(&[(0, 4), (4, 6)], 0, 10), 6);
        assert_eq!(covered(&[(0, 20)], 5, 10), 5);
        assert_eq!(covered(&[(12, 20)], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // root [0,100) with children [10,40) and [30,60) (overlapping:
        // together 50 ns) and a grandchild inside the first child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn self_time_ignores_the_part_of_a_child_outside_its_parent() {
        let spans = vec![span("root", 0, 10, None), span("late", 5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recorder_nests_and_sums_by_op() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_op(1);
        let root = rec.begin("op");
        rec.time("x", || std::hint::black_box(1 + 1));
        let t = rec.now();
        rec.record("measured", t, t + 1_000);
        rec.end(root);
        rec.set_op(2);
        rec.time("x", || ());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let by_op = self_time_by_op(&spans);
        assert_eq!(by_op.len(), 2);
        assert!(by_op[&1].contains_key("x") && by_op[&1].contains_key("op"));
        assert_eq!(by_op[&1]["measured"], 1_000);
        assert_eq!(by_op[&2].len(), 1);
    }

    #[test]
    fn residual_is_the_root_share_no_layer_span_covers() {
        let mut spans = vec![
            span("op", 0, 100, None),
            span("group", 0, 100, Some(0)),
            span("layer", 10, 30, Some(1)),
            span("layer", 20, 50, Some(1)),
        ];
        let r = residual_by_op(&spans, "op", &["op", "group"]);
        assert!((r[&0] - 0.6).abs() < 1e-12);
        spans.push(span("other", 50, 100, Some(1)));
        let r = residual_by_op(&spans, "op", &["op", "group"]);
        assert!((r[&0] - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new(Instant::now());
        let a = rec.begin("a");
        let _b = rec.begin("b");
        rec.end(a);
    }
}
