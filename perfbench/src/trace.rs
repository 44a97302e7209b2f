//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name `layer.call`, a start, an end, the span that caused it
//! and a request id. Spans stay in memory until the run ends, when they are
//! written out as JSON lines. A layer's self time is the time its spans
//! cover minus the part of each span its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`SpanId::NONE`] when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id handed out while tracing is off; closing it does nothing.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder that can be switched on and off between
/// units of work, so one run yields traced and untraced samples.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now, initially `enabled` or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans opened now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `layer.call` under `parent` for `request`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let parent = parent.filter(|p| *p != SpanId::NONE).map(|p| p.0);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, request, start_ns, end_ns: start_ns });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            self.spans[id.0].end_ns = self.now_ns();
        }
    }

    /// Records a finished span with explicit bounds (for work timed on
    /// another thread or in another process).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = parent.filter(|p| *p != SpanId::NONE).map(|p| p.0);
        self.spans.push(Span { name, parent, request, start_ns: ns(start), end_ns: ns(end) });
        SpanId(self.spans.len() - 1)
    }

    /// Appends the spans of `other` (a tracer created after this one, e.g.
    /// by another thread), moved onto this tracer's clock; its root spans
    /// get `parent`.
    pub fn merge(&mut self, other: Tracer, parent: Option<SpanId>) {
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        let parent = parent.filter(|p| *p != SpanId::NONE).map(|p| p.0);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds per layer (the part of a span's name before
    /// the first `.`).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e9;
        }
        by_layer
    }

    /// Appends every span to `path`, one JSON line each.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        assert_eq!(covered_ns(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered_ns(50, 60, vec![(0, 100)]), 10);
        assert_eq!(covered_ns(0, 10, vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children_per_layer() {
        let mut t = Tracer::new(true);
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("bench.iteration", None, 1, at(0), at(100));
        t.record("graph.load", Some(root), 1, at(0), at(60));
        let run = t.record("core.run", Some(root), 1, at(60), at(90));
        t.record("bsp.exchange", Some(run), 1, at(70), at(80));
        let s = t.self_seconds();
        assert!((s["bench"] - 0.010).abs() < 1e-9);
        assert!((s["graph"] - 0.060).abs() < 1e-9);
        assert!((s["core"] - 0.020).abs() < 1e-9);
        assert!((s["bsp"] - 0.010).abs() < 1e-9);
        // Self times of a tree add up to its root span.
        assert!((s.values().sum::<f64>() - 0.100).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("graph.load", None, 0);
        t.close(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        let id = t.open("graph.load", None, 0);
        t.close(id);
        assert_eq!(t.len(), 1);
    }
}
