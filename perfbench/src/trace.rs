//! The in-memory span recorder of the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span records its name, start, end and parent; the
//! spans stay in memory until the run ends and are then written out as
//! JSON lines. A span's layer is the part of its name before the first
//! `.`, and its self time is its duration minus the part of that interval
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span is measured against; sinks running on engine
    /// worker threads time their calls against it too (see
    /// [`Tracer::record`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a span timed elsewhere against [`Tracer::epoch`].
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: usize) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
        });
    }

    pub fn get(&self, id: usize) -> Span {
        self.spans[id]
    }

    /// Durations, in seconds, of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e9)
            .collect()
    }

    /// Mean duration in seconds of the spans with this name (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        let d = self.durations(name);
        crate::stats::ratio(d.iter().sum(), d.len() as f64)
    }

    /// Self time in seconds per layer over the tree rooted at `root`. The
    /// root's own self time — wall time no layer accounts for — is keyed
    /// `"unaccounted"`.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        let mut out = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let span = self.spans[id];
            let covered =
                covered_nanos(span, children[id].iter().map(|&c| self.spans[c]).collect());
            let key = if id == root {
                "unaccounted"
            } else {
                span.layer()
            };
            *out.entry(key).or_insert(0.0) += (span.nanos() - covered) as f64 / 1e9;
            stack.extend(&children[id]);
        }
        out
    }

    /// Writes every span as one JSON line: id, parent, name, start, end.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of `children`.
fn covered_nanos(parent: Span, mut children: Vec<Span>) -> u64 {
    children.sort_by_key(|c| c.start_ns);
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for c in children {
        let start = c.start_ns.max(reach);
        let end = c.end_ns.min(parent.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_of_a_synthetic_tree_sum_to_its_root() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            at("root", 0, 1_000, None),
            at("session.stream", 100, 900, Some(0)),
            at("sink.record", 200, 300, Some(1)),
            at("sink.record", 300, 400, Some(1)),
            at("sim.run", 500, 600, Some(1)),
            at("agent.build", 920, 990, Some(0)),
        ];
        let times = tracer.self_times(0);
        let total: f64 = times.values().sum();
        assert!((total - 1e-6).abs() < 1e-15, "self times sum to {total}");
        assert!((times["unaccounted"] - 130e-9).abs() < 1e-15);
        assert!((times["session"] - 500e-9).abs() < 1e-15);
        assert!((times["sink"] - 200e-9).abs() < 1e-15);
        assert!((times["sim"] - 100e-9).abs() < 1e-15);
        assert!((times["agent"] - 70e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let parent = at("session.stream", 0, 100, None);
        let children = vec![
            at("sink.record", 10, 40, Some(0)),
            at("sink.record", 30, 60, Some(0)),
            at("sink.record", 90, 150, Some(0)),
        ];
        assert_eq!(covered_nanos(parent, children), 60);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root");
        let inner = tracer.span("rng.setup", || 7);
        tracer.close(root);
        assert_eq!(inner, 7);
        assert_eq!(tracer.get(1).parent, Some(root));
        assert_eq!(tracer.get(1).layer(), "rng");
        assert!(tracer.get(root).end_ns >= tracer.get(1).end_ns);
    }
}
