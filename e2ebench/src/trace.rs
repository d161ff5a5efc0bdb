//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own files, around each call into a library layer, and
//! written out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is the span open when it started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The spans as JSON lines: `{"id", "parent", "name", "start_ns",
    /// "end_ns", "self_ns"}`, where `self_ns` is the span's duration less
    /// the time its children cover.
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let total = span.end_ns - span.start_ns;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id,
                span.name,
                span.start_ns,
                span.end_ns,
                total.saturating_sub(child_ns[span.id])
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("root");
        tracer.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("child", || ());
        tracer.exit(root);
        assert_eq!(tracer.seconds("child").len(), 2);
        assert!(tracer.seconds("child")[0] >= 0.002);
        assert!(tracer.seconds("root")[0] >= tracer.seconds("child")[0]);
        let jsonl = tracer.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0"));
    }
}
