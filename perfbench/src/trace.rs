//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and a parent; spans of one op share
//! an op id. Spans are recorded around calls into each layer's public
//! functions, kept in memory, and written once when the run ends. A
//! layer's self time is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans; `span` calls nest through the closure argument.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` belonging to op `op`; the
    /// innermost open span is its parent.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time in milliseconds of every span, as `(op, name, ms)`.
    fn self_times(&self) -> Vec<(u64, &'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.op, s.name, (s.end_ns - s.start_ns - c) as f64 / 1e6))
            .collect()
    }

    /// Per op, the summed self time in milliseconds of spans named
    /// `name`, for every op that has at least one.
    pub fn op_totals_ms(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (op, n, ms) in self.self_times() {
            if n == name {
                *per_op.entry(op).or_default() += ms;
            }
        }
        per_op.into_values().collect()
    }

    /// The self time in milliseconds of each span named `name`.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, ms)| ms)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.span("inner", 2, |_| ());
        let outer = t.op_totals_ms("outer");
        let inner = t.op_totals_ms("inner");
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 2);
        assert!(inner[0] >= 5.0);
        assert!(
            outer[0] >= 2.0 && outer[0] < inner[0],
            "outer self time {outer:?}"
        );
        assert_eq!(t.each_ms("inner").len(), 2);
    }
}
