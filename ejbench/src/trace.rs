//! The benchmark's own span recorder: spans stay in memory during the run
//! and are written out once it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`client.run`, `layer.core.run`, …).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }
}

impl Spans {
    /// Opens a span.  A root span (no parent) starts a new request; a child
    /// joins its parent's request.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let request = match parent {
            Some(p) => self.spans[p].request,
            None => {
                self.next_request += 1;
                self.next_request
            }
        };
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a root span named `name`; returns its result and the
    /// span's duration in ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, None);
        let value = f();
        self.close(span);
        (value, self.duration_ms(span))
    }

    /// Duration of a closed span, ms.
    pub fn duration_ms(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_request_of_their_root() {
        let mut spans = Spans::default();
        let a = spans.open("op.write", None);
        let b = spans.open("client.apply", Some(a));
        spans.close(b);
        spans.close(a);
        let c = spans.open("client.run", None);
        spans.close(c);
        assert_eq!(spans.spans[a].request, spans.spans[b].request);
        assert_ne!(spans.spans[a].request, spans.spans[c].request);
        assert!(spans.spans[b].start_ns >= spans.spans[a].start_ns);
        assert!(spans.spans[b].end_ns <= spans.spans[a].end_ns);
        assert!(spans.duration_ms(b) <= spans.duration_ms(a));
    }
}
