//! Spans recorded from the benchmark's side of each call into a crate.
//!
//! Spans stay in memory while a window runs and are written out once the
//! run ends. Each thread owns a [`Tracer`]; ids are unique across threads
//! because each tracer numbers from its own block.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. `parent == 0` marks a root span; spans of one operation
/// share `query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub query: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread number `thread`, timing from `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Tracer {
            epoch,
            next_id: ((thread as u64) << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will enclose child spans; close it with
    /// [`end`](Self::end). Returns its id.
    pub fn begin(
        &mut self,
        parent: u64,
        query: u64,
        layer: &'static str,
        name: &'static str,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            query,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `id` and returns how long it was open.
    pub fn end(&mut self, id: u64) -> Duration {
        let now = self.now_ns();
        match self.spans.iter_mut().rev().find(|s| s.id == id) {
            Some(span) => {
                span.end_ns = now;
                Duration::from_nanos(now - span.start_ns)
            }
            None => Duration::ZERO,
        }
    }

    /// Times `f` as a leaf span under `parent`.
    pub fn call<R>(
        &mut self,
        parent: u64,
        query: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(parent, query, layer, name);
        let result = f();
        (result, self.end(id))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.query, s.layer, s.name, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent_and_ids_are_unique_per_thread() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let mut b = Tracer::new(epoch, 1);
        let root = a.begin(0, 7, "loadgen", "op");
        let (value, _) = a.call(root, 7, "ivf", "search_probes", || 41 + 1);
        a.end(root);
        let other = b.begin(0, 8, "loadgen", "op");
        assert_eq!(value, 42);
        assert_ne!(root, other);
        let spans = a.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].query, 7);
    }
}
