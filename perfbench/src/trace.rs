//! In-memory span recorder for the traced run.
//!
//! Each span carries a name, start, end, parent span and the id of the
//! operation it belongs to. Spans are kept in memory while the workload
//! runs and written out (one JSON object per line) when it ends. A span's
//! self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span id; 0 means "no span" (the root, or tracing is off).
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: SpanId,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many spans, their total time and their self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span { parent, op, name, start_ns, end_ns: 0 });
        self.spans.len() as SpanId
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end.max(span.start_ns);
        span.end_ns - span.start_ns
    }

    /// Self time per span name. Children of one parent never overlap (the
    /// workloads are single-threaded closed loops), so the part of a span
    /// its children cover is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in self.spans.iter().filter(|s| s.end_ns > 0 && s.parent > 0) {
            child_ns[s.parent as usize] += dur(s);
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.end_ns > 0) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur(s);
            t.self_ns += dur(s).saturating_sub(child_ns[i + 1]);
        }
        out
    }

    /// Write every closed span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.end_ns > 0) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let op = t.open("op", 0, 1);
        let a = t.open("a", op, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a_ns = t.close(a);
        let op_ns = t.close(op);
        let st = t.self_times();
        assert_eq!(st["a"].self_ns, a_ns);
        assert_eq!(st["op"].total_ns, op_ns);
        assert_eq!(st["op"].self_ns, op_ns - a_ns);
    }
}
