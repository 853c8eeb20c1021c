//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span holds a name, start and end, its parent span and the query
//! it belongs to; counters measured inside the span ride along as
//! attributes. A disabled tracer records nothing, so untraced runs pay
//! one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    query: Option<u64>,
    attrs: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Count, total and self time of one span name.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose timestamps count from `origin`, so that spans of
    /// tracers sharing an origin can be merged.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Appends `other`'s spans (same origin), keeping their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| SpanId(p.0 + base));
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
            attrs: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[id.0].attrs.push((key, value));
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes (`true`) recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per name: count, total duration and self time (duration minus
    /// the part of it that child spans cover; children of one span do
    /// not overlap here, since each layer call is synchronous).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p.0] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.0.to_string()),
                s.query.map_or("null".into(), |q| q.to_string()),
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, Some(1));
        let child = t.begin("child", Some(root), Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let totals = t.totals();
        let (r, c) = (totals["root"], totals["child"]);
        assert_eq!(r.total_ns - c.total_ns, r.self_ns);
        assert_eq!(c.self_ns, c.total_ns);
        assert!(Tracer::new(false).totals().is_empty());
    }
}
