//! In-memory spans for the traced run.
//!
//! A span is recorded from the benchmark's own files around one call
//! into a layer: its name (the layer), what it worked on, start, end and
//! the span that caused it. Spans stay in memory until the run ends and
//! are then written out as a tab-separated file; the per-layer metrics
//! are derived from them. With tracing off every call is a no-op, so the
//! untraced run pays nothing but a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub what: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span identifier; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span whose end is set by [`Tracer::close`]; used for the
    /// parents (a pass, a set-up, a stream round).
    pub fn open(
        &mut self,
        name: &'static str,
        what: &str,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            what: what.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        what: &str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open(name, what, parent, start);
        self.close(id, end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`, in record order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total milliseconds of `name` under each parent that has any, in
    /// parent order: one value per pass, set-up or stream round.
    pub fn per_parent_ms(&self, name: &str) -> Vec<f64> {
        let mut by: BTreeMap<Option<usize>, u64> = BTreeMap::new();
        for s in self.named(name) {
            *by.entry(s.parent).or_default() += s.ns();
        }
        by.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Writes every span as `id parent name what start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\twhat\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.what, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_group_by_parent() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let a = t.open("pass", "1", None, ms(0));
        t.record("replay.decode", "x", a, ms(0), ms(2));
        t.record("replay.decode", "y", a, ms(2), ms(5));
        t.close(a, ms(5));
        let b = t.open("pass", "2", None, ms(5));
        t.record("replay.decode", "x", b, ms(5), ms(9));
        t.close(b, ms(9));
        let per = t.per_parent_ms("replay.decode");
        assert_eq!(per.len(), 2);
        assert!((per[0] - 5.0).abs() < 0.01 && (per[1] - 4.0).abs() < 0.01);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.open("pass", "", None, now);
        t.record("x", "", id, now, now);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
