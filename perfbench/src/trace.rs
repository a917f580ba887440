//! In-memory spans recorded around calls into each layer, written out
//! when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored, so a long
/// traced run stays bounded in memory.
const MAX_SPANS: usize = 400_000;

/// One timed call: `units` is how many keys, probes, edits or requests
/// the call handled, so per-unit costs divide by it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary, e.g. `axiom.lookup`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span (the phase); `u32::MAX` for a root.
    pub parent: u32,
    /// The request (or batch) the call served.
    pub request: u64,
    /// Work items handled by the call.
    pub units: u32,
}

/// Collects spans for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose span times count from `origin`; tracers of one run
    /// share it so their spans can be merged.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Moves the spans of `other`, recorded on another thread from the
    /// same origin, into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut span in other.spans {
            if span.parent != u32::MAX {
                span.parent += base;
            }
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
            } else {
                self.spans.push(span);
            }
        }
        self.dropped += other.dropped;
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: u32,
        request: u64,
        units: u32,
    ) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return u32::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            units,
        });
        (self.spans.len() - 1) as u32
    }

    /// Fixes the end of a span opened with [`Tracer::record`].
    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Per-unit durations of every span named `name`, in `scale` units
    /// per second (1e9 for ns, 1e6 for µs).
    pub fn per_unit(&self, name: &str, scale: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.units > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 * scale / 1e9 / f64::from(s.units))
            .collect()
    }

    /// Writes every span as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest\tunits")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if s.parent == u32::MAX {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                },
                s.request,
                s.units
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "# {} spans past the cap were not kept", self.dropped)?;
        }
        out.flush()
    }
}
