//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates; nothing inside the program is instrumented. Every
//! span carries the op it belongs to and the span that caused it, and
//! the whole trace is written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use htforge_obs::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the trace (1-based; 0 means "no parent").
    pub id: usize,
    /// The enclosing span, or 0 at the root of an op.
    pub parent: usize,
    /// The op the span belongs to.
    pub op: usize,
    /// `layer.what`, e.g. `atpg.podem`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// Span and count recorder. A disabled recorder still runs the closures
/// but records nothing, so traced and untraced code paths are the same
/// code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new op: later spans share its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the measured duration (measured even when recording is off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len() + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        // Reserve the slot so children get higher ids than their parent.
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start: start - self.epoch,
            dur: Duration::ZERO,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let dur = start.elapsed();
        self.spans[id - 1].dur = dur;
        (out, dur)
    }

    /// Records a span measured elsewhere (e.g. from response arrival
    /// times) under `parent` (0 for a root) and returns its id, or 0
    /// when recording is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start: start.saturating_duration_since(self.epoch),
            dur: end.saturating_duration_since(start),
        });
        id
    }

    /// Adds `by` to the count `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// A recorded count (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .collect()
    }

    /// Total seconds inside spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span name, in seconds: each span's duration
    /// minus what its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent] += s.dur;
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.dur.saturating_sub(child[s.id]).as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON line, then the counts.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("span", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("op", Json::Num(s.op as f64)),
                ("name", Json::Str(s.name.to_owned())),
                ("start_s", Json::Num(s.start.as_secs_f64())),
                ("dur_s", Json::Num(s.dur.as_secs_f64())),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
            .collect();
        writeln!(
            out,
            "{}",
            Json::Obj(vec![("counts".to_owned(), Json::Obj(counts))]).compact()
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin_op();
        let ((), outer) = t.span("core.outer", |t| {
            t.span("sim.inner", |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[0].op, 1);
        let inner = t.total("sim.inner");
        assert!(inner >= 0.005 && inner <= outer.as_secs_f64());
        let selfs = t.self_times();
        assert!((selfs["core.outer"] - (outer.as_secs_f64() - inner)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.span("x.y", |_| 7);
        t.count("x.n", 3.0);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans.is_empty());
        assert_eq!(t.counted("x.n"), 0.0);
    }
}
