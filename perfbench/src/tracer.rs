//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The program itself is not instrumented: every span starts and ends in
//! the benchmark's own code.  Spans are kept in memory and written out
//! when the run ends.  With recording off, [`Tracer::span`] still times
//! its closure (the metrics need the duration) but stores nothing.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The fetch request this span belongs to; every span of one
    /// request carries the same id.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder with a parent stack.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; it stores spans
    /// only when `recording`.
    pub fn new(epoch: Instant, recording: bool) -> Self {
        Self { epoch, recording, spans: Vec::new(), stack: Vec::new() }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are stored.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let parent = self.stack.last().copied();
            let start_ns = self.ns(start);
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: None });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end = Instant::now();
        if let Some(index) = index {
            self.stack.pop();
            self.spans[index].end_ns = self.ns(end);
        }
        (value, end.duration_since(start).as_secs_f64())
    }

    /// Adds spans recorded elsewhere (the fetch clients' per-request
    /// spans) under the currently open span.  Each incoming span's
    /// `parent` indexes `spans` itself, or is `None` for a direct child
    /// of the open span.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if !self.recording {
            return;
        }
        let base = self.spans.len();
        let outer = self.stack.last().copied();
        self.spans.extend(spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(outer);
            span
        }));
    }

    /// Removes and returns the recorded spans.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("c", 20, 25, Some(1)),
        ];
        let own = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(own.iter().map(|&s| ns(s)).collect::<Vec<_>>(), [50, 25, 30, 5]);
    }

    #[test]
    fn nesting_and_adoption_link_parents() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            let base = t.ns(Instant::now());
            t.adopt(vec![
                Span { request: Some(7), ..span("fetch.request", base, base + 5, None) },
                Span { request: Some(7), ..span("fetch.verify", base + 1, base + 2, Some(0)) },
            ]);
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(Instant::now(), false);
        let (value, secs) = off.span("x", |_| 3);
        assert_eq!(value, 3);
        assert!(secs >= 0.0 && off.take().is_empty());
    }
}
