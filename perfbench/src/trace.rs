//! Spans around the benchmark's calls into the program.
//!
//! A [`Tracer`] that is off runs every closure directly and reads no
//! clock, so the timed runs pay nothing for the instrumentation. A
//! tracer that is on records one [`Span`] per call — name, parent,
//! start and end — in memory, and the caller folds them into per-layer
//! metrics when the repetition ends. Probes are spans of their own
//! kind: extra calls into public layer functions that the workload
//! itself does not make, timed so they can be subtracted from the run
//! clock and left out of the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `protocol.round`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Whether this is a probe rather than a call the workload makes.
    pub probe: bool,
    /// Seconds of probes nested inside this span.
    pub probed: f64,
}

impl Span {
    /// Duration in seconds, less the probes nested inside it.
    pub fn seconds(&self) -> f64 {
        self.end - self.start - self.probed
    }
}

/// In-memory span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a plain pass-through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.open(name, false);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Runs the probe `f` (only when tracing is on) inside a probe span
    /// and returns its result with the span's duration in seconds.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Option<(R, f64)> {
        if !self.on {
            return None;
        }
        let idx = self.open(name, true);
        let out = f();
        self.close(idx);
        Some((out, self.spans[idx].seconds()))
    }

    /// Total seconds spent in probes so far.
    pub fn probe_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.probe && s.end >= s.start)
            .map(Span::seconds)
            .sum()
    }

    fn open(&mut self, name: &'static str, probe: bool) -> usize {
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            // Marks the span as still open until `close`.
            end: f64::NEG_INFINITY,
            probe,
            probed: 0.0,
        });
        self.open.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        if self.spans[idx].probe {
            // Probes are not the workload's time: take them out of
            // every span they ran inside.
            let seconds = self.spans[idx].seconds();
            for &outer in &self.open {
                self.spans[outer].probed += seconds;
            }
        }
    }

    /// Durations per span name, in opening order within each name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.seconds());
        }
        out
    }

    /// Seconds covered by top-level workload spans, less the probes
    /// inside them: the part of the run the benchmark's spans account
    /// for.
    pub fn covered_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.probe)
            .map(Span::seconds)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_skips_probes() {
        let mut tr = Tracer::new(false);
        let v = tr.span("a", |tr| tr.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.probe("p", || 1).is_none());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |tr| {
                tr.probe("nested", || {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                })
            });
        });
        let (_, probe_s) = tr.probe("p", || ()).expect("tracing is on");
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[3].probe && spans[3].parent == Some(2));
        assert!(spans[4].probe && spans[4].parent.is_none());
        assert_eq!(tr.by_name()["inner"].len(), 2);
        // The nested probe's 20 ms count in neither enclosing span.
        assert!(spans[3].seconds() >= 0.02);
        assert!(spans[0].seconds() < spans[3].seconds());
        assert!(tr.covered_seconds() >= spans[1].seconds() + spans[2].seconds());
        assert_eq!(tr.probe_seconds(), spans[3].seconds() + probe_s);
    }
}
