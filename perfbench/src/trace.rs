//! Span recording around calls into the DISE crates.
//!
//! Every layer call the benchmark makes goes through [`Tracer::span`],
//! which always times the call and adds the elapsed seconds to the
//! layer's running total (the per-layer and end-to-end metrics are built
//! from those totals). When recording is on, it also keeps one span per
//! call in memory — name, start, end, parent span and the id of the
//! request (cell or op) the call belongs to — for the Chrome trace the
//! benchmark writes at exit. Recording is toggled per measured pass so a
//! traced run can compare traced and untraced passes of the same work.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// Enclosing span, or 0 at top level.
    pub parent: u32,
    /// Layer name, e.g. `sim.func_run`.
    pub name: &'static str,
    /// The request (cell/op) id shared by every span of one request.
    pub req: String,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
}

/// Layer timer and span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    totals: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with recording off and empty totals.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off (timing totals are always kept).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Runs `f` as one call into layer `name` on behalf of request `req`:
    /// times it, adds the time to the layer's total, and records a span
    /// (parented to the innermost open span) when recording is on.
    /// Returns `f`'s value and the elapsed seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let recording = self.recording;
        let id = if recording {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied().unwrap_or(0),
                name,
                req: req.to_string(),
                start_us: 0.0,
                end_us: 0.0,
            });
            self.open.push(id);
            id
        } else {
            0
        };
        let start = Instant::now();
        let value = f(self);
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        *self.totals.entry(name).or_insert(0.0) += secs;
        if recording {
            self.open.pop();
            let span = &mut self.spans[id as usize - 1];
            span.start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
            span.end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
        }
        (value, secs)
    }

    /// Takes the per-layer time totals accumulated since the last call
    /// (seconds by layer name) and resets them.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.totals)
    }

    /// The recorded spans, in start order of their ids.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_totals_and_stay_off_when_not_recording() {
        let mut t = Tracer::new();
        t.span("outer", "a", |t| t.span("inner", "a", |_| ()));
        assert!(t.spans().is_empty());
        t.set_recording(true);
        t.span("outer", "b", |t| {
            t.span("inner", "b", |_| ());
            t.span("inner", "b", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", 0));
        assert_eq!((s[1].parent, s[2].parent), (s[0].id, s[0].id));
        assert!(s.iter().all(|x| x.end_us >= x.start_us && x.req == "b"));
        assert!(s[1].start_us >= s[0].start_us && s[2].end_us <= s[0].end_us);
        let totals = t.take_totals();
        assert_eq!(
            totals.keys().copied().collect::<Vec<_>>(),
            ["inner", "outer"]
        );
        assert!(t.take_totals().is_empty());
    }
}
