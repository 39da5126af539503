//! An in-memory span recorder and its Chrome trace-event writer.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer; nothing inside the program is instrumented. A span's
//! layer is the part of its name before the first `.` (`rtl.parse` is in
//! `rtl`); the benchmark's own structure (`workload`, `pass`, `sweep`,
//! `job`, `probe`) has no dot and is counted as layer `bench`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) interval of the run.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.call`, or a bare structural name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Arena of spans; a disabled tracer records nothing and only runs the
/// wrapped calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every top-level span, in seconds.
    #[cfg(test)]
    fn root_s(&self) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its children cover. Children never overlap (one thread,
    /// strictly nested), so the values sum to the top-level spans' total.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.duration_ns());
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Renders every span as a Chrome trace-event (`"ph": "X"`) document,
    /// readable by Perfetto and `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or("bench", |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.span("workload", |t| {
            spin(200_000);
            t.span("pass", |t| {
                t.span("rtl.parse", |_| spin(300_000));
                t.span("job", |t| t.span("core.flow", |_| spin(500_000)));
            });
        });
        let selfs = t.self_times();
        let sum: f64 = selfs.values().sum();
        assert!((sum - t.root_s()).abs() < 1e-9);
        assert!(selfs["core.flow"] >= 500e-6);
        assert!(selfs["workload"] >= 200e-6);
        assert_eq!(t.spans()[3].parent, Some(1));
        assert_eq!(layer_of("rtl.parse"), "rtl");
        assert_eq!(layer_of("job"), "bench");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("job", |t| t.span("core.flow", |_| 7)), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.root_s(), 0.0);
    }
}
