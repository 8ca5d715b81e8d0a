//! Benchmark-side spans around the calls into each layer. They stay in
//! memory during the run and are written out once, as a Chrome trace.

use std::fmt::Write as _;

use crate::timer::{Deadline, Stopwatch};

/// Spans one replayed layer leaves at most, so that a microsecond call
/// cannot flood the trace.
const MAX_REPLAYS: usize = 25;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// The spans of one traced run of one workload.
#[derive(Debug)]
pub struct Spans {
    workload: &'static str,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Self { workload, clock: Stopwatch::start(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span called `name`, a child of the span open now.
    /// Returns the span's seconds with `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (f64, T) {
        let id = self.spans.len();
        let start_us = self.clock.micros();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_owned(), start_us, end_us: start_us, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.clock.micros();
        self.spans[id].end_us = end_us;
        ((end_us - start_us) as f64 / 1e6, out)
    }

    /// Replay a layer's calls, each in a span called `name`: two at
    /// least, then up to [`MAX_REPLAYS`] until they have lasted
    /// `min_seconds` together. The first call warms the caches; returns
    /// the quickest of the others, as the end-to-end figures are a run's
    /// best (see `measure::Summary`).
    pub fn replay(&mut self, name: &str, min_seconds: f64, mut f: impl FnMut()) -> f64 {
        let deadline = Deadline::after(min_seconds);
        let mut seconds = Vec::new();
        while seconds.len() < 2 || (seconds.len() < MAX_REPLAYS && !deadline.passed()) {
            seconds.push(self.span(name, |_| f()).0);
        }
        seconds[1..].iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part its child
    /// spans cover.
    pub fn self_us(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = own[parent].saturating_sub(s.end_us - s.start_us);
            }
        }
        own
    }

    /// The layer a span belongs to: its name up to the last dot.
    fn layer(name: &str) -> &str {
        name.rsplit_once('.').map_or(name, |(layer, _)| layer)
    }

    /// Chrome trace-event array: one complete (`X`) event per span, one
    /// track (`tid`) per layer, named by metadata events. Every event
    /// carries its workload, its parent span and its self time.
    pub fn to_chrome_trace(&self) -> String {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| Self::layer(&s.name)).collect();
        layers.sort_unstable();
        layers.dedup();
        let self_us = self.self_us();
        let mut out = String::from("[\n");
        for (tid, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{layer}\"}}}},"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let tid = layers.binary_search(&Self::layer(&s.name)).unwrap_or(0);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"self_us\":{},\"workload\":\"{}\"}}}}{sep}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                self_us[id],
                self.workload
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new("test");
        spans.span("trace.run", |s| {
            s.span("core.index.build", |_| std::thread::sleep(std::time::Duration::from_millis(3)));
            s.span("hashes.md5", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!((all[0].parent, all[1].parent, all[2].parent), (None, Some(0), Some(0)));
        assert!(all[1].end_us <= all[2].start_us && all[2].end_us <= all[0].end_us);
        let root = all[0].end_us - all[0].start_us;
        let kids = (all[1].end_us - all[1].start_us) + (all[2].end_us - all[2].start_us);
        assert!(kids >= 5000);
        assert_eq!(
            spans.self_us(),
            [root - kids, all[1].end_us - all[1].start_us, all[2].end_us - all[2].start_us]
        );
    }

    #[test]
    fn replay_makes_at_least_two_calls_and_leaves_the_first_out() {
        let mut spans = Spans::new("test");
        let mut calls = 0;
        let seconds = spans.replay("hashes.md5", 0.0, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert_eq!((calls, spans.all().len()), (2, 2));
        assert!((0.0..0.02).contains(&seconds), "{seconds}");
    }

    #[test]
    fn chrome_trace_has_one_track_per_layer() {
        let mut spans = Spans::new("web_daemon");
        spans.span("trace.run", |s| {
            s.span("core.index.build", |_| ());
            s.span("core.index.lookup", |_| ());
        });
        let text = spans.to_chrome_trace();
        assert!(text.starts_with("[\n") && text.ends_with("}\n]\n"));
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2, "tracks: core.index and trace");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        assert!(text.contains("\"name\":\"core.index.lookup\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"));
        assert!(text.contains("\"parent\":0,") && text.contains("\"parent\":null,"));
        assert!(text.contains("\"workload\":\"web_daemon\""));
    }
}
