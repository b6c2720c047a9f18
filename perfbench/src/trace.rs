//! In-memory spans recorded by the benchmark around the public calls it
//! makes into each layer. Nothing inside the crates under test is
//! instrumented.
//!
//! A span has a name, a start and an end, the span it was opened inside
//! and the run (one nested pass) it belongs to. Spans are kept in memory
//! and written out once, when the benchmark ends.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the same code path serves traced and untraced
/// runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn disabled() -> Self {
        Tracer::new(false)
    }

    /// Start a new run: the spans recorded until the next call share its
    /// id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover (children of one span never overlap, since the
    /// benchmark records from one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: (spans, total ns, self ns), by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own;
        }
        out
    }

    /// The spans as JSON lines (one span per line), then one summary
    /// line per span name with its total and self time.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.run,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        for (name, (n, total, own)) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"summary\": {}, \"spans\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                json_str(name)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert!(own[1] >= 5_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.span("x", |_| ());
        assert!(t.spans().is_empty());
    }
}
