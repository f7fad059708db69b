//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around calls into the
//! program's public functions; nothing inside the program is traced.
//! A disabled recorder does no work beyond returning a dummy handle,
//! so the same replay code runs traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `serve.verify`).
    pub name: &'static str,
    /// Request or inference the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl Totals {
    /// Mean duration in µs.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
            self.stack.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of each span's direct children, by span index.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Count and summed duration per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
        }
        out
    }

    /// Share of the summed duration of the spans named `root` that
    /// their direct children cover.
    pub fn attributed_frac(&self, root: &str) -> f64 {
        let child = self.child_ns();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(&child) {
            if s.name == root {
                covered += c;
                total += s.dur_ns();
            }
        }
        crate::stats::ratio(covered as f64, total as f64)
    }

    /// The spans as JSON lines: name, id, parent, start, end and self
    /// time (µs).
    pub fn to_jsonl(&self) -> String {
        let child = self.child_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, c)) in self.spans.iter().zip(&child).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.id,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.dur_ns().saturating_sub(*c) as f64 / 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 1, || 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.attributed_frac("a"), 0.0);
    }

    #[test]
    fn nesting_self_time_and_attribution() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", 7);
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let totals = t.totals();
        assert_eq!((totals["op"].count, totals["child"].count), (1, 2));
        assert!(totals["op"].total_ns >= totals["child"].total_ns);
        let frac = t.attributed_frac("op");
        assert!(frac > 0.5 && frac <= 1.0, "{frac}");
        // Self time: a child has no children; the root keeps the rest.
        let jsonl = t.to_jsonl();
        let self_us = |line: &str| -> f64 {
            line.rsplit("\"self_us\":")
                .next()
                .unwrap()
                .trim_end_matches('}')
                .parse()
                .unwrap()
        };
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let dur_us = |s: &Span| s.dur_ns() as f64 / 1e3;
        assert!((self_us(lines[1]) - dur_us(&spans[1])).abs() < 1e-3);
        let rest = dur_us(&spans[0]) - dur_us(&spans[1]) - dur_us(&spans[2]);
        assert!((self_us(lines[0]) - rest).abs() < 2e-3);
    }
}
