//! Named metrics, the correctness gate and the result line.

use std::fmt::Write as _;
use xpulpnn::riscv_core::CycleLedger;

/// Ordered `(name, value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric; a repeated name replaces the earlier value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.entries {
            self.put(n, v, u);
        }
    }

    /// The metrics in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// Records the cycles of each ledger class in `classes` as
    /// `<prefix>.ledger.<class>` (0 for a class the ledger lacks).
    pub fn put_ledger(&mut self, prefix: &str, classes: &[&str], ledger: &CycleLedger) {
        for class in classes {
            let cycles = ledger
                .entries()
                .find(|(c, _)| c.name() == *class)
                .map_or(0, |(_, v)| v);
            self.put(format!("{prefix}.ledger.{class}"), cycles as f64, "cycles");
        }
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }
}

/// Correctness gate: every checked operation counts as attempted, every
/// failed check as failed, with a message for the log.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Gate {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 16 {
                self.messages.push(what());
            }
        }
    }

    /// Folds another gate in.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 16 {
                self.messages.push(m);
            }
        }
    }

    /// Share of operations that passed every check.
    pub fn verified_ratio(&self) -> f64 {
        crate::stats::ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values print with every digit Rust's
/// shortest round-trip formatting gives; a non-finite value makes the
/// run incorrect instead of producing invalid JSON.
pub fn result_line(gate: &Gate, metrics: &Metrics) -> (bool, String) {
    let finite = metrics.entries().iter().all(|e| e.1.is_finite());
    let correct = gate.failed == 0 && gate.attempted > 0 && finite;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.attempted.max(1),
        gate.failed
    );
    (correct, line)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms");
        m.put("b", 2.0, "count");
        m.put("a_ms", 1.25, "ms");
        let mut g = Gate::default();
        g.check(true, String::new);
        let (ok, line) = result_line(&g, &m);
        assert!(ok);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        g.check(false, || "boom".into());
        let (ok, line) = result_line(&g, &m);
        assert!(!ok && line.contains("\"failed\": 1"));
        assert_eq!(g.messages, vec!["boom".to_string()]);
        assert_eq!(g.verified_ratio(), 0.5);
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut m = Metrics::default();
        m.put("x", f64::NAN, "ms");
        let mut g = Gate::default();
        g.check(true, String::new);
        let (ok, line) = result_line(&g, &m);
        assert!(!ok);
        assert!(line.contains("\"value\": 0.0"));
    }
}
