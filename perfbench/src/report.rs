//! What one run prints: readable lines, then a final JSON line with the
//! correctness verdict and every metric by name and unit.

use std::fmt::Write as _;

use crate::stats::Summary;

/// Failure messages kept for printing (all failures are counted).
const KEPT_FAILURES: usize = 20;

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
    lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Prints a timing's median, tail and sample count.
    pub fn timing(&mut self, label: &str, unit: &str, samples: &[f64]) -> Summary {
        let s = Summary::of(samples);
        self.line(format!("{label:<28} {} {unit}", s.describe(4)));
        s
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation; any message makes it a failure.
    pub fn attempt(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = KEPT_FAILURES.saturating_sub(self.failures.len());
            self.failures.extend(problems.into_iter().take(room));
        }
    }

    /// A failure that is not one operation (e.g. the grid document
    /// differs from the reference while every cell matched).
    pub fn fail(&mut self, problem: String) {
        self.attempt(vec![problem]);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metrics(&self) -> &[(String, &'static str, f64)] {
        &self.metrics
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The final line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite number with all its digits (non-finite values read 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        r.metric("wall_s", "s", 1.25);
        r.metric("core.replay_ns_per_event.srp", "ns/event", 0.1 + 0.2);
        r.attempt(vec![]);
        let line = r.result_line();
        let j = grp_bench::json::Json::parse(&line).unwrap();
        assert_eq!(j.get("correct").and_then(|v| v.as_bool()), Some(true));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("wall_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        let v = m
            .get("core.replay_ns_per_event.srp")
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64();
        assert_eq!(v, Some(0.1 + 0.2));
        r.attempt(vec!["x".into()]);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
