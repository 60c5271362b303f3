//! The result line: op accounting, metrics by name and unit, and the exact
//! counts a run with the same seed must repeat bit for bit.

use std::fmt::Write as _;

use crate::stats::best;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    exact: Vec<(String, u64)>,
    rounds: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Counts one op, failed when its check returned an error. Failures
    /// are counted, never fatal, so a run always finishes and reports.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = check {
            self.fail(problem);
        }
    }

    /// Marks one already-counted op as failed.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            eprintln!("perfbench: check failed: {problem}");
        }
        self.problems.push(problem);
    }

    #[cfg(test)]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    #[cfg(test)]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Ops whose checks passed over ops attempted: 1 − error rate, which an
    /// end-to-end metric reports because it must never be 0.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a measured metric; `None` (no samples) is a failure.
    pub fn metric(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name.to_string(), v, unit)),
            _ => {
                self.attempted += 1;
                self.fail(format!("metric {name} has no finite value"));
            }
        }
    }

    /// Records the [`best`] of per-round figures as a metric, keeping the
    /// rounds for the side file.
    pub fn round_metric(
        &mut self,
        name: &str,
        rounds: Vec<f64>,
        unit: &'static str,
        higher_is_better: bool,
    ) {
        self.metric(name, best(&rounds, higher_is_better), unit);
        self.keep_rounds(name.to_string(), rounds);
    }

    /// Keeps per-round samples for the side file only.
    pub fn keep_rounds(&mut self, name: String, rounds: Vec<f64>) {
        self.rounds.push((name, rounds));
    }

    /// The per-round samples as one JSON object, name to list.
    pub fn rounds_json(&self) -> String {
        let lists: Vec<String> = self
            .rounds
            .iter()
            .map(|(name, values)| format!("\"{name}\": {values:?}"))
            .collect();
        format!("{{{}}}\n", lists.join(", "))
    }

    /// Records an exact count: reported as a metric and listed for the
    /// cross-run repeat check.
    pub fn count(&mut self, name: &str, value: u64) {
        self.metrics.push((name.to_string(), value as f64, "count"));
        self.exact.push((name.to_string(), value));
    }

    /// The result as one JSON line: `correct`, `attempted`, `failed`,
    /// `metrics`, plus `exact` (the counts to compare across runs).
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always writes a decimal point
            // or exponent, so the value reads back as the same f64.
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}, \"exact\": {");
        for (i, (name, value)) in self.exact.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": {value}");
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Err("bad bytes".into()));
        r.metric("p50_ms", Some(1.5), "ms");
        r.count("arch.instructions", 42);
        let line = r.to_json_line();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"exact\": {\"arch.instructions\": 42}"));
    }

    #[test]
    fn round_metrics_report_the_best_round() {
        let mut r = Report::default();
        r.round_metric("p50_ms", vec![2.0, 1.0, 1.5, 1.2, 3.0], "ms", false);
        r.round_metric("throughput_per_s", vec![1.0, 2.0, 2.0], "1/s", true);
        let line = r.to_json_line();
        assert!(line.contains("\"p50_ms\": {\"value\": 1.0,"), "{line}");
        assert!(
            line.contains("\"throughput_per_s\": {\"value\": 2.0,"),
            "{line}"
        );
        assert_eq!(
            r.rounds_json(),
            "{\"p50_ms\": [2.0, 1.0, 1.5, 1.2, 3.0], \"throughput_per_s\": [1.0, 2.0, 2.0]}\n"
        );
    }

    #[test]
    fn a_metric_without_samples_is_a_failure() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.metric("p90_ms", None, "ms");
        assert_eq!(r.failed(), 1);
        assert!(!r.to_json_line().contains("p90_ms"));
    }
}
