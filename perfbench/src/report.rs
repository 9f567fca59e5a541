//! Metrics, the attempted/succeeded/failed tally, and the result line.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Request (or job) outcomes, plus failures of the run as a whole (a
/// server count that disagrees with the client's).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub run_failures: Vec<String>,
    reasons: Vec<String>,
}

impl Tally {
    /// One failed request or job.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// A failed run-level check.
    pub fn fail_run(&mut self, reason: String) {
        self.run_failures.push(reason);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty() && self.attempted > 0
    }

    pub fn explain(&self) {
        for reason in self.reasons.iter().chain(&self.run_failures) {
            eprintln!("FAILED: {reason}");
        }
    }
}

/// The human-readable table, to stderr.
pub fn print_table(workload: &str, metrics: &[Metric], tally: &Tally) {
    eprintln!("== {workload}");
    for m in metrics {
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  requests: attempted {} succeeded {} failed {}",
        tally.attempted, tally.succeeded, tally.failed
    );
}

/// The machine-readable result: the last line of standard output.
pub fn result_line(metrics: &[Metric], tally: &Tally) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let tally = Tally {
            attempted: 3,
            succeeded: 3,
            ..Tally::default()
        };
        let line = result_line(
            &[
                Metric::new("p50_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
            &tally,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let doc = rlc_obs::json::parse(&line).expect("valid JSON");
        assert!(doc.get("metrics").is_some());
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let mut tally = Tally {
            attempted: 2,
            succeeded: 1,
            ..Tally::default()
        };
        tally.fail("x".into());
        assert!(!tally.correct());
        let mut tally = Tally {
            attempted: 1,
            succeeded: 1,
            ..Tally::default()
        };
        tally.fail_run("server count".into());
        assert!(!tally.correct());
    }
}
