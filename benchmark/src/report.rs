//! The result of one run: the one-line JSON object the driver reads, and
//! the reader the `run`, `trace` and `repeat` commands use on their
//! children's lines.

use std::fmt::Write as _;

use crate::check::Tally;
use crate::metrics::Metric;

/// What one run of one workload printed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn new(tally: &Tally, metrics: Vec<Metric>) -> Self {
        Self { correct: tally.correct(), attempted: tally.attempted, failed: tally.failed, metrics }
    }

    /// Syncs that failed or gave wrong bytes, as a share of those attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line. Values are printed with every digit they have.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Read a line written by [`RunResult::to_json`] (not JSON at large:
    /// names and units hold no quotes or escapes).
    pub fn from_json(line: &str) -> Result<Self, String> {
        let bad = |what: &str| format!("result line has no {what}: {line}");
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let correct = field("correct").ok_or_else(|| bad("correct"))? == "true";
        let count =
            |key: &str| field(key).and_then(|v| v.parse::<u64>().ok()).ok_or_else(|| bad(key));
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let body = &line[line.find("\"metrics\": {").ok_or_else(|| bad("metrics"))? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let mut quoted = entry.split('"');
            let name = quoted.nth(1).ok_or_else(|| bad("metric name"))?;
            let value = entry.split("\"value\": ").nth(1).and_then(|v| v.split(',').next());
            let value = value.and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| bad("value"))?;
            let unit = entry.rsplit('"').next().ok_or_else(|| bad("unit"))?;
            metrics.push(Metric { name: name.to_owned(), value, unit: unit.to_owned() });
        }
        Ok(Self { correct, attempted, failed, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let metric = |name: &str, value: f64, unit: &str| Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        };
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                metric("session_p50_ms", 1.2034, "ms"),
                metric("setup_s", 0.8127, "s"),
                metric("sessions_per_s", 1536.25, "1/s"),
                metric("core.index.build_mb_s", 2e-7, "MB/s"),
            ],
        }
    }

    #[test]
    fn the_result_line_has_the_contracts_shape() {
        let line = sample().to_json();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"session_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": "
        ));
        assert!(line.ends_with("\"unit\": \"MB/s\"}}}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn the_result_line_reads_back() {
        assert_eq!(RunResult::from_json(&sample().to_json()), Ok(sample()));
        let failed = RunResult { correct: false, failed: 3, ..sample() };
        assert_eq!(RunResult::from_json(&failed.to_json()), Ok(failed));
        assert!(RunResult::from_json("{}").is_err());
    }

    #[test]
    fn a_non_finite_value_is_written_as_zero() {
        let mut r = sample();
        r.metrics[0].value = f64::NAN;
        assert!(r.to_json().contains("\"session_p50_ms\": {\"value\": 0,"));
    }
}
