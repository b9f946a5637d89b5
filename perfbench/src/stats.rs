//! Medians and the result line.

use crate::ops::Checks;
use wmx_telemetry::json::{obj, Json};

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How the value was aggregated, for the readable table.
    note: String,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics {
    metrics: Vec<Metric>,
}

impl Metrics {
    /// A single value (a count, a ratio of counts, a peak).
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.sampled(name, value, unit, String::new());
    }

    /// A value aggregated over samples, described by `note`.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// A readable table: name, value, unit and how it was aggregated.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<36} {:>16.4} {:<8} {}\n",
                m.name, m.value, m.unit, m.note
            ));
        }
        out
    }

    /// The machine-readable last line of standard output.
    pub fn result_line(&self, checks: &Checks) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Json::Number(m.value)),
                        ("unit", Json::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(checks.failed == 0 && finite)),
            ("attempted", Json::Number(checks.attempted as f64)),
            ("failed", Json::Number(checks.failed as f64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_compact_string()
    }
}
