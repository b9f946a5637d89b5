//! Baseline store and per-metric comparator for the regression gate.
//!
//! A baseline is a checked-in JSON file (`crates/bench/baselines/`)
//! pinning the flattened metrics of a known-good [`BenchReport`] run.
//! Every metric is higher-is-better (see [`BenchReport::metrics`]) and
//! carries a *tolerance*: the allowed fractional drop below the pinned
//! value before the gate fails.
//!
//! * Robustness metrics (detection verdicts, match fractions) are
//!   deterministic under fixed seeds, so their tolerance is `0.0` —
//!   **any** drop fails the gate.
//! * Throughput varies across machines, so its default tolerance is
//!   generous ([`THROUGHPUT_TOLERANCE`]); the gate catches catastrophic
//!   regressions everywhere while stricter floors can be set per-metric
//!   by editing the baseline file.

use crate::report::{BenchReport, SCHEMA_VERSION};
use std::path::Path;
use wmx_telemetry::json::{obj, Json};

/// Default allowed fractional drop for `throughput/…` metrics when a
/// baseline is refreshed: the gate only fails when throughput falls
/// below 25% of the pinned value, which tolerates CI machine variance
/// but still catches order-of-magnitude regressions.
pub const THROUGHPUT_TOLERANCE: f64 = 0.75;

/// A pinned set of metric floors.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema version (shared with the report schema).
    pub schema_version: u32,
    /// The workload this baseline pins.
    pub workload: String,
    /// Pinned metrics.
    pub metrics: Vec<BaselineMetric>,
}

/// One pinned metric.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    /// Flattened metric name (see [`BenchReport::metrics`]).
    pub name: String,
    /// The pinned (known-good) value.
    pub value: f64,
    /// Allowed fractional drop: the floor is `value * (1 - tolerance)`.
    pub tolerance: f64,
}

impl BaselineMetric {
    /// The lowest current value that still passes.
    pub fn floor(&self) -> f64 {
        self.value * (1.0 - self.tolerance)
    }
}

/// Verdict for one baseline metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricStatus {
    /// Current value is at or above the floor.
    Pass,
    /// Current value is below the floor — the gate fails.
    Regressed,
    /// The metric is missing from the current report — the gate fails
    /// (a silently dropped measurement must not pass).
    Missing,
}

/// Comparison outcome for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricOutcome {
    /// Metric name.
    pub name: String,
    /// Pinned baseline value.
    pub baseline: f64,
    /// The floor the current value had to meet.
    pub floor: f64,
    /// Current value (`None` when missing).
    pub current: Option<f64>,
    /// Verdict.
    pub status: MetricStatus,
}

/// Full comparison of a report against a baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One outcome per baseline metric.
    pub outcomes: Vec<MetricOutcome>,
    /// Metrics present in the report but not pinned (informational —
    /// refresh the baseline to start gating them).
    pub new_metrics: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes (no regressed or missing metrics).
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == MetricStatus::Pass)
    }

    /// Names of failing metrics.
    pub fn failures(&self) -> Vec<&MetricOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status != MetricStatus::Pass)
            .collect()
    }

    /// Renders a human-readable verdict table.
    pub fn render(&self) -> String {
        let mut t =
            crate::table::Table::new(&["metric", "baseline", "floor", "current", "verdict"]);
        for o in &self.outcomes {
            t.row(vec![
                o.name.clone(),
                format!("{:.4}", o.baseline),
                format!("{:.4}", o.floor),
                o.current.map_or("-".into(), |v| format!("{v:.4}")),
                match o.status {
                    MetricStatus::Pass => "pass".into(),
                    MetricStatus::Regressed => "REGRESSED".into(),
                    MetricStatus::Missing => "MISSING".into(),
                },
            ]);
        }
        let mut out = t.render();
        if !self.new_metrics.is_empty() {
            out.push_str(&format!(
                "\nnew metrics not yet pinned ({}): {}\n",
                self.new_metrics.len(),
                self.new_metrics.join(", ")
            ));
        }
        out
    }
}

/// Compares a report's flattened metrics against a baseline.
pub fn compare(baseline: &Baseline, report: &BenchReport) -> Comparison {
    let current: Vec<(String, f64)> = report.metrics();
    let lookup = |name: &str| current.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let outcomes = baseline
        .metrics
        .iter()
        .map(|m| {
            let floor = m.floor();
            let value = lookup(&m.name);
            let status = match value {
                None => MetricStatus::Missing,
                Some(v) if v < floor => MetricStatus::Regressed,
                Some(_) => MetricStatus::Pass,
            };
            MetricOutcome {
                name: m.name.clone(),
                baseline: m.value,
                floor,
                current: value,
                status,
            }
        })
        .collect();
    let new_metrics = current
        .iter()
        .filter(|(name, _)| !baseline.metrics.iter().any(|m| &m.name == name))
        .map(|(name, _)| name.clone())
        .collect();
    Comparison {
        outcomes,
        new_metrics,
    }
}

/// Builds a fresh baseline from a report, applying the default
/// tolerances: [`THROUGHPUT_TOLERANCE`] for `throughput/…`, exact
/// (`0.0`) for robustness metrics.
pub fn baseline_from_report(report: &BenchReport) -> Baseline {
    Baseline {
        schema_version: SCHEMA_VERSION,
        workload: report.workload.clone(),
        metrics: report
            .metrics()
            .into_iter()
            .map(|(name, value)| {
                let tolerance = if name.starts_with("throughput/") {
                    THROUGHPUT_TOLERANCE
                } else {
                    0.0
                };
                BaselineMetric {
                    name,
                    value,
                    tolerance,
                }
            })
            .collect(),
    }
}

impl Baseline {
    /// Serializes to pretty JSON.
    pub fn to_json_string(&self) -> String {
        obj(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("workload", Json::String(self.workload.clone())),
            (
                "metrics",
                Json::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", Json::String(m.name.clone())),
                                ("value", Json::Number(m.value)),
                                ("tolerance", Json::Number(m.tolerance)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty_string()
    }

    /// Parses a baseline file's contents.
    pub fn from_json_str(text: &str) -> Result<Baseline, String> {
        let json = Json::parse(text).map_err(|e| format!("malformed baseline JSON: {e}"))?;
        let version = json
            .get("schema_version")
            .and_then(Json::as_usize)
            .ok_or("missing schema_version")? as u32;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported baseline schema version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing workload")?
            .to_string();
        let mut metrics = Vec::new();
        for m in json
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("missing metrics")?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing name")?
                .to_string();
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric missing value")?;
            let tolerance = m
                .get("tolerance")
                .and_then(Json::as_f64)
                .ok_or("metric missing tolerance")?;
            if !(0.0..=1.0).contains(&tolerance) {
                return Err(format!(
                    "metric {name:?} has tolerance {tolerance} outside [0, 1]"
                ));
            }
            metrics.push(BaselineMetric {
                name,
                value,
                tolerance,
            });
        }
        Ok(Baseline {
            schema_version: version,
            workload,
            metrics,
        })
    }

    /// Reads a baseline from a file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_str(&text)
    }

    /// Writes the baseline to a file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{RobustnessStat, RunContext, ThroughputStat};

    fn report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            workload: "unit".into(),
            context: RunContext {
                records: 100,
                gamma: 3,
                seed: 1,
                watermark_bits: 24,
                threshold: 0.85,
                workers: 2,
                peak_rss_kb: None,
            },
            throughput: vec![ThroughputStat {
                name: "embed".into(),
                iters: 3,
                p50_ms: 10.0,
                p90_ms: 11.0,
                min_ms: 9.0,
                max_ms: 11.0,
                mean_ms: 10.0,
                mb_per_s: 100.0,
                records_per_s: 10000.0,
                peak_resident_nodes: None,
                chunk_ms: vec![],
            }],
            robustness: vec![RobustnessStat {
                name: "e2@0.30".into(),
                experiment: "e2".into(),
                detected: true,
                match_fraction: 0.95,
                votes_ones: 10,
                votes_zeros: 5,
            }],
            forensics: vec![crate::report::Point::new("localize@0.05", &["precision"]).stat(&[1.0])],
            claims: vec![],
        }
    }

    #[test]
    fn fresh_baseline_passes_its_own_report() {
        let r = report();
        let b = baseline_from_report(&r);
        let cmp = compare(&b, &r);
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(cmp.new_metrics.is_empty());
        // Default tolerances: generous for throughput, exact for rates.
        let embed = b
            .metrics
            .iter()
            .find(|m| m.name == "throughput/embed/mb_per_s")
            .unwrap();
        assert_eq!(embed.tolerance, THROUGHPUT_TOLERANCE);
        let detected = b
            .metrics
            .iter()
            .find(|m| m.name == "robustness/e2@0.30/detected")
            .unwrap();
        assert_eq!(detected.tolerance, 0.0);
    }

    #[test]
    fn throughput_regression_beyond_tolerance_fails() {
        let r = report();
        let mut b = baseline_from_report(&r);
        // Inflate the pinned throughput so the current run looks 10x
        // slower than the recorded baseline.
        for m in &mut b.metrics {
            if m.name == "throughput/embed/mb_per_s" {
                m.value = 1000.0; // floor = 250 > current 100
            }
        }
        let cmp = compare(&b, &r);
        assert!(!cmp.passed());
        let failures = cmp.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "throughput/embed/mb_per_s");
        assert_eq!(failures[0].status, MetricStatus::Regressed);
        assert!(cmp.render().contains("REGRESSED"));
    }

    #[test]
    fn tolerance_boundary_is_inclusive() {
        let r = report(); // current mb_per_s = 100
        let mut b = baseline_from_report(&r);
        let m = b
            .metrics
            .iter_mut()
            .find(|m| m.name == "throughput/embed/mb_per_s")
            .unwrap();
        // Floor exactly equals the current value: 400 * (1 - 0.75) = 100.
        m.value = 400.0;
        assert!(compare(&b, &r).passed());
        // A hair above the boundary fails.
        let m = b
            .metrics
            .iter_mut()
            .find(|m| m.name == "throughput/embed/mb_per_s")
            .unwrap();
        m.value = 400.0001;
        assert!(!compare(&b, &r).passed());
    }

    #[test]
    fn any_detection_rate_drop_fails() {
        let mut r = report();
        let b = baseline_from_report(&report());
        r.robustness[0].detected = false;
        r.robustness[0].match_fraction = 0.80;
        let cmp = compare(&b, &r);
        let failing: Vec<&str> = cmp.failures().iter().map(|o| o.name.as_str()).collect();
        assert!(failing.contains(&"robustness/e2@0.30/detected"));
        assert!(failing.contains(&"robustness/e2@0.30/match_fraction"));
    }

    #[test]
    fn missing_metric_fails_and_new_metric_is_reported() {
        let r = report();
        let mut b = baseline_from_report(&r);
        b.metrics.push(BaselineMetric {
            name: "throughput/vanished/mb_per_s".into(),
            value: 10.0,
            tolerance: 0.5,
        });
        let cmp = compare(&b, &r);
        assert!(!cmp.passed());
        assert_eq!(cmp.failures()[0].status, MetricStatus::Missing);
        assert!(cmp.render().contains("MISSING"));

        // A metric the report gained but the baseline does not pin yet
        // is informational, not a failure.
        let mut b2 = baseline_from_report(&r);
        b2.metrics
            .retain(|m| m.name != "robustness/e2@0.30/match_fraction");
        let cmp2 = compare(&b2, &r);
        assert!(cmp2.passed());
        assert_eq!(cmp2.new_metrics, vec!["robustness/e2@0.30/match_fraction"]);
    }

    #[test]
    fn baseline_roundtrips_and_validates() {
        let b = baseline_from_report(&report());
        let parsed = Baseline::from_json_str(&b.to_json_string()).unwrap();
        assert_eq!(parsed, b);

        let bad = r#"{"schema_version": 1, "workload": "w", "metrics": [
            {"name": "m", "value": 1, "tolerance": 1.5}
        ]}"#;
        assert!(Baseline::from_json_str(bad)
            .unwrap_err()
            .contains("tolerance"));
        assert!(Baseline::from_json_str("{}").is_err());
    }
}
