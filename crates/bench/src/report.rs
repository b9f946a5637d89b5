//! The schema-versioned BENCH report: machine-readable perf and
//! robustness telemetry written to `BENCH_<workload>.json`.
//!
//! A report records two kinds of evidence, mirroring how the paper
//! evaluates WmXML:
//!
//! * **Throughput** for the pipeline entry points (DOM embed/detect,
//!   streaming embed/detect, parallel embed/detect) and the substrate
//!   stages (`parse`, `serialize`, `query_eval`), with wall-clock
//!   percentiles and MB/s + records/s derived by [`crate::measure`],
//!   plus streaming-only telemetry (resident-node high-water mark and
//!   per-chunk worker timings exposed by `wmx-stream`).
//! * **Robustness**: the detection verdict and vote tallies across the
//!   fixed E2/E3/E5/E10 attack grid — the survey's point that robustness
//!   claims are only meaningful as detection rates under a fixed grid.
//! * **Forensics**: deterministic tamper-localization and recovery
//!   scenarios (localization precision/recall, redundant-group recovery
//!   rate, fault-injection partial verdicts), flattened as
//!   `forensics/<scenario>/<metric>` and pinned with zero tolerance.
//! * **Claims**: the demonstration's remaining claims (capacity, the
//!   re-organization attack, key security, structure units; see
//!   [`crate::experiments`]), flattened as `claims/<point>/<metric>` and
//!   pinned with zero tolerance.
//!
//! The flattened metric view ([`BenchReport::metrics`]) is what the
//! baseline comparator gates on; every metric is oriented so that
//! *higher is better*.

use crate::measure::Measurement;
use std::path::{Path, PathBuf};
use wmx_core::DetectionReport;
use wmx_telemetry::json::{obj, Json};

/// Version of the BENCH JSON schema this crate writes and reads.
pub const SCHEMA_VERSION: u32 = 1;

/// One BENCH report (one workload run).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] on write; readers reject
    /// other versions).
    pub schema_version: u32,
    /// Workload name; the report file is `BENCH_<workload>.json`.
    pub workload: String,
    /// The deterministic run parameters.
    pub context: RunContext,
    /// Throughput per pipeline entry point.
    pub throughput: Vec<ThroughputStat>,
    /// Detection outcome per attack-grid point.
    pub robustness: Vec<RobustnessStat>,
    /// Deterministic forensic-scenario metrics (localization, recovery,
    /// fault injection). Absent from pre-forensics reports, which read
    /// back as an empty list.
    pub forensics: Vec<ScenarioStat>,
    /// Deterministic demonstration-claim metrics (E1/E4/E6/E8). Absent
    /// from older reports, which read back as an empty list.
    pub claims: Vec<ScenarioStat>,
}

/// Deterministic parameters of a report run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunContext {
    /// Records in the generated dataset.
    pub records: usize,
    /// Selection density γ.
    pub gamma: u32,
    /// Dataset generator seed.
    pub seed: u64,
    /// Watermark length in bits.
    pub watermark_bits: usize,
    /// Detection threshold τ.
    pub threshold: f64,
    /// Worker threads used by the parallel streaming measurements.
    pub workers: usize,
    /// Peak RSS of the measuring process in KiB (absent off Linux).
    pub peak_rss_kb: Option<u64>,
}

/// Latency/throughput statistics for one pipeline entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputStat {
    /// Entry point: `embed`, `detect`, `stream_embed`, `stream_detect`,
    /// `par_embed`, `par_detect`, `parse`, `serialize`, or `query_eval`
    /// (for `query_eval`, `records_per_s` counts queries per second).
    pub name: String,
    /// Timed iterations behind the percentiles.
    pub iters: usize,
    /// Median wall-clock per iteration, ms.
    pub p50_ms: f64,
    /// 90th-percentile wall-clock, ms.
    pub p90_ms: f64,
    /// Fastest iteration, ms.
    pub min_ms: f64,
    /// Slowest iteration, ms.
    pub max_ms: f64,
    /// Mean wall-clock, ms.
    pub mean_ms: f64,
    /// Document MB/s over the median iteration.
    pub mb_per_s: f64,
    /// Records/s over the median iteration.
    pub records_per_s: f64,
    /// Streaming only: resident-node high-water mark.
    pub peak_resident_nodes: Option<usize>,
    /// Streaming only: per-chunk wall-clock (ms) from the last timed
    /// iteration (one entry sequentially, one per worker chunk in
    /// parallel).
    pub chunk_ms: Vec<f64>,
}

impl ThroughputStat {
    /// Builds the stat from a [`Measurement`].
    pub fn from_measurement(name: &str, m: &Measurement) -> ThroughputStat {
        ThroughputStat {
            name: name.to_string(),
            iters: m.samples_ns.len(),
            p50_ms: m.median_ms(),
            p90_ms: m.percentile_ms(90.0),
            min_ms: m.min_ms(),
            max_ms: m.max_ms(),
            mean_ms: m.mean_ms(),
            mb_per_s: m.mb_per_s(),
            records_per_s: m.records_per_s(),
            peak_resident_nodes: None,
            chunk_ms: Vec::new(),
        }
    }

    /// Attaches the streaming telemetry `wmx-stream` reports expose.
    pub fn with_stream_telemetry(
        mut self,
        peak_resident_nodes: usize,
        chunk_timings: &[wmx_stream::ChunkTiming],
    ) -> ThroughputStat {
        self.peak_resident_nodes = Some(peak_resident_nodes);
        self.chunk_ms = chunk_timings
            .iter()
            .map(|t| t.micros as f64 / 1e3)
            .collect();
        self
    }
}

/// Detection outcome for one point of the attack grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessStat {
    /// Grid-point name, e.g. `e2_alteration@0.30`.
    pub name: String,
    /// The experiment family (`e2`, `e3`, `e5`, `e10`).
    pub experiment: String,
    /// Whether the watermark was declared detected.
    pub detected: bool,
    /// Matched fraction over voted bits.
    pub match_fraction: f64,
    /// Total votes for 1 across all bits (from `wmx-core`'s tallies).
    pub votes_ones: usize,
    /// Total votes for 0 across all bits.
    pub votes_zeros: usize,
}

impl RobustnessStat {
    /// Builds the stat from a detection report.
    pub fn from_detection(name: &str, experiment: &str, d: &DetectionReport) -> RobustnessStat {
        let (votes_ones, votes_zeros) = d.vote_totals();
        RobustnessStat {
            name: name.to_string(),
            experiment: experiment.to_string(),
            detected: d.detected,
            match_fraction: d.match_fraction(),
            votes_ones,
            votes_zeros,
        }
    }
}

/// Metrics of one deterministic scenario (a forensic scenario or a
/// demonstration claim).
///
/// Unlike [`ThroughputStat`], every value here is a pure function of
/// the suite seeds (selection is keyed-PRF-driven and the attacks are
/// explicitly seeded), so the baseline pins them with tolerance `0.0`
/// exactly like the robustness grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStat {
    /// Scenario name, e.g. `localize@0.05` or `e6_key_security/wrong_keys`.
    pub name: String,
    /// Named metric values, flattened as `<section>/<name>/<metric>`.
    pub values: Vec<(String, f64)>,
}

/// A pinned scenario row: its name and the metric keys it reports, in
/// order. The suite builds its rows from these and the gate derives the
/// expected metric names from the same constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Scenario name.
    pub name: &'static str,
    /// Metric keys, in emission order.
    pub metrics: &'static [&'static str],
}

impl Point {
    /// A point named `name` reporting `metrics`.
    pub const fn new(name: &'static str, metrics: &'static [&'static str]) -> Point {
        Point { name, metrics }
    }

    /// The row holding `values`, one per metric key in order.
    pub fn stat(&self, values: &[f64]) -> ScenarioStat {
        assert_eq!(
            values.len(),
            self.metrics.len(),
            "{}: one value per metric",
            self.name
        );
        ScenarioStat {
            name: self.name.to_string(),
            values: self
                .metrics
                .iter()
                .zip(values)
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

impl BenchReport {
    /// The canonical file name, `BENCH_<workload>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.workload)
    }

    /// Writes the report into `dir` under [`BenchReport::file_name`].
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }

    /// Serializes to pretty JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("schema_version", Json::Number(self.schema_version as f64)),
            ("workload", Json::String(self.workload.clone())),
            (
                "context",
                obj(vec![
                    ("records", Json::Number(self.context.records as f64)),
                    ("gamma", Json::Number(self.context.gamma as f64)),
                    ("seed", Json::Number(self.context.seed as f64)),
                    (
                        "watermark_bits",
                        Json::Number(self.context.watermark_bits as f64),
                    ),
                    ("threshold", Json::Number(self.context.threshold)),
                    ("workers", Json::Number(self.context.workers as f64)),
                    (
                        "peak_rss_kb",
                        self.context
                            .peak_rss_kb
                            .map_or(Json::Null, |kb| Json::Number(kb as f64)),
                    ),
                ]),
            ),
            (
                "throughput",
                Json::Array(
                    self.throughput
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("name", Json::String(t.name.clone())),
                                ("iters", Json::Number(t.iters as f64)),
                                ("p50_ms", Json::Number(t.p50_ms)),
                                ("p90_ms", Json::Number(t.p90_ms)),
                                ("min_ms", Json::Number(t.min_ms)),
                                ("max_ms", Json::Number(t.max_ms)),
                                ("mean_ms", Json::Number(t.mean_ms)),
                                ("mb_per_s", Json::Number(t.mb_per_s)),
                                ("records_per_s", Json::Number(t.records_per_s)),
                                (
                                    "peak_resident_nodes",
                                    t.peak_resident_nodes
                                        .map_or(Json::Null, |n| Json::Number(n as f64)),
                                ),
                                (
                                    "chunk_ms",
                                    Json::Array(
                                        t.chunk_ms.iter().map(|&ms| Json::Number(ms)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "robustness",
                Json::Array(
                    self.robustness
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("name", Json::String(r.name.clone())),
                                ("experiment", Json::String(r.experiment.clone())),
                                ("detected", Json::Bool(r.detected)),
                                ("match_fraction", Json::Number(r.match_fraction)),
                                ("votes_ones", Json::Number(r.votes_ones as f64)),
                                ("votes_zeros", Json::Number(r.votes_zeros as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("forensics", scenarios_to_json(&self.forensics)),
            ("claims", scenarios_to_json(&self.claims)),
        ])
    }

    /// Parses a report, rejecting unknown schema versions.
    pub fn from_json_str(text: &str) -> Result<BenchReport, String> {
        let json = Json::parse(text).map_err(|e| format!("malformed BENCH JSON: {e}"))?;
        let version = json
            .get("schema_version")
            .and_then(Json::as_usize)
            .ok_or("missing schema_version")? as u32;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported BENCH schema version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing workload")?
            .to_string();
        let ctx = json.get("context").ok_or("missing context")?;
        let context = RunContext {
            records: field_usize(ctx, "records")?,
            gamma: field_usize(ctx, "gamma")? as u32,
            seed: field_usize(ctx, "seed")? as u64,
            watermark_bits: field_usize(ctx, "watermark_bits")?,
            threshold: field_f64(ctx, "threshold")?,
            workers: field_usize(ctx, "workers")?,
            peak_rss_kb: ctx
                .get("peak_rss_kb")
                .and_then(Json::as_usize)
                .map(|kb| kb as u64),
        };
        let mut throughput = Vec::new();
        for t in json
            .get("throughput")
            .and_then(Json::as_array)
            .ok_or("missing throughput")?
        {
            throughput.push(ThroughputStat {
                name: field_str(t, "name")?,
                iters: field_usize(t, "iters")?,
                p50_ms: field_f64(t, "p50_ms")?,
                p90_ms: field_f64(t, "p90_ms")?,
                min_ms: field_f64(t, "min_ms")?,
                max_ms: field_f64(t, "max_ms")?,
                mean_ms: field_f64(t, "mean_ms")?,
                mb_per_s: field_f64(t, "mb_per_s")?,
                records_per_s: field_f64(t, "records_per_s")?,
                peak_resident_nodes: t.get("peak_resident_nodes").and_then(Json::as_usize),
                chunk_ms: t
                    .get("chunk_ms")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
            });
        }
        let mut robustness = Vec::new();
        for r in json
            .get("robustness")
            .and_then(Json::as_array)
            .ok_or("missing robustness")?
        {
            robustness.push(RobustnessStat {
                name: field_str(r, "name")?,
                experiment: field_str(r, "experiment")?,
                detected: r
                    .get("detected")
                    .and_then(Json::as_bool)
                    .ok_or("missing detected")?,
                match_fraction: field_f64(r, "match_fraction")?,
                votes_ones: field_usize(r, "votes_ones")?,
                votes_zeros: field_usize(r, "votes_zeros")?,
            });
        }
        // Tolerant of the sections' absence: reports written before the
        // forensic or claim suites existed stay readable.
        let forensics = scenarios_from_json(&json, "forensics")?;
        let claims = scenarios_from_json(&json, "claims")?;
        Ok(BenchReport {
            schema_version: version,
            workload,
            context,
            throughput,
            robustness,
            forensics,
            claims,
        })
    }

    /// Reads a report from a file.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_str(&text)
    }

    /// Flattens the report into named gateable metrics. Every metric is
    /// oriented higher-is-better:
    ///
    /// * `throughput/<name>/mb_per_s` and `.../records_per_s`
    /// * `robustness/<name>/detected` (1.0 or 0.0)
    /// * `robustness/<name>/match_fraction`
    /// * `forensics/<name>/<metric>` (deterministic, pinned exactly)
    /// * `claims/<name>/<metric>` (deterministic, pinned exactly)
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for t in &self.throughput {
            out.push((format!("throughput/{}/mb_per_s", t.name), t.mb_per_s));
            out.push((
                format!("throughput/{}/records_per_s", t.name),
                t.records_per_s,
            ));
        }
        for r in &self.robustness {
            out.push((
                format!("robustness/{}/detected", r.name),
                if r.detected { 1.0 } else { 0.0 },
            ));
            out.push((
                format!("robustness/{}/match_fraction", r.name),
                r.match_fraction,
            ));
        }
        for (section, stats) in [("forensics", &self.forensics), ("claims", &self.claims)] {
            for f in stats {
                for (metric, value) in &f.values {
                    out.push((format!("{section}/{}/{metric}", f.name), *value));
                }
            }
        }
        out
    }
}

fn scenarios_to_json(stats: &[ScenarioStat]) -> Json {
    Json::Array(
        stats
            .iter()
            .map(|f| {
                obj(vec![
                    ("name", Json::String(f.name.clone())),
                    (
                        "values",
                        Json::Array(
                            f.values
                                .iter()
                                .map(|(k, v)| {
                                    obj(vec![
                                        ("name", Json::String(k.clone())),
                                        ("value", Json::Number(*v)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn scenarios_from_json(json: &Json, section: &str) -> Result<Vec<ScenarioStat>, String> {
    let mut stats = Vec::new();
    for f in json.get(section).and_then(Json::as_array).unwrap_or(&[]) {
        let mut values = Vec::new();
        for v in f.get("values").and_then(Json::as_array).unwrap_or(&[]) {
            values.push((field_str(v, "name")?, field_f64(v, "value")?));
        }
        stats.push(ScenarioStat {
            name: field_str(f, "name")?,
            values,
        });
    }
    Ok(stats)
}

fn field_f64(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn field_usize(json: &Json, key: &str) -> Result<usize, String> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn field_str(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            workload: "unit".into(),
            context: RunContext {
                records: 400,
                gamma: 3,
                seed: 2005,
                watermark_bits: 24,
                threshold: 0.85,
                workers: 2,
                peak_rss_kb: Some(51200),
            },
            throughput: vec![
                ThroughputStat {
                    name: "embed".into(),
                    iters: 3,
                    p50_ms: 10.0,
                    p90_ms: 12.0,
                    min_ms: 9.5,
                    max_ms: 12.0,
                    mean_ms: 10.5,
                    mb_per_s: 85.5,
                    records_per_s: 40000.0,
                    peak_resident_nodes: None,
                    chunk_ms: vec![],
                },
                ThroughputStat {
                    name: "stream_embed".into(),
                    iters: 3,
                    p50_ms: 8.0,
                    p90_ms: 9.0,
                    min_ms: 7.5,
                    max_ms: 9.0,
                    mean_ms: 8.2,
                    mb_per_s: 110.0,
                    records_per_s: 50000.0,
                    peak_resident_nodes: Some(17),
                    chunk_ms: vec![4.1, 3.9],
                },
            ],
            robustness: vec![RobustnessStat {
                name: "e2_alteration@0.30".into(),
                experiment: "e2".into(),
                detected: true,
                match_fraction: 1.0,
                votes_ones: 321,
                votes_zeros: 123,
            }],
            forensics: vec![Point::new("localize@0.05", &["precision", "recall"]).stat(&[1.0, 1.0])],
            claims: vec![
                Point::new("e6_key_security/wrong_keys", &["rejected_frac"]).stat(&[0.995])
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(report.file_name(), "BENCH_unit.json");
    }

    #[test]
    fn absent_optionals_roundtrip_as_null() {
        let mut report = sample_report();
        report.context.peak_rss_kb = None;
        let parsed = BenchReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(parsed.context.peak_rss_kb, None);
        assert_eq!(parsed.throughput[0].peak_resident_nodes, None);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut report = sample_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json_str(&report.to_json_string()).unwrap_err();
        assert!(err.contains("unsupported BENCH schema version"), "{err}");
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        assert!(BenchReport::from_json_str("{}")
            .unwrap_err()
            .contains("schema_version"));
        let no_workload = format!("{{\"schema_version\": {SCHEMA_VERSION}}}");
        assert!(BenchReport::from_json_str(&no_workload)
            .unwrap_err()
            .contains("workload"));
        assert!(BenchReport::from_json_str("not json").is_err());
    }

    #[test]
    fn metrics_flatten_higher_is_better() {
        let metrics = sample_report().metrics();
        let find = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(find("throughput/embed/mb_per_s"), 85.5);
        assert_eq!(find("throughput/stream_embed/records_per_s"), 50000.0);
        assert_eq!(find("robustness/e2_alteration@0.30/detected"), 1.0);
        assert_eq!(find("robustness/e2_alteration@0.30/match_fraction"), 1.0);
        assert_eq!(find("forensics/localize@0.05/precision"), 1.0);
        assert_eq!(find("forensics/localize@0.05/recall"), 1.0);
        assert_eq!(
            find("claims/e6_key_security/wrong_keys/rejected_frac"),
            0.995
        );
        assert_eq!(metrics.len(), 9);
    }

    #[test]
    fn reports_without_a_forensics_section_still_parse() {
        let mut report = sample_report();
        report.forensics.clear();
        report.claims.clear();
        let text = report.to_json_string();
        // Simulate a pre-forensics report by dropping both scenario
        // sections (the preceding commas go too).
        let stripped = text
            .replace(",\n  \"forensics\": []", "")
            .replace(",\n  \"claims\": []", "");
        assert!(!stripped.contains("forensics") && !stripped.contains("claims"));
        let parsed = BenchReport::from_json_str(&stripped).expect("old schema parses");
        assert!(parsed.forensics.is_empty());
        assert!(parsed.claims.is_empty());
        assert_eq!(parsed.robustness, report.robustness);
    }

    #[test]
    fn write_to_dir_uses_canonical_name() {
        let dir = std::env::temp_dir().join("wmx-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_report().write_to_dir(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        assert_eq!(BenchReport::load(&path).unwrap(), sample_report());
    }
}
