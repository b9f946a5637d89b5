//! The regression gate: runs a deterministic-seed measurement suite,
//! writes `BENCH_<workload>.json`, and compares it against a checked-in
//! baseline (`crates/bench/baselines/<workload>.json`).
//!
//! Exit-code contract (used by the `gate` binary and CI):
//!
//! * `0` — every pinned metric is at or above its floor.
//! * `2` — a throughput metric regressed past its tolerance, a
//!   deterministic metric (robustness, forensics, claims) dropped at
//!   all, or a pinned metric vanished from the report.
//! * `1` — operational failure (unreadable baseline, I/O error); the
//!   binary maps `Err` to this.

use crate::baseline::{baseline_from_report, compare, Baseline, Comparison};
use crate::experiments::{self, Rows, CLAIM_POINTS};
use crate::measure::{peak_rss_kb, MeasureConfig, Measurement};
use crate::report::{BenchReport, Point, RunContext, ScenarioStat, ThroughputStat, SCHEMA_VERSION};
use crate::workloads::{
    escape_microbench_input, marked_publications, streaming_publications, MarkedWorkload,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wmx_attacks::{GarbleAttack, GarbleMode, TruncationAttack};
use wmx_core::{
    detect, detect_forensic, embed, DetectionInput, ForensicContext, UnitStatus, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::publications::{self, PublicationsConfig};
use wmx_telemetry::json::Json;

/// Parameters of one gate suite run. All seeds are fixed so the
/// robustness grid is bit-for-bit reproducible across machines.
#[derive(Debug, Clone)]
pub struct SuiteParams {
    /// Workload name (names the report and baseline files).
    pub workload: String,
    /// Records in the throughput dataset.
    pub records: usize,
    /// Distinct editors (FD determinant cardinality).
    pub editors: usize,
    /// Selection density γ.
    pub gamma: u32,
    /// Dataset generator seed.
    pub seed: u64,
    /// Timed iterations per throughput measurement.
    pub iters: usize,
    /// Untimed warmup iterations.
    pub warmup: usize,
    /// Worker threads for the parallel streaming measurements.
    pub workers: usize,
}

/// Detection threshold τ used by every suite detection.
pub const THRESHOLD: f64 = 0.85;

/// The throughput entry points every suite measures. Besides the six
/// pipeline entry points, the suite pins the substrate stages the
/// interned-DOM and symbol-native refactors target: `parse`
/// (text → DOM), `serialize` (DOM → text), `query_eval` (the
/// safeguarded identity-query set re-evaluated against the marked
/// document — the detection hot path in isolation; its `records_per_s`
/// reads as queries/s), and `unit_select` (unit enumeration + keyed
/// PRF selection over every unit, no marking — the `UnitKey` layer in
/// isolation; its `records_per_s` reads as units/s). `stream_detect`'s
/// `records_per_s` doubles as the streaming per-record detect gauge.
/// `batch_detect` re-answers the same query set through
/// [`wmx_xpath::batch_select`] — one shared scan per identity-query
/// family instead of one evaluator pass per query; the contrast with
/// `query_eval` is the batch-detection speedup in isolation.
/// `parse_escape_free` / `parse_unescape_heavy` parse two synthetic
/// documents of identical shape, one with no entity references (all
/// values stay zero-copy spans) and one with references in every value
/// (all values materialize through unescape) — the pair brackets the
/// lexer's escape economy.
pub const THROUGHPUT_NAMES: [&str; 13] = [
    "embed",
    "detect",
    "stream_embed",
    "stream_detect",
    "par_embed",
    "par_detect",
    "parse",
    "parse_escape_free",
    "parse_unescape_heavy",
    "serialize",
    "query_eval",
    "unit_select",
    "batch_detect",
];

/// The forensic scenarios, in emission order. Every metric is a
/// deterministic function of the suite seeds, so the baseline pins them
/// with zero tolerance (like the robustness grid):
///
/// * `localize@0.05` — 5% of the selected numeric units perturbed;
///   `precision`/`recall` of suspect-record localization against the
///   known damage set.
/// * `recover@r3` — redundancy-3 embedding with every 8th year
///   perturbed; `rate` is recovered/(suspect+recovered+unrecoverable)
///   units, `detected` the verdict after group decode.
/// * `fault_truncate@0.60` — marked stream cut at 60% of its bytes;
///   `partial` is 1.0 iff the fault-tolerant decoder salvaged a
///   truncated partial verdict that still detects the mark.
/// * `fault_garble` — a digit-scrambled byte window mid-stream;
///   `isolated` is 1.0 iff detection survives and the suspects form a
///   non-empty strict subset of the records.
const FORENSIC_POINTS: [Point; 4] = [LOCALIZE, RECOVER, FAULT_TRUNCATE, FAULT_GARBLE];
const LOCALIZE: Point = Point::new("localize@0.05", &["precision", "recall"]);
const RECOVER: Point = Point::new("recover@r3", &["rate", "detected"]);
const FAULT_TRUNCATE: Point = Point::new("fault_truncate@0.60", &["partial"]);
const FAULT_GARBLE: Point = Point::new("fault_garble", &["isolated"]);

impl SuiteParams {
    /// The CI smoke suite: small and fast, deterministic seeds.
    pub fn smoke() -> SuiteParams {
        SuiteParams {
            workload: "smoke".into(),
            records: 400,
            editors: 10,
            gamma: 3,
            seed: 2005,
            iters: 3,
            warmup: 1,
            workers: 2,
        }
    }

    /// A heavier local suite (same grid, larger documents).
    pub fn full() -> SuiteParams {
        SuiteParams {
            workload: "full".into(),
            records: 2000,
            editors: 40,
            gamma: 3,
            seed: 2005,
            iters: 5,
            warmup: 1,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
        }
    }

    /// The marked publications workload every scenario runs against.
    pub fn marked_workload(&self) -> MarkedWorkload {
        marked_publications(self.records, self.editors, self.gamma, self.seed)
    }

    /// The flattened metric names a run of this suite will produce, in
    /// order, without running it — used to validate that a checked-in
    /// baseline still lines up with the suite.
    pub fn expected_metric_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in THROUGHPUT_NAMES {
            out.push(format!("throughput/{name}/mb_per_s"));
            out.push(format!("throughput/{name}/records_per_s"));
        }
        for point in experiments::robustness_points() {
            out.push(format!("robustness/{point}/detected"));
            out.push(format!("robustness/{point}/match_fraction"));
        }
        for (section, points) in [
            ("forensics", &FORENSIC_POINTS[..]),
            ("claims", &CLAIM_POINTS),
        ] {
            for point in points {
                for metric in point.metrics {
                    out.push(format!("{section}/{}/{metric}", point.name));
                }
            }
        }
        out
    }
}

/// Runs the measurement suite and assembles the report.
pub fn run_suite(p: &SuiteParams) -> BenchReport {
    run_suite_full(p).0
}

/// Runs the measurement suite and also returns the forensic-scenario
/// artifact (the record-level localization detail behind the flattened
/// `forensics/…` metrics) the gate writes to `FORENSICS_<workload>.json`.
pub fn run_suite_full(p: &SuiteParams) -> (BenchReport, Json) {
    let mcfg = MeasureConfig {
        warmup: p.warmup,
        iters: p.iters,
    };
    let w = p.marked_workload();
    let sw = streaming_publications(p.records, p.editors, p.gamma, p.seed);
    let input_bytes = sw.input.len() as u64;
    let records = p.records as u64;

    let mut throughput = Vec::new();

    // DOM embed (includes the copy of the original, as any caller pays it).
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let mut doc = w.original.clone();
        embed(
            &mut doc,
            &w.dataset.binding,
            &w.dataset.fds,
            &w.dataset.config,
            &w.key,
            &w.watermark,
        )
        .expect("embed");
    });
    throughput.push(ThroughputStat::from_measurement("embed", &m));

    // DOM detect over the safeguarded query set.
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let d = detect(
            &w.marked,
            &DetectionInput {
                queries: &w.report.queries,
                key: w.key.clone(),
                watermark: w.watermark.clone(),
                threshold: THRESHOLD,
                mapping: None,
            },
        );
        assert!(d.detected, "suite detect must recover the mark");
    });
    throughput.push(ThroughputStat::from_measurement("detect", &m));

    // Streaming embed (sequential, bounded memory). The last timed
    // iteration's output doubles as the detect input below.
    let mut stream_result = None;
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let mut out = Vec::with_capacity(sw.input.len());
        let report = wmx_stream::stream_embed(
            sw.input.as_bytes(),
            &mut out,
            sw.ctx(),
            &sw.key,
            &sw.watermark,
        )
        .expect("stream embed");
        stream_result = Some((report, out));
    });
    let (stream_report, marked_bytes) = stream_result.expect("at least one iteration ran");
    let marked_text = String::from_utf8(marked_bytes).expect("XML output is UTF-8");
    throughput.push(
        ThroughputStat::from_measurement("stream_embed", &m).with_stream_telemetry(
            stream_report.peak_resident_nodes,
            &stream_report.chunk_timings,
        ),
    );

    // Streaming detect (query-free).
    let mut detect_report = None;
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        detect_report = Some(
            wmx_stream::stream_detect(
                marked_text.as_bytes(),
                sw.ctx(),
                &sw.key,
                &sw.watermark,
                THRESHOLD,
            )
            .expect("stream detect"),
        );
    });
    let detect_report = detect_report.expect("at least one iteration ran");
    assert!(detect_report.report.detected);
    throughput.push(
        ThroughputStat::from_measurement("stream_detect", &m).with_stream_telemetry(
            detect_report.peak_resident_nodes,
            &detect_report.chunk_timings,
        ),
    );

    // Parallel streaming embed/detect (per-chunk worker timings).
    let mut par_report = None;
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let (_, r) = wmx_stream::par_embed(&sw.input, p.workers, sw.ctx(), &sw.key, &sw.watermark)
            .expect("par embed");
        par_report = Some(r);
    });
    let par_report = par_report.expect("at least one iteration ran");
    throughput.push(
        ThroughputStat::from_measurement("par_embed", &m)
            .with_stream_telemetry(par_report.peak_resident_nodes, &par_report.chunk_timings),
    );

    let mut par_detect_report = None;
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        par_detect_report = Some(
            wmx_stream::par_detect(
                &marked_text,
                p.workers,
                sw.ctx(),
                &sw.key,
                &sw.watermark,
                THRESHOLD,
            )
            .expect("par detect"),
        );
    });
    let par_detect_report = par_detect_report.expect("at least one iteration ran");
    throughput.push(
        ThroughputStat::from_measurement("par_detect", &m).with_stream_telemetry(
            par_detect_report.peak_resident_nodes,
            &par_detect_report.chunk_timings,
        ),
    );

    // DOM parse of the serialized input — the substrate cost every
    // pipeline pays first (lexing, interning, tree build).
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let doc = wmx_xml::parse(&sw.input).expect("suite parse");
        assert!(doc.root_element().is_some());
    });
    throughput.push(ThroughputStat::from_measurement("parse", &m));

    // Escape-economy microbench pair: same document shape, one input
    // entirely free of entity references (every text/attribute value
    // stays a zero-copy span of the parse buffer) and one salted with
    // references in every value (every value materializes through
    // unescape). The gap between the two isolates the cost of the
    // copy-and-rewrite path that clean input now skips.
    let escape_free = escape_microbench_input(p.records, false);
    let m = Measurement::run(&mcfg, escape_free.len() as u64, records, || {
        let doc = wmx_xml::parse(&escape_free).expect("escape-free parse");
        assert!(doc.root_element().is_some());
    });
    throughput.push(ThroughputStat::from_measurement("parse_escape_free", &m));

    let unescape_heavy = escape_microbench_input(p.records, true);
    let m = Measurement::run(&mcfg, unescape_heavy.len() as u64, records, || {
        let doc = wmx_xml::parse(&unescape_heavy).expect("unescape-heavy parse");
        assert!(doc.root_element().is_some());
    });
    throughput.push(ThroughputStat::from_measurement("parse_unescape_heavy", &m));

    // Compact serialization of the marked document (symbol resolution +
    // escaping; must stay byte-identical and fast).
    let m = Measurement::run(&mcfg, input_bytes, records, || {
        let out = wmx_xml::to_string(&w.marked);
        assert!(!out.is_empty());
    });
    throughput.push(ThroughputStat::from_measurement("serialize", &m));

    // Identity-query evaluation: the safeguarded query set re-executed
    // against the marked document, exactly what detection does per
    // unit. records_per_iter is the query count, so `records_per_s`
    // reads as queries evaluated per second.
    let queries: Vec<wmx_xpath::Query> = w
        .report
        .queries
        .iter()
        .map(|q| q.xpath.parse().expect("stored query compiles"))
        .collect();
    assert!(!queries.is_empty(), "suite embeds at least one unit");
    let m = Measurement::run(&mcfg, input_bytes, queries.len() as u64, || {
        let mut located = 0usize;
        for q in &queries {
            located += q.select(&w.marked).len();
        }
        assert!(located > 0, "identity queries must locate nodes");
    });
    throughput.push(ThroughputStat::from_measurement("query_eval", &m));

    // Symbol-native unit selection in isolation: execute the compiled
    // selection plan and run the keyed PRF selection over every unit's
    // compact key — the shared front half of embed and streaming
    // detect. records_per_iter is the unit count, so `records_per_s`
    // reads as units selected per second.
    let plan =
        wmx_core::SelectionPlan::compile(&w.dataset.binding, &w.dataset.fds, &w.dataset.config)
            .expect("suite plan compiles");
    let table = plan.table();
    let unit_count = plan.execute(&w.marked).len() as u64;
    assert!(unit_count > 0, "suite workload has units");
    let marker = wmx_core::UnitMarker::new(w.key.clone());
    let m = Measurement::run(&mcfg, input_bytes, unit_count, || {
        let units = plan.execute(&w.marked);
        let selected = units
            .iter()
            .filter(|u| marker.is_selected(&u.key.id(table), w.dataset.config.gamma))
            .count();
        assert!(selected > 0, "selection must pick units at gamma");
    });
    throughput.push(ThroughputStat::from_measurement("unit_select", &m));

    // Batched identity-query evaluation: the safeguarded query set
    // answered through `batch_select`, which groups queries by family
    // and runs one shared instance scan + key-path evaluation per
    // group. records_per_iter is the query count, so `records_per_s`
    // reads as queries answered per second, directly comparable to
    // `query_eval` above.
    let m = Measurement::run(&mcfg, input_bytes, queries.len() as u64, || {
        let evaluator = wmx_xpath::Evaluator::new(&w.marked);
        let answers = wmx_xpath::batch_select(&evaluator, &queries);
        let mut located = 0usize;
        for (q, batch) in queries.iter().zip(&answers) {
            located += match batch {
                Some(nodes) => nodes.len(),
                None => q.select_with(&evaluator).len(),
            };
        }
        assert!(located > 0, "batched identity queries must locate nodes");
    });
    throughput.push(ThroughputStat::from_measurement("batch_detect", &m));

    let (forensics, forensics_artifact) = forensics_grid(p, &w, &sw, &marked_text);
    let mut robustness = Vec::new();
    let mut claims = Vec::new();
    for experiment in experiments::run(p, &w) {
        match experiment.rows {
            Rows::Robustness(rows) => robustness.extend(rows),
            Rows::Claims(rows) => claims.extend(rows),
        }
    }
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        workload: p.workload.clone(),
        context: RunContext {
            records: p.records,
            gamma: p.gamma,
            seed: p.seed,
            watermark_bits: w.watermark.len(),
            threshold: THRESHOLD,
            workers: p.workers,
            peak_rss_kb: peak_rss_kb(),
        },
        throughput,
        robustness,
        forensics,
        claims,
    };
    (report, forensics_artifact)
}

fn tobj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The deterministic forensic-scenario grid (see [`FORENSIC_POINTS`]):
/// flattened gate metrics plus the record-level artifact written to
/// `FORENSICS_<workload>.json`.
fn forensics_grid(
    p: &SuiteParams,
    w: &MarkedWorkload,
    sw: &crate::StreamingWorkload,
    marked_stream: &str,
) -> (Vec<ScenarioStat>, Json) {
    let mut stats = Vec::new();
    let mut scenarios = Vec::new();

    // localize@0.05 — perturb 5% of the selected numeric units (the +7
    // flips the parity mark) and demand that the suspect records the
    // forensic pass flags are exactly the damaged ones.
    {
        let plan =
            wmx_core::SelectionPlan::compile(&w.dataset.binding, &w.dataset.fds, &w.dataset.config)
                .expect("forensic plan compiles");
        let table = plan.table();
        let units = plan.execute(&w.marked);
        let marker = wmx_core::UnitMarker::new(w.key.clone());
        let mut doc = w.marked.clone();
        let mut damaged: BTreeSet<String> = BTreeSet::new();
        let mut numeric_seen = 0usize;
        for unit in &units {
            if !marker.is_selected(&unit.key.id(table), w.dataset.config.gamma) {
                continue;
            }
            let Ok(year) = unit.nodes[0].string_value(&doc).parse::<i64>() else {
                continue;
            };
            numeric_seen += 1;
            if !numeric_seen.is_multiple_of(20) {
                continue;
            }
            wmx_core::write_value(&mut doc, &unit.nodes[0], &(year + 7).to_string())
                .expect("damage year");
            damaged.insert(unit.key.record_scope(table));
        }
        assert!(!damaged.is_empty(), "localize scenario must damage records");
        let d = detect_forensic(
            &doc,
            &DetectionInput {
                queries: &w.report.queries,
                key: w.key.clone(),
                watermark: w.watermark.clone(),
                threshold: THRESHOLD,
                mapping: None,
            },
            ForensicContext {
                binding: &w.dataset.binding,
                fds: &w.dataset.fds,
                config: &w.dataset.config,
            },
        )
        .expect("localize forensic detect");
        let f = d.forensics.as_ref().expect("forensics attached");
        let suspects: BTreeSet<String> = f
            .records
            .iter()
            .filter(|r| r.status == UnitStatus::Suspect)
            .map(|r| r.record.clone())
            .collect();
        let hits = suspects.intersection(&damaged).count() as f64;
        let precision = if suspects.is_empty() {
            0.0
        } else {
            hits / suspects.len() as f64
        };
        let recall = hits / damaged.len() as f64;
        stats.push(LOCALIZE.stat(&[precision, recall]));
        scenarios.push(tobj(vec![
            ("name", Json::String(LOCALIZE.name.into())),
            ("damaged_records", Json::Number(damaged.len() as f64)),
            ("suspect_records", Json::Number(suspects.len() as f64)),
            ("precision", Json::Number(precision)),
            ("recall", Json::Number(recall)),
            ("forensics", f.to_json()),
        ]));
    }

    // recover@r3 — embed with 3-way group redundancy, damage every 8th
    // year, and demand the group decode recovers every damaged unit.
    {
        let dataset = publications::generate(&PublicationsConfig {
            records: p.records,
            editors: p.editors,
            seed: p.seed + 300,
            gamma: 1,
        });
        let config = dataset.config.clone().with_redundancy(3);
        let key = SecretKey::from_passphrase("gate-forensics");
        let wm = Watermark::from_message("gate-forensics", 16);
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &config,
            &key,
            &wm,
        )
        .expect("r3 embed");
        let years = wmx_xpath::Query::compile("//book/year")
            .expect("year query")
            .select(&marked);
        for (i, node) in years.iter().enumerate() {
            if !i.is_multiple_of(8) {
                continue;
            }
            let year: i64 = node.string_value(&marked).parse().expect("numeric year");
            wmx_core::write_value(&mut marked, node, &(year + 7).to_string()).expect("damage year");
        }
        let d = detect_forensic(
            &marked,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: wm,
                threshold: THRESHOLD,
                mapping: None,
            },
            ForensicContext {
                binding: &dataset.binding,
                fds: &dataset.fds,
                config: &config,
            },
        )
        .expect("r3 forensic detect");
        let f = d.forensics.as_ref().expect("forensics attached");
        let flagged = f.suspect_units + f.recovered_units + f.unrecoverable_units;
        let rate = if flagged == 0 {
            0.0
        } else {
            f.recovered_units as f64 / flagged as f64
        };
        let detected = if d.detected { 1.0 } else { 0.0 };
        stats.push(RECOVER.stat(&[rate, detected]));
        scenarios.push(tobj(vec![
            ("name", Json::String(RECOVER.name.into())),
            ("recovered_units", Json::Number(f.recovered_units as f64)),
            ("suspect_units", Json::Number(f.suspect_units as f64)),
            (
                "unrecoverable_units",
                Json::Number(f.unrecoverable_units as f64),
            ),
            ("rate", Json::Number(rate)),
            ("detected", Json::Bool(d.detected)),
        ]));
    }

    // fault_truncate@0.60 — cut the marked stream at 60% of its bytes;
    // the fault-tolerant decoder must salvage a truncated partial
    // verdict that still detects the mark from the surviving prefix.
    {
        let cut = TruncationAttack::new(0.60).apply(marked_stream);
        let r = wmx_stream::stream_detect_forensic(
            cut.as_bytes(),
            sw.ctx(),
            &sw.key,
            &sw.watermark,
            THRESHOLD,
        )
        .expect("truncated stream salvages a partial verdict");
        let partial = match &r.fault {
            Some(fault)
                if fault.truncated
                    && r.records > 0
                    && r.records < p.records
                    && r.report.detected =>
            {
                1.0
            }
            _ => 0.0,
        };
        stats.push(FAULT_TRUNCATE.stat(&[partial]));
        scenarios.push(tobj(vec![
            ("name", Json::String(FAULT_TRUNCATE.name.into())),
            ("records_processed", Json::Number(r.records as f64)),
            ("records_total", Json::Number(p.records as f64)),
            (
                "truncated",
                Json::Bool(r.fault.as_ref().is_some_and(|f| f.truncated)),
            ),
            ("detected", Json::Bool(r.report.detected)),
            ("partial", Json::Number(partial)),
        ]));
    }

    // fault_garble — scramble the digits in a mid-stream byte window
    // (still well-formed XML); detection must survive and the suspects
    // must be a non-empty strict subset of the records: the damage is
    // noticed AND isolated.
    {
        let garble = GarbleAttack::new(0.45, 1000, GarbleMode::ScrambleDigits, 2);
        let garbled =
            String::from_utf8(garble.apply(marked_stream)).expect("digit scramble stays UTF-8");
        let r = wmx_stream::stream_detect_forensic(
            garbled.as_bytes(),
            sw.ctx(),
            &sw.key,
            &sw.watermark,
            THRESHOLD,
        )
        .expect("garbled stream still parses");
        let f = r.report.forensics.as_ref().expect("forensics attached");
        let isolated = if f.tampered
            && f.suspect_records > 0
            && f.suspect_records < f.records.len()
            && r.report.detected
        {
            1.0
        } else {
            0.0
        };
        stats.push(FAULT_GARBLE.stat(&[isolated]));
        scenarios.push(tobj(vec![
            ("name", Json::String(FAULT_GARBLE.name.into())),
            ("suspect_records", Json::Number(f.suspect_records as f64)),
            ("records_total", Json::Number(f.records.len() as f64)),
            ("tampered", Json::Bool(f.tampered)),
            ("detected", Json::Bool(r.report.detected)),
            ("isolated", Json::Number(isolated)),
        ]));
    }

    let artifact = tobj(vec![
        ("schema_version", Json::Number(SCHEMA_VERSION as f64)),
        ("workload", Json::String(p.workload.clone())),
        ("scenarios", Json::Array(scenarios)),
    ]);
    (stats, artifact)
}

/// Options for one gate invocation.
#[derive(Debug, Clone)]
pub struct GateOptions {
    /// Suite parameters (smoke or full, or custom in tests).
    pub params: SuiteParams,
    /// Directory the `BENCH_<workload>.json` report is written to.
    pub out_dir: PathBuf,
    /// Baseline file (defaults to
    /// `crates/bench/baselines/<workload>.json`).
    pub baseline_path: Option<PathBuf>,
    /// Refresh the baseline from this run instead of comparing.
    pub write_baseline: bool,
    /// Write the report but skip the comparison.
    pub skip_compare: bool,
}

impl GateOptions {
    /// The standard CI invocation: smoke suite, report in the current
    /// directory, checked-in baseline.
    pub fn smoke() -> GateOptions {
        GateOptions {
            params: SuiteParams::smoke(),
            out_dir: PathBuf::from("."),
            baseline_path: None,
            write_baseline: false,
            skip_compare: false,
        }
    }
}

/// Result of a gate run.
#[derive(Debug)]
pub struct GateOutcome {
    /// Where the report was written.
    pub report_path: PathBuf,
    /// Where the validated telemetry snapshot was written.
    pub telemetry_path: PathBuf,
    /// Where the forensic-scenario artifact was written
    /// (`FORENSICS_<workload>.json`).
    pub forensics_path: PathBuf,
    /// The comparison (absent with `--write-baseline`/`--no-compare`).
    pub comparison: Option<Comparison>,
    /// Process exit code per the module contract.
    pub exit_code: i32,
    /// Human-readable summary (verdict table or refresh notice).
    pub summary: String,
}

/// The checked-in default baseline location for a workload: the
/// repo-relative `crates/bench/baselines/<workload>.json` when it
/// resolves from the current directory (any binary run from the
/// workspace root, e.g. CI), falling back to the build-time manifest
/// directory (`cargo run` from a subdirectory of the same tree).
pub fn default_baseline_path(workload: &str) -> PathBuf {
    let file = format!("{workload}.json");
    let relative = Path::new("crates/bench/baselines").join(&file);
    if relative.exists() {
        return relative;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join(file)
}

/// Writes `TELEMETRY_<workload>.json` — the process-wide registry
/// snapshot — into `out_dir`, validating it against the snapshot schema
/// before returning.
fn write_telemetry_snapshot(workload: &str, out_dir: &Path) -> Result<PathBuf, String> {
    let snapshot = wmx_telemetry::global_snapshot();
    wmx_telemetry::validate_snapshot(&snapshot)
        .map_err(|e| format!("telemetry snapshot failed schema validation: {e}"))?;
    let path = out_dir.join(format!("TELEMETRY_{workload}.json"));
    std::fs::write(&path, snapshot.to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs the suite, writes the report, and compares or refreshes the
/// baseline. `Err` means an operational failure (exit 1 in the binary);
/// a failed comparison is `Ok` with `exit_code` 2.
pub fn run_gate(opts: &GateOptions) -> Result<GateOutcome, String> {
    let (report, forensics_artifact) = run_suite_full(&opts.params);
    let report_path = report
        .write_to_dir(&opts.out_dir)
        .map_err(|e| format!("cannot write report into {}: {e}", opts.out_dir.display()))?;
    // The suite just drove both engines end to end, so the global
    // telemetry registry is fully populated: export it next to the
    // BENCH report and hold it to the snapshot schema — the gate is
    // also the CI proof that instrumentation stays well-formed.
    let telemetry_path = write_telemetry_snapshot(&opts.params.workload, &opts.out_dir)?;
    // Record-level localization detail behind the flattened forensics
    // metrics — the artifact CI uploads for post-mortem inspection.
    let forensics_path = opts
        .out_dir
        .join(format!("FORENSICS_{}.json", opts.params.workload));
    std::fs::write(&forensics_path, forensics_artifact.to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", forensics_path.display()))?;
    let baseline_path = opts
        .baseline_path
        .clone()
        .unwrap_or_else(|| default_baseline_path(&opts.params.workload));

    if opts.write_baseline {
        let baseline = baseline_from_report(&report);
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        baseline.save(&baseline_path)?;
        return Ok(GateOutcome {
            report_path,
            telemetry_path,
            forensics_path,
            comparison: None,
            exit_code: 0,
            summary: format!(
                "baseline refreshed: {} ({} metrics pinned)",
                baseline_path.display(),
                baseline.metrics.len()
            ),
        });
    }
    if opts.skip_compare {
        let summary = format!(
            "report written to {} (comparison skipped)",
            report_path.display()
        );
        return Ok(GateOutcome {
            report_path,
            telemetry_path,
            forensics_path,
            comparison: None,
            exit_code: 0,
            summary,
        });
    }

    let baseline = Baseline::load(&baseline_path).map_err(|e| {
        format!("{e}\nhint: refresh it with `cargo run -p wmx-bench --bin gate -- --smoke --write-baseline`")
    })?;
    if baseline.workload != report.workload {
        return Err(format!(
            "baseline pins workload {:?} but the suite ran {:?}",
            baseline.workload, report.workload
        ));
    }
    let comparison = compare(&baseline, &report);
    let passed = comparison.passed();
    let summary = format!(
        "{}\ngate {}: {} metric(s) checked against {}",
        comparison.render(),
        if passed { "PASSED" } else { "FAILED" },
        comparison.outcomes.len(),
        baseline_path.display()
    );
    Ok(GateOutcome {
        report_path,
        telemetry_path,
        forensics_path,
        comparison: Some(comparison),
        exit_code: if passed { 0 } else { 2 },
        summary,
    })
}
