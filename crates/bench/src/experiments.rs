//! The paper's demonstration claims (§4), one scenario function each.
//!
//! Every scenario takes the suite parameters and the suite's marked
//! publications workload and returns the rows that check its claim. The
//! gate flattens and pins those rows; the `experiments` binary only
//! prints them, so a printed table is always a pinned one.
//!
//! The attack grid (E2/E3/E5/E10) returns [`RobustnessStat`]s, flattened
//! as `robustness/<point>/{detected,match_fraction}`. The other claims
//! (E1/E4/E6/E8) return [`ScenarioStat`]s, flattened as
//! `claims/<point>/<metric>`. Every claim metric reads higher-is-better
//! and the gate's floor is one-sided, so a negative claim is pinned as
//! `rejected` (1.0 when the detector answers "not watermarked"): pinned
//! as `detected = 0` a false positive would raise it and pass.

use crate::gate::{SuiteParams, THRESHOLD};
use crate::report::{Point, RobustnessStat, ScenarioStat};
use crate::workloads::MarkedWorkload;
use wmx_attacks::redundancy::UnifyStrategy;
use wmx_attacks::{
    AlterationAttack, ReductionAttack, RedundancyRemovalAttack, ReorganizationAttack,
    RoundingAttack, ShuffleAttack,
};
use wmx_core::baseline::{baseline_detect, baseline_embed, BaselineConfig, BaselinePath};
use wmx_core::{
    detect, embed, measure_usability, DetectionInput, DetectionReport, EncoderConfig, MarkableAttr,
    Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::publications::{self, PublicationsConfig};
use wmx_data::{jobs, library, Dataset};
use wmx_rewrite::SchemaMapping;
use wmx_schema::DataType;
use wmx_xml::Document;

/// Alteration intensities of the E2 grid points.
const E2_ALPHAS: [f64; 3] = [0.10, 0.30, 0.50];

/// Keep fractions of the E3 grid points.
const E3_KEEPS: [f64; 3] = [0.80, 0.40, 0.10];

const E5_POINT: &str = "e5_redundancy/fd_groups";

/// E10 grid points: name, and whether only the numeric family is marked.
const E10_POINTS: [(&str, bool); 2] = [
    ("e10_rounding/numeric_only", true),
    ("e10_rounding/all_families", false),
];

/// Wrong keys tried by the E6 key-security scenario.
const E6_WRONG_KEYS: usize = 200;

const CAPACITY: &[&str] = &["utilization", "usability"];
const E1_PUBLICATIONS: Point = Point::new("e1_capacity/publications", CAPACITY);
const E1_JOBS: Point = Point::new("e1_capacity/jobs", CAPACITY);
const E1_LIBRARY: Point = Point::new("e1_capacity/library", CAPACITY);
const E4_REWRITING: Point = Point::new(
    "e4_reorganization/rewriting",
    &["detected", "match_fraction"],
);
const E4_NO_REWRITING: Point = Point::new("e4_reorganization/no_rewriting", &["rejected"]);
const E4_VALUE_BASELINE: Point = Point::new("e4_reorganization/value_baseline", &["rejected"]);
const E6_CORRECT_KEY: Point = Point::new("e6_key_security/correct_key", &["detected"]);
const E6_WRONG_MARK: Point = Point::new("e6_key_security/wrong_mark", &["rejected"]);
const E6_UNMARKED: Point = Point::new("e6_key_security/unmarked_original", &["rejected"]);
const E6_WRONG_KEY_SET: Point = Point::new("e6_key_security/wrong_keys", &["rejected_frac"]);
const E8_VALUE_ONLY: Point = Point::new("e8_shuffle/value_only", &["detected"]);
const E8_ORDER_ONLY: Point = Point::new("e8_shuffle/order_only", &["rejected"]);

/// Every claim row, in emission order.
pub const CLAIM_POINTS: [Point; 12] = [
    E1_PUBLICATIONS,
    E1_JOBS,
    E1_LIBRARY,
    E4_REWRITING,
    E4_NO_REWRITING,
    E4_VALUE_BASELINE,
    E6_CORRECT_KEY,
    E6_WRONG_MARK,
    E6_UNMARKED,
    E6_WRONG_KEY_SET,
    E8_VALUE_ONLY,
    E8_ORDER_ONLY,
];

fn e2_point(alpha: f64) -> String {
    format!("e2_alteration@{alpha:.2}")
}

fn e3_point(keep: f64) -> String {
    format!("e3_reduction@{keep:.2}")
}

/// Attack-grid point names in emission order.
pub fn robustness_points() -> Vec<String> {
    let mut names: Vec<String> = E2_ALPHAS.into_iter().map(e2_point).collect();
    names.extend(E3_KEEPS.into_iter().map(e3_point));
    names.push(E5_POINT.into());
    names.extend(E10_POINTS.iter().map(|(name, _)| name.to_string()));
    names
}

/// The rows of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum Rows {
    /// Attack-grid points (`robustness/…`).
    Robustness(Vec<RobustnessStat>),
    /// Claim rows (`claims/…`).
    Claims(Vec<ScenarioStat>),
}

/// One demonstration experiment: its id, the claim it checks, its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Experiment id (`e1` … `e10`).
    pub id: &'static str,
    /// The claim the rows check.
    pub claim: &'static str,
    /// The pinned rows.
    pub rows: Rows,
}

/// Runs every experiment against the suite's marked workload.
pub fn run(p: &SuiteParams, w: &MarkedWorkload) -> Vec<Experiment> {
    use Rows::{Claims, Robustness};
    let experiment = |id, claim, rows| Experiment { id, claim, rows };
    vec![
        experiment(
            "e1",
            "capacity & imperceptibility (demo part 1): every selected unit is \
             marked and query usability is kept",
            Claims(e1_capacity(p, w)),
        ),
        experiment(
            "e2",
            "alteration attack (A): the mark survives value perturbation",
            Robustness(e2_alteration(p, w)),
        ),
        experiment(
            "e3",
            "reduction attack (B): detection survives keeping a subset of records",
            Robustness(e3_reduction(p, w)),
        ),
        experiment(
            "e4",
            "re-organization attack (C, Fig. 1/2), db1 -> db2 plus a sibling \
             shuffle: query rewriting recovers the mark; without rewriting, and \
             for the value-identified baseline, it is lost",
            Claims(e4_reorganization(p, w)),
        ),
        experiment(
            "e5",
            "redundancy removal (D): FD-aware marks survive unification of \
             duplicated values",
            Robustness(e5_redundancy(p)),
        ),
        experiment(
            "e6",
            "key security: only the correct key and watermark detect; a wrong \
             mark, the unmarked original and wrong keys are rejected",
            Claims(e6_key_security(w)),
        ),
        experiment(
            "e8",
            "value units vs order units: value marks survive a sibling shuffle; \
             order marks are erased by it (documented limit)",
            Claims(e8_structure_units(p, w)),
        ),
        experiment(
            "e10",
            "rounding attack: numeric parity marks alone are erased (documented \
             limit); mixing in the text/order families preserves detection",
            Robustness(e10_rounding(p)),
        ),
    ]
}

fn detect_in(
    doc: &Document,
    queries: &[wmx_core::StoredQuery],
    key: &SecretKey,
    watermark: &Watermark,
    mapping: Option<&SchemaMapping>,
) -> DetectionReport {
    detect(
        doc,
        &DetectionInput {
            queries,
            key: key.clone(),
            watermark: watermark.clone(),
            threshold: THRESHOLD,
            mapping,
        },
    )
}

fn detect_with(w: &MarkedWorkload, doc: &Document) -> DetectionReport {
    detect_in(doc, &w.report.queries, &w.key, &w.watermark, None)
}

fn flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Watermarks a copy of `dataset` under `config`.
fn embed_copy(
    dataset: &Dataset,
    fds: &[wmx_schema::Fd],
    config: &EncoderConfig,
    key: &SecretKey,
    watermark: &Watermark,
) -> (Document, wmx_core::EmbedReport) {
    let mut marked = dataset.doc.clone();
    let report =
        embed(&mut marked, &dataset.binding, fds, config, key, watermark).expect("scenario embed");
    (marked, report)
}

/// E1 — every selected unit carries its mark, and the usability
/// templates answer on the marked copy as on the original.
fn e1_capacity(p: &SuiteParams, w: &MarkedWorkload) -> Vec<ScenarioStat> {
    let jobs = jobs::generate(&jobs::JobsConfig {
        records: p.records,
        companies: p.editors,
        seed: p.seed,
        gamma: p.gamma,
    });
    let library = library::generate(&library::LibraryConfig {
        records: p.records,
        image_size: 12,
        seed: p.seed,
        gamma: p.gamma,
    });
    [
        (E1_PUBLICATIONS, &w.dataset),
        (E1_JOBS, &jobs),
        (E1_LIBRARY, &library),
    ]
    .into_iter()
    .map(|(point, dataset)| {
        let (marked, report) =
            embed_copy(dataset, &dataset.fds, &dataset.config, &w.key, &w.watermark);
        let usability = measure_usability(
            &dataset.doc,
            &dataset.binding,
            &marked,
            &dataset.binding,
            &dataset.templates,
            &dataset.config,
        )
        .map_or(0.0, |u| u.overall());
        point.stat(&[report.capacity_utilization(), usability])
    })
    .collect()
}

/// E2 — alteration attack (demo attack A).
fn e2_alteration(p: &SuiteParams, w: &MarkedWorkload) -> Vec<RobustnessStat> {
    E2_ALPHAS
        .into_iter()
        .map(|alpha| {
            let mut attacked = w.marked.clone();
            AlterationAttack::values(
                alpha,
                vec!["//book/year".into()],
                p.seed + (alpha * 100.0) as u64,
            )
            .apply(&mut attacked);
            RobustnessStat::from_detection(&e2_point(alpha), "e2", &detect_with(w, &attacked))
        })
        .collect()
}

/// E3 — reduction attack (demo attack B).
fn e3_reduction(p: &SuiteParams, w: &MarkedWorkload) -> Vec<RobustnessStat> {
    E3_KEEPS
        .into_iter()
        .map(|keep| {
            let mut attacked = w.marked.clone();
            ReductionAttack::new(keep, "/db/book", p.seed + (keep * 100.0) as u64)
                .apply(&mut attacked);
            RobustnessStat::from_detection(&e3_point(keep), "e3", &detect_with(w, &attacked))
        })
        .collect()
}

/// E4 — re-organization attack (demo attack C): the marked document is
/// restructured into the db2 layout and its siblings shuffled.
fn e4_reorganization(p: &SuiteParams, w: &MarkedWorkload) -> Vec<ScenarioStat> {
    let attack = ReorganizationAttack::new("book", "db", publications::db2_layout());
    let reorganize = |doc: &Document| {
        let mut out = attack
            .apply(doc, &w.dataset.binding)
            .expect("db2 re-organization");
        ShuffleAttack::new(p.seed + 400).apply(&mut out);
        out
    };
    let reorganized = reorganize(&w.marked);
    let mapping = SchemaMapping::new(w.dataset.binding.clone(), publications::db2_binding())
        .expect("db1 -> db2 mapping");
    let with = detect_in(
        &reorganized,
        &w.report.queries,
        &w.key,
        &w.watermark,
        Some(&mapping),
    );
    let without = detect_with(w, &reorganized);

    // The value-identified baseline marks its own copy of the original.
    let mut baseline_marked = w.original.clone();
    let baseline_report = baseline_embed(
        &mut baseline_marked,
        &BaselineConfig {
            paths: vec![BaselinePath {
                path: "//year".into(),
                data_type: DataType::Integer,
            }],
            gamma: p.gamma,
        },
        &w.key,
        &w.watermark,
    )
    .expect("baseline embed");
    let baseline = baseline_detect(
        &reorganize(&baseline_marked),
        &baseline_report.queries,
        &w.key,
        &w.watermark,
        THRESHOLD,
    );
    vec![
        E4_REWRITING.stat(&[flag(with.detected), with.match_fraction()]),
        E4_NO_REWRITING.stat(&[flag(!without.detected)]),
        E4_VALUE_BASELINE.stat(&[flag(!baseline.detected)]),
    ]
}

/// E5 — redundancy removal (demo attack D): FD-aware marks survive
/// unification of duplicated publisher values.
fn e5_redundancy(p: &SuiteParams) -> Vec<RobustnessStat> {
    let dataset = publications::generate(&PublicationsConfig {
        records: p.records,
        editors: p.editors,
        seed: p.seed + 50,
        gamma: 1,
    });
    let config = EncoderConfig::new(1, vec![MarkableAttr::text("book", "publisher")]);
    let key = SecretKey::from_passphrase("gate-e5");
    let wm = Watermark::from_message("gate-e5", 16);
    let (mut attacked, report) = embed_copy(&dataset, &dataset.fds, &config, &key, &wm);
    RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
        .apply(&mut attacked);
    let d = detect_in(&attacked, &report.queries, &key, &wm, None);
    vec![RobustnessStat::from_detection(E5_POINT, "e5", &d)]
}

/// E6 — key security: the correct key and mark detect; a wrong mark,
/// the unmarked original and [`E6_WRONG_KEYS`] wrong keys are rejected.
fn e6_key_security(w: &MarkedWorkload) -> Vec<ScenarioStat> {
    let correct = detect_with(w, &w.marked);
    let wrong_mark = detect_in(
        &w.marked,
        &w.report.queries,
        &w.key,
        &Watermark::from_message("not the mark", w.watermark.len()),
        None,
    );
    let unmarked = detect_with(w, &w.original);
    let rejected = (0..E6_WRONG_KEYS)
        .filter(|i| {
            let key = SecretKey::from_passphrase(&format!("wrong-key-{i}"));
            !detect_in(&w.marked, &w.report.queries, &key, &w.watermark, None).detected
        })
        .count();
    vec![
        E6_CORRECT_KEY.stat(&[flag(correct.detected)]),
        E6_WRONG_MARK.stat(&[flag(!wrong_mark.detected)]),
        E6_UNMARKED.stat(&[flag(!unmarked.detected)]),
        E6_WRONG_KEY_SET.stat(&[rejected as f64 / E6_WRONG_KEYS as f64]),
    ]
}

/// E8 — value units vs order units under a sibling shuffle: the paper's
/// "both the data elements and structures … could contain bandwidth",
/// with the order family's documented fragility to reordering.
fn e8_structure_units(p: &SuiteParams, w: &MarkedWorkload) -> Vec<ScenarioStat> {
    let dataset = publications::generate(&PublicationsConfig {
        records: p.records,
        editors: p.editors,
        seed: p.seed + 80,
        gamma: 1,
    });
    let shuffled_detected = |config: EncoderConfig| {
        let (mut shuffled, report) = embed_copy(&dataset, &[], &config, &w.key, &w.watermark);
        ShuffleAttack::new(p.seed + 81).apply(&mut shuffled);
        detect_in(&shuffled, &report.queries, &w.key, &w.watermark, None).detected
    };
    let value_only = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)]);
    let order_only = EncoderConfig::new(1, vec![]).with_structural("book", "author");
    vec![
        E8_VALUE_ONLY.stat(&[flag(shuffled_detected(value_only))]),
        E8_ORDER_ONLY.stat(&[flag(!shuffled_detected(order_only))]),
    ]
}

/// E10 — rounding attack: numeric parity marks are erased (the
/// documented limit), mixing in the text/order families preserves
/// detection. Both facts are pinned.
fn e10_rounding(p: &SuiteParams) -> Vec<RobustnessStat> {
    E10_POINTS
        .into_iter()
        .map(|(name, numeric_only)| {
            let dataset = publications::generate(&PublicationsConfig {
                records: p.records,
                editors: p.editors,
                seed: p.seed + 100,
                gamma: 1,
            });
            let mut markable = vec![MarkableAttr::integer("book", "year", 1)];
            if !numeric_only {
                markable.push(MarkableAttr::text("book", "publisher"));
            }
            let mut config = EncoderConfig::new(1, markable);
            if !numeric_only {
                config = config.with_structural("book", "author");
            }
            let key = SecretKey::from_passphrase("gate-e10");
            let wm = Watermark::from_message("gate-e10", 16);
            let (mut attacked, report) = embed_copy(&dataset, &dataset.fds, &config, &key, &wm);
            RoundingAttack::new(2, vec!["//book/year".into()]).apply(&mut attacked);
            let d = detect_in(&attacked, &report.queries, &key, &wm, None);
            RobustnessStat::from_detection(name, "e10", &d)
        })
        .collect()
}
