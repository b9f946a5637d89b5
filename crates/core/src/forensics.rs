//! Tamper forensics: per-unit and per-record vote localization.
//!
//! Detection (§2.2 step 3) yields a document-level verdict; forensics
//! answers *where* the watermark broke. The forensic scan enumerates the
//! suspect document's markable units through the compiled
//! [`SelectionPlan`](crate::plan::SelectionPlan) — exactly the
//! enumeration the streaming engine performs per record — takes each
//! selected unit's votes, and classifies every unit by comparing
//! observed votes against the expected watermark bit. Extraction
//! already removes the whitening, so a clean unit's votes all equal
//! `watermark.bit(bit_index)`: any contradicting vote is direct evidence
//! the unit's value was disturbed after embedding.
//!
//! Each unit is extracted once. The DOM decoder runs the query pass
//! first and keeps what each stored query located; the scan reuses a
//! query's votes for a selected unit whose rendered id equals the stored
//! id and whose nodes and mark equal the query's. Votes depend only on
//! the id bytes, the nodes, the mark, the key and the watermark width,
//! so the reused votes are the ones extraction would produce. Every
//! other selected unit — an identifier altered after embedding, a
//! duplicated key, a layout the stored queries were rewritten for — is
//! extracted from its own nodes.
//!
//! Both execution engines accumulate the same symbol-native tally map
//! ([`ForensicTallies`], keyed by [`UnitKey`]) and render it through one
//! code path ([`ForensicsReport::from_tallies`]), which makes DOM and
//! stream forensics identical by construction. `UnitKey` display
//! strings are rendered only at report-build time, never on the
//! per-unit vote path.

use std::collections::{BTreeMap, HashMap};

use crate::config::EncoderConfig;
use crate::decoder::{
    collect_query_votes, report_from_votes, BitVotes, DetectionInput, DetectionReport, LocatedQuery,
};
use crate::identifier::{SelectionTable, UnitKey};
use crate::nodectx::{DomNodes, UnitMarker};
use crate::plan::global_plan_cache;
use crate::recovery::{decode_redundant, report_from_redundant_votes, RedundantDecode};
use crate::wm::Watermark;
use crate::WmError;
use wmx_rewrite::SchemaBinding;
use wmx_schema::Fd;
use wmx_telemetry::Json;
use wmx_xml::Document;

/// The semantic package the forensic pass needs to re-enumerate units —
/// the same binding/FDs/config the encoder used. (The default decoder
/// deliberately needs none of this: it works from the safeguarded query
/// set alone. Forensics trades that independence for localization.)
#[derive(Clone, Copy)]
pub struct ForensicContext<'a> {
    /// Entity binding onto the suspect document's layout.
    pub binding: &'a SchemaBinding,
    /// Functional dependencies (FD-group units).
    pub fds: &'a [Fd],
    /// Encoder configuration (γ, markable attributes, redundancy).
    pub config: &'a EncoderConfig,
}

/// Classification of one unit (or one record) after vote extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitStatus {
    /// The PRF did not select this unit: it carries no mark and cannot
    /// testify either way.
    Unselected,
    /// Every observed vote agrees with the expected watermark bit.
    Clean,
    /// At least one observed vote contradicts the expected bit — or a
    /// selected unit yielded no vote at all (its value can no longer
    /// carry the mark it once accepted).
    Suspect,
    /// Redundancy mode: the unit's own votes contradicted, but the
    /// bit's group-majority decode still recovers the expected value —
    /// the distortion is localized and correctable.
    Recovered,
    /// Redundancy mode: the damage reached the bit's decode — the group
    /// majority no longer yields the expected value.
    Unrecoverable,
}

impl UnitStatus {
    /// Stable lower-case label used in JSON and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            UnitStatus::Unselected => "unselected",
            UnitStatus::Clean => "clean",
            UnitStatus::Suspect => "suspect",
            UnitStatus::Recovered => "recovered",
            UnitStatus::Unrecoverable => "unrecoverable",
        }
    }
}

/// Forensic verdict for one markable unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitForensics {
    /// Rendered unit id (`key:…` / `ord:…` / `fd:…`).
    pub unit_id: String,
    /// The record scope the unit belongs to ([`UnitKey::record_scope`]).
    pub record: String,
    /// Effective watermark bit index the unit votes on (`None` when
    /// unselected).
    pub bit_index: Option<usize>,
    /// The expected bit value (`None` when unselected).
    pub expected: Option<bool>,
    /// Observed votes agreeing with the expected bit.
    pub votes_for: usize,
    /// Observed votes contradicting the expected bit.
    pub votes_against: usize,
    /// Classification.
    pub status: UnitStatus,
}

/// Forensic verdict for one record scope (all units sharing a record
/// key, or one FD group).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordForensics {
    /// The record scope label.
    pub record: String,
    /// Units enumerated in this scope.
    pub units: usize,
    /// Units the PRF selected.
    pub selected_units: usize,
    /// Units classified [`UnitStatus::Suspect`] or
    /// [`UnitStatus::Unrecoverable`].
    pub suspect_units: usize,
    /// Units classified [`UnitStatus::Recovered`].
    pub recovered_units: usize,
    /// Record classification: `Suspect` when any unit is suspect or
    /// unrecoverable, `Recovered` when damage was fully recovered,
    /// `Unselected` when the scope carries no mark, `Clean` otherwise.
    pub status: UnitStatus,
}

/// The full localization report attached to a [`DetectionReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForensicsReport {
    /// Every enumerated unit, in deterministic [`UnitKey`] order.
    pub units: Vec<UnitForensics>,
    /// Per-record rollup, in record-scope order.
    pub records: Vec<RecordForensics>,
    /// Units enumerated.
    pub total_units: usize,
    /// Units the PRF selected.
    pub selected_units: usize,
    /// Units classified clean.
    pub clean_units: usize,
    /// Units classified suspect (excludes recovered/unrecoverable).
    pub suspect_units: usize,
    /// Units whose damage the redundancy decode recovered.
    pub recovered_units: usize,
    /// Units whose damage reached the decode.
    pub unrecoverable_units: usize,
    /// Records classified suspect (including unrecoverable damage).
    pub suspect_records: usize,
    /// Whether any tampering evidence exists (suspect, recovered, or
    /// unrecoverable units).
    pub tampered: bool,
}

/// Per-unit accumulator entry: everything the render pass needs, with
/// no strings attached (literally — names stay interned).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct UnitTally {
    selected: bool,
    bit_index: usize,
    expected: bool,
    votes_for: usize,
    votes_against: usize,
}

/// Symbol-native forensic accumulator shared by the DOM forensic pass
/// and the streaming engine's per-record loop. Keyed by [`UnitKey`] so
/// FD-group fragments from different records/chunks merge by identity,
/// and iteration order is deterministic regardless of worker count.
#[derive(Debug, Clone, Default)]
pub struct ForensicTallies {
    map: BTreeMap<UnitKey, UnitTally>,
}

impl ForensicTallies {
    /// An empty accumulator.
    pub fn new() -> Self {
        ForensicTallies::default()
    }

    /// Records a unit the PRF did not select. Takes the key by value:
    /// an already-present key is dropped, not cloned.
    pub fn observe_unselected(&mut self, key: UnitKey) {
        self.map.entry(key).or_default();
    }

    /// Records one selected unit's extraction outcome: `bits` are the
    /// observed votes, `expected` the watermark bit at `bit_index`.
    pub fn observe(&mut self, key: UnitKey, bit_index: usize, expected: bool, bits: &[bool]) {
        let tally = self.map.entry(key).or_default();
        tally.selected = true;
        tally.bit_index = bit_index;
        tally.expected = expected;
        for &bit in bits {
            if bit == expected {
                tally.votes_for += 1;
            } else {
                tally.votes_against += 1;
            }
        }
    }

    /// Merges another accumulator (cross-chunk FD fragments combine by
    /// key; disjoint units concatenate).
    pub fn merge(&mut self, other: ForensicTallies) {
        for (key, tally) in other.map {
            match self.map.get_mut(&key) {
                Some(existing) => {
                    existing.selected |= tally.selected;
                    if tally.selected {
                        existing.bit_index = tally.bit_index;
                        existing.expected = tally.expected;
                    }
                    existing.votes_for += tally.votes_for;
                    existing.votes_against += tally.votes_against;
                }
                None => {
                    self.map.insert(key, tally);
                }
            }
        }
    }

    /// Number of units observed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl ForensicsReport {
    /// Renders the accumulated tallies into the report: classifies each
    /// unit, rolls units up into record scopes, and totals the summary
    /// counters. `decode` carries the redundancy-mode group decode used
    /// to split suspects into recovered/unrecoverable; pass `None` in
    /// plain mode.
    pub fn from_tallies(
        tallies: &ForensicTallies,
        table: &SelectionTable,
        decode: Option<&RedundantDecode>,
    ) -> ForensicsReport {
        let mut report = ForensicsReport::default();
        // Each scope is rendered into one reused buffer; only a scope's
        // first unit allocates its map key, and the record label is
        // taken from that key at the end.
        let mut records: BTreeMap<String, RecordForensics> = BTreeMap::new();
        let mut scope = String::new();
        for (key, tally) in &tallies.map {
            let status = if !tally.selected {
                UnitStatus::Unselected
            } else if tally.votes_against == 0 && tally.votes_for > 0 {
                UnitStatus::Clean
            } else {
                // Contradicting votes — or a selected unit that yielded
                // no vote at all (its value lost the mark capacity it
                // once had): both are tampering evidence.
                match decode {
                    Some(d) if d.groups > 1 => {
                        if d.decoded[tally.bit_index % d.base_len] == Some(tally.expected) {
                            UnitStatus::Recovered
                        } else {
                            UnitStatus::Unrecoverable
                        }
                    }
                    _ => UnitStatus::Suspect,
                }
            };
            report.total_units += 1;
            match status {
                UnitStatus::Unselected => {}
                UnitStatus::Clean => {
                    report.selected_units += 1;
                    report.clean_units += 1;
                }
                UnitStatus::Suspect => {
                    report.selected_units += 1;
                    report.suspect_units += 1;
                }
                UnitStatus::Recovered => {
                    report.selected_units += 1;
                    report.recovered_units += 1;
                }
                UnitStatus::Unrecoverable => {
                    report.selected_units += 1;
                    report.unrecoverable_units += 1;
                }
            }
            scope.clear();
            key.record_scope_into(table, &mut scope);
            let entry = match records.get_mut(scope.as_str()) {
                Some(entry) => entry,
                None => records.entry(scope.clone()).or_insert(RecordForensics {
                    record: String::new(),
                    units: 0,
                    selected_units: 0,
                    suspect_units: 0,
                    recovered_units: 0,
                    status: UnitStatus::Unselected,
                }),
            };
            entry.units += 1;
            if tally.selected {
                entry.selected_units += 1;
            }
            match status {
                UnitStatus::Suspect | UnitStatus::Unrecoverable => entry.suspect_units += 1,
                UnitStatus::Recovered => entry.recovered_units += 1,
                _ => {}
            }
            report.units.push(UnitForensics {
                unit_id: key.display(table),
                record: scope.clone(),
                bit_index: tally.selected.then_some(tally.bit_index),
                expected: tally.selected.then_some(tally.expected),
                votes_for: tally.votes_for,
                votes_against: tally.votes_against,
                status,
            });
        }
        for record in records.values_mut() {
            record.status = if record.suspect_units > 0 {
                UnitStatus::Suspect
            } else if record.recovered_units > 0 {
                UnitStatus::Recovered
            } else if record.selected_units == 0 {
                UnitStatus::Unselected
            } else {
                UnitStatus::Clean
            };
            if record.status == UnitStatus::Suspect {
                report.suspect_records += 1;
            }
        }
        report.records = records
            .into_iter()
            .map(|(scope, record)| RecordForensics {
                record: scope,
                ..record
            })
            .collect();
        report.tampered =
            report.suspect_units + report.recovered_units + report.unrecoverable_units > 0;
        report
    }

    /// Serializes the report to the documented forensics JSON schema.
    pub fn to_json(&self) -> Json {
        let unit_json = |u: &UnitForensics| {
            Json::Object(vec![
                ("unit".into(), Json::String(u.unit_id.clone())),
                ("record".into(), Json::String(u.record.clone())),
                (
                    "bit".into(),
                    u.bit_index.map_or(Json::Null, |b| Json::Number(b as f64)),
                ),
                ("expected".into(), u.expected.map_or(Json::Null, Json::Bool)),
                ("votes_for".into(), Json::Number(u.votes_for as f64)),
                ("votes_against".into(), Json::Number(u.votes_against as f64)),
                ("status".into(), Json::String(u.status.label().into())),
            ])
        };
        let record_json = |r: &RecordForensics| {
            Json::Object(vec![
                ("record".into(), Json::String(r.record.clone())),
                ("units".into(), Json::Number(r.units as f64)),
                ("selected".into(), Json::Number(r.selected_units as f64)),
                ("suspect".into(), Json::Number(r.suspect_units as f64)),
                ("recovered".into(), Json::Number(r.recovered_units as f64)),
                ("status".into(), Json::String(r.status.label().into())),
            ])
        };
        Json::Object(vec![
            ("total_units".into(), Json::Number(self.total_units as f64)),
            (
                "selected_units".into(),
                Json::Number(self.selected_units as f64),
            ),
            ("clean_units".into(), Json::Number(self.clean_units as f64)),
            (
                "suspect_units".into(),
                Json::Number(self.suspect_units as f64),
            ),
            (
                "recovered_units".into(),
                Json::Number(self.recovered_units as f64),
            ),
            (
                "unrecoverable_units".into(),
                Json::Number(self.unrecoverable_units as f64),
            ),
            (
                "suspect_records".into(),
                Json::Number(self.suspect_records as f64),
            ),
            ("tampered".into(), Json::Bool(self.tampered)),
            (
                "records".into(),
                Json::Array(self.records.iter().map(record_json).collect()),
            ),
            (
                "units".into(),
                Json::Array(self.units.iter().map(unit_json).collect()),
            ),
        ])
    }
}

/// Finalizes an effective-width vote tally plus forensic tallies into a
/// [`DetectionReport`] with the forensics attached — the single render
/// seam both the DOM forensic decoder and the streaming engine's
/// partial-report finalization flow through (that shared tail is what
/// the DOM-vs-stream forensic equivalence suite pins).
pub fn finalize_forensic_report(
    bit_votes_eff: Vec<BitVotes>,
    watermark: &Watermark,
    threshold: f64,
    counters: crate::decoder::VoteCounters,
    forensic: Option<(&ForensicTallies, &SelectionTable)>,
) -> DetectionReport {
    let base_len = watermark.len();
    let redundancy = bit_votes_eff
        .len()
        .checked_div(base_len)
        .unwrap_or(1)
        .max(1) as u32;
    let decode = (redundancy > 1).then(|| decode_redundant(&bit_votes_eff, base_len, redundancy));
    let mut report = match &decode {
        Some(d) => report_from_redundant_votes(d, watermark, threshold, counters),
        None => report_from_votes(bit_votes_eff, watermark, threshold, counters),
    };
    if let Some((tallies, table)) = forensic {
        let forensics = ForensicsReport::from_tallies(tallies, table, decode.as_ref());
        let registry = wmx_telemetry::global();
        registry
            .counter("detect.suspect_units")
            .add(forensics.suspect_units as u64);
        registry
            .counter("detect.suspect_records")
            .add(forensics.suspect_records as u64);
        registry
            .counter("detect.recovered_units")
            .add(forensics.recovered_units as u64);
        report.forensics = Some(forensics);
    }
    report
}

/// Detection with tamper localization (and, when
/// [`EncoderConfig::redundancy`] > 1, error-correcting group decode).
///
/// The verdict comes from the same query-driven extraction [`detect`]
/// performs (at the effective watermark width). Localization then walks
/// the plan's units — the same per-unit walk the streaming engine
/// performs per record — so the attached [`ForensicsReport`] is
/// identical to the one `wmx-stream` produces on the same document. A
/// selected unit reuses the votes of the stored query that located it
/// when the query's id, nodes and mark equal the unit's; any other
/// selected unit (an altered identifier, a duplicated key, a layout
/// the queries were rewritten for) is extracted from its own nodes.
/// The `detect.forensic_reused_units` and
/// `detect.forensic_extracted_units` counters add up the two cases.
///
/// When `input.mapping` is set, forensics reflects only the units the
/// binding locates in the *original* layout; verdicts still follow the
/// rewritten queries.
///
/// [`detect`]: crate::decoder::detect
pub fn detect_forensic(
    doc: &Document,
    input: &DetectionInput<'_>,
    ctx: ForensicContext<'_>,
) -> Result<DetectionReport, WmError> {
    let _span = wmx_telemetry::span("detect.forensic");
    let plan = global_plan_cache().get_or_compile(ctx.binding, ctx.fds, ctx.config)?;
    let table = plan.table();
    let redundancy = ctx.config.redundancy.max(1) as usize;
    let eff;
    let wm_eff = if redundancy > 1 {
        eff = input.watermark.repeat(redundancy);
        &eff
    } else {
        &input.watermark
    };
    let wm_len = wm_eff.len();
    // The query pass runs first: only its located residue stays alive
    // while the plan's units are enumerated.
    let mut located = Vec::new();
    let (bit_votes, counters) = collect_query_votes(doc, input, wm_len, Some(&mut located));
    let by_id: HashMap<&str, &LocatedQuery> = located
        .iter()
        .map(|q| (input.queries[q.stored].unit_id.as_str(), q))
        .collect();

    let marker = UnitMarker::new(input.key.clone());
    let mut tallies = ForensicTallies::new();
    let mut id = String::new();
    let (mut reused, mut extracted) = (0u64, 0u64);
    for unit in plan.execute(doc) {
        // Selection is decided per unit: the detection key may differ
        // from the embedding key.
        if !marker.is_selected(&unit.key.id(table), ctx.config.gamma) {
            tallies.observe_unselected(unit.key);
            continue;
        }
        id.clear();
        unit.key.display_into(table, &mut id);
        let fresh;
        let votes = match by_id.get(id.as_str()) {
            Some(q) if q.nodes == unit.nodes && input.queries[q.stored].mark == unit.mark => {
                reused += 1;
                &q.votes
            }
            _ => {
                extracted += 1;
                fresh = marker.extract_unit(
                    &DomNodes::new(doc, &unit.nodes),
                    &unit.key.id(table),
                    unit.mark,
                    wm_len,
                );
                &fresh
            }
        };
        tallies.observe(
            unit.key,
            votes.bit_index,
            wm_eff.bit(votes.bit_index),
            &votes.bits,
        );
    }
    // Free the query residue before the report render allocates.
    drop(by_id);
    drop(located);
    let registry = wmx_telemetry::global();
    registry.counter("detect.forensic_reused_units").add(reused);
    registry
        .counter("detect.forensic_extracted_units")
        .add(extracted);
    Ok(finalize_forensic_report(
        bit_votes,
        &input.watermark,
        input.threshold,
        counters,
        Some((&tallies, table)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkableAttr;
    use crate::decoder::detect;
    use crate::encoder::embed;
    use wmx_crypto::SecretKey;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_xpath::Query;

    fn doc(n: usize) -> Document {
        let mut body = String::from("<db>");
        for i in 0..n {
            body.push_str(&format!(
                "<book publisher=\"pub{}\"><title>Book {i}</title><editor>Ed{}</editor><year>{}</year></book>",
                i % 3,
                i % 3,
                1950 + (i % 60)
            ));
        }
        body.push_str("</db>");
        wmx_xml::parse(&body).unwrap()
    }

    fn binding() -> SchemaBinding {
        SchemaBinding::new(
            "db1",
            vec![EntityBinding::new(
                "book",
                "/db/book",
                "title",
                vec![
                    ("title", AttrBinding::ChildText("title".into())),
                    ("editor", AttrBinding::ChildText("editor".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                    ("publisher", AttrBinding::Attribute("publisher".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn config(gamma: u32) -> EncoderConfig {
        EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)])
    }

    fn setup(n: usize, gamma: u32) -> (Document, Vec<crate::StoredQuery>, Watermark, SecretKey) {
        let mut d = doc(n);
        let key = SecretKey::from_passphrase("forensic-key");
        let wm = Watermark::parse("10110100").unwrap();
        let report = embed(&mut d, &binding(), &[], &config(gamma), &key, &wm).unwrap();
        (d, report.queries, wm, key)
    }

    fn input<'a>(
        queries: &'a [crate::StoredQuery],
        key: &SecretKey,
        wm: &Watermark,
    ) -> DetectionInput<'a> {
        DetectionInput {
            queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.85,
            mapping: None,
        }
    }

    fn ctx<'a>(binding: &'a SchemaBinding, config: &'a EncoderConfig) -> ForensicContext<'a> {
        ForensicContext {
            binding,
            fds: &[],
            config,
        }
    }

    #[test]
    fn clean_document_has_no_suspects() {
        let (d, queries, wm, key) = setup(200, 3);
        let b = binding();
        let cfg = config(3);
        let report = detect_forensic(&d, &input(&queries, &key, &wm), ctx(&b, &cfg)).unwrap();
        assert!(report.detected);
        let f = report.forensics.as_ref().unwrap();
        assert_eq!(f.total_units, 200);
        assert_eq!(f.suspect_units, 0);
        assert_eq!(f.suspect_records, 0);
        assert!(!f.tampered);
        assert_eq!(f.clean_units, f.selected_units);
        assert_eq!(f.selected_units, queries.len());
        // Verdict path matches the plain decoder bit for bit.
        let plain = detect(&d, &input(&queries, &key, &wm));
        assert_eq!(report.bit_votes, plain.bit_votes);
        assert_eq!(report.detected, plain.detected);
        assert_eq!(report.matched_bits, plain.matched_bits);
    }

    #[test]
    fn altered_records_are_localized_exactly() {
        let (mut d, queries, wm, key) = setup(300, 2);
        // Alter years of records 10, 20, 30 by +7 (beyond tolerance).
        let years = Query::compile("/db/book/year").unwrap().select(&d);
        let mut altered = Vec::new();
        for idx in [10usize, 20, 30] {
            let v: i64 = years[idx].string_value(&d).parse().unwrap();
            crate::write_value(&mut d, &years[idx], &(v + 7).to_string()).unwrap();
            altered.push(format!("book|Book {idx}"));
        }
        let b = binding();
        let cfg = config(2);
        let report = detect_forensic(&d, &input(&queries, &key, &wm), ctx(&b, &cfg)).unwrap();
        let f = report.forensics.as_ref().unwrap();
        // Every flagged record really was altered (perfect precision);
        // flagged ⊆ altered and every *selected* altered record flags.
        let flagged: Vec<&str> = f
            .records
            .iter()
            .filter(|r| r.status == UnitStatus::Suspect)
            .map(|r| r.record.as_str())
            .collect();
        for rec in &flagged {
            assert!(altered.iter().any(|a| a == rec), "false positive {rec}");
        }
        for rec in &altered {
            let entry = f.records.iter().find(|r| &r.record == rec).unwrap();
            if entry.selected_units > 0 {
                // A +7 shift flips the embedded LSB-parity mark.
                assert_eq!(entry.status, UnitStatus::Suspect, "missed {rec}");
            }
        }
        assert!(f.tampered);
        assert_eq!(f.suspect_records, flagged.len());
    }

    #[test]
    fn unselected_records_are_classified_as_such() {
        let (d, queries, wm, key) = setup(60, 4);
        let b = binding();
        let cfg = config(4);
        let report = detect_forensic(&d, &input(&queries, &key, &wm), ctx(&b, &cfg)).unwrap();
        let f = report.forensics.as_ref().unwrap();
        let unselected = f
            .records
            .iter()
            .filter(|r| r.status == UnitStatus::Unselected)
            .count();
        // γ=4 leaves ~3/4 of the records without a mark.
        assert!(unselected > 0, "γ=4 must leave unselected records");
        assert_eq!(f.records.len(), 60);
        assert_eq!(
            unselected,
            f.records.iter().filter(|r| r.selected_units == 0).count()
        );
    }

    /// Observes every unit the plan enumerates in `doc`, extracting the
    /// selected ones.
    fn scan(
        doc: &Document,
        key: &SecretKey,
        wm: &Watermark,
        cfg: &EncoderConfig,
    ) -> ForensicTallies {
        let plan = global_plan_cache()
            .get_or_compile(&binding(), &[], cfg)
            .unwrap();
        let table = plan.table();
        let marker = UnitMarker::new(key.clone());
        let mut tallies = ForensicTallies::new();
        for unit in plan.execute(doc) {
            if !marker.is_selected(&unit.key.id(table), cfg.gamma) {
                tallies.observe_unselected(unit.key);
                continue;
            }
            let votes = marker.extract_unit(
                &DomNodes::new(doc, &unit.nodes),
                &unit.key.id(table),
                unit.mark,
                wm.len(),
            );
            tallies.observe(
                unit.key,
                votes.bit_index,
                wm.bit(votes.bit_index),
                &votes.bits,
            );
        }
        tallies
    }

    #[test]
    fn tallies_merge_matches_single_pass() {
        let (d, _queries, wm, key) = setup(100, 2);
        let cfg = config(2);
        let whole = scan(&d, &key, &wm, &cfg);
        // Scanning the same doc twice then merging halves must equal the
        // doubled single scan (vote counts add; identities dedupe).
        let mut a = scan(&d, &key, &wm, &cfg);
        a.merge(scan(&d, &key, &wm, &cfg));
        assert_eq!(a.len(), whole.len());
    }

    #[test]
    fn forensics_json_schema_fields() {
        let (d, queries, wm, key) = setup(50, 2);
        let b = binding();
        let cfg = config(2);
        let report = detect_forensic(&d, &input(&queries, &key, &wm), ctx(&b, &cfg)).unwrap();
        let json = report.forensics.as_ref().unwrap().to_json();
        for field in [
            "total_units",
            "selected_units",
            "clean_units",
            "suspect_units",
            "recovered_units",
            "unrecoverable_units",
            "suspect_records",
            "tampered",
            "records",
            "units",
        ] {
            assert!(json.get(field).is_some(), "missing field {field}");
        }
        let units = json.get("units").and_then(Json::as_array).unwrap();
        assert_eq!(units.len(), 50);
        assert!(units[0].get("unit").is_some());
        assert!(units[0].get("status").is_some());
    }
}
