//! Forensic-detection equivalence: `detect_forensic` extracts each unit
//! once, reusing the query pass's votes for every selected unit whose
//! stored query located the same nodes under the same id and mark. It
//! must report exactly what the two-pass oracle below reports — the
//! verdict from the plain query pass, the forensics from an independent
//! extraction of every selected unit the plan enumerates — on clean,
//! value-altered, identifier-altered and key-duplicated copies, on FD
//! corpora, in redundancy mode and through a schema mapping.
//!
//! The `detect.forensic_reused_units` / `detect.forensic_extracted_units`
//! counters are checked too: a clean copy reuses one vote set per
//! located stored query, and an identifier-altered copy extracts.

use std::sync::{Mutex, MutexGuard};

use wmx_attacks::{AlterationAttack, ReorganizationAttack, ShuffleAttack};
use wmx_core::{
    detect, detect_forensic, embed, finalize_forensic_report, DetectionInput, DetectionReport,
    DomNodes, EncoderConfig, ForensicContext, ForensicTallies, SelectionPlan, StoredQuery,
    UnitMarker, VoteCounters, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications, Dataset};
use wmx_rewrite::SchemaMapping;
use wmx_xml::{parse, to_string, Document};

/// The forensic counters are process-wide and the tests of this file
/// run on parallel threads, so every test detects under this lock. It
/// guards no data: a test that panicked while holding it left nothing
/// half-updated, so a poisoned lock is taken as is.
static DETECTING: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    DETECTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The two-pass forensic detection: the verdict from [`detect`] at the
/// effective watermark width, then every unit the plan enumerates
/// observed again, each selected unit extracted from its own nodes.
fn oracle(doc: &Document, input: &DetectionInput<'_>, ctx: ForensicContext<'_>) -> DetectionReport {
    let redundancy = ctx.config.redundancy.max(1) as usize;
    let wm_eff = if redundancy > 1 {
        input.watermark.repeat(redundancy)
    } else {
        input.watermark.clone()
    };
    let plain = detect(
        doc,
        &DetectionInput {
            watermark: wm_eff.clone(),
            ..input.clone()
        },
    );
    let counters = VoteCounters {
        total_queries: plain.total_queries,
        located_queries: plain.located_queries,
        unrewritable_queries: plain.unrewritable_queries,
        votes_cast: plain.votes_cast,
    };
    let plan = SelectionPlan::compile(ctx.binding, ctx.fds, ctx.config).expect("plan compiles");
    let table = plan.table();
    let marker = UnitMarker::new(input.key.clone());
    let mut tallies = ForensicTallies::new();
    for unit in plan.execute(doc) {
        if !marker.is_selected(&unit.key.id(table), ctx.config.gamma) {
            tallies.observe_unselected(unit.key);
            continue;
        }
        let votes = marker.extract_unit(
            &DomNodes::new(doc, &unit.nodes),
            &unit.key.id(table),
            unit.mark,
            wm_eff.len(),
        );
        tallies.observe(
            unit.key,
            votes.bit_index,
            wm_eff.bit(votes.bit_index),
            &votes.bits,
        );
    }
    finalize_forensic_report(
        plain.bit_votes,
        &input.watermark,
        input.threshold,
        counters,
        Some((&tallies, table)),
    )
}

/// (reused, extracted) forensic units counted so far in this process.
fn forensic_counts() -> (u64, u64) {
    let registry = wmx_telemetry::global();
    (
        registry.counter("detect.forensic_reused_units").get(),
        registry.counter("detect.forensic_extracted_units").get(),
    )
}

/// Runs `detect_forensic`, asserts its whole report equals the oracle's
/// and returns the (reused, extracted) units the call counted. The
/// caller holds [`serial`].
fn assert_matches_oracle(
    label: &str,
    doc: &Document,
    input: &DetectionInput<'_>,
    ctx: ForensicContext<'_>,
) -> (u64, u64, DetectionReport) {
    let before = forensic_counts();
    let report = detect_forensic(doc, input, ctx).expect("forensic detect");
    let after = forensic_counts();
    let expected = oracle(doc, input, ctx);
    assert!(report.forensics.is_some(), "{label}: forensics attached");
    assert_eq!(report, expected, "{label}: report differs from the oracle");
    (after.0 - before.0, after.1 - before.1, report)
}

/// One corpus with the paths its attacks aim at.
struct Corpus {
    dataset: Dataset,
    /// The entity key's values (altering them changes unit ids).
    key_path: &'static str,
    /// Marked values.
    value_paths: Vec<String>,
    /// The record element, a child of the root.
    record: &'static str,
}

fn corpora() -> Vec<Corpus> {
    vec![
        Corpus {
            dataset: publications::generate(&publications::PublicationsConfig {
                records: 150,
                editors: 7,
                seed: 61,
                gamma: 3,
            }),
            key_path: "//book/title",
            // The year family and the FD-group dependent.
            value_paths: vec!["//book/year".into(), "//book/@publisher".into()],
            record: "book",
        },
        Corpus {
            dataset: jobs::generate(&jobs::JobsConfig {
                records: 150,
                companies: 6,
                seed: 62,
                gamma: 3,
            }),
            key_path: "//listing/@ref",
            value_paths: vec!["//listing/salary".into(), "//listing/hq".into()],
            record: "listing",
        },
        Corpus {
            dataset: library::generate(&library::LibraryConfig {
                records: 60,
                image_size: 12,
                seed: 63,
                gamma: 2,
            }),
            key_path: "//item/@id",
            value_paths: vec!["//item/pages".into(), "//item/price".into()],
            record: "item",
        },
    ]
}

fn key() -> SecretKey {
    SecretKey::from_passphrase("forensic-equivalence")
}

fn wm() -> Watermark {
    Watermark::from_message("© forensic", 24)
}

fn input<'a>(queries: &'a [StoredQuery], key: SecretKey) -> DetectionInput<'a> {
    DetectionInput {
        queries,
        key,
        watermark: wm(),
        threshold: 0.85,
        mapping: None,
    }
}

fn ctx<'a>(dataset: &'a Dataset, config: &'a EncoderConfig) -> ForensicContext<'a> {
    ForensicContext {
        binding: &dataset.binding,
        fds: &dataset.fds,
        config,
    }
}

/// Embeds the corpus under `config`: the marked document and its
/// stored queries.
fn marked(dataset: &Dataset, config: &EncoderConfig) -> (Document, Vec<StoredQuery>) {
    let mut doc = dataset.doc.clone();
    let report = embed(
        &mut doc,
        &dataset.binding,
        &dataset.fds,
        config,
        &key(),
        &wm(),
    )
    .expect("embed");
    (doc, report.queries)
}

fn altered(doc: &Document, paths: Vec<String>, fraction: f64, seed: u64) -> Document {
    let mut copy = doc.clone();
    AlterationAttack::values(fraction, paths, seed).apply(&mut copy);
    copy
}

/// Appends a copy of every `every`-th record to the root, so each copied
/// record's units share their key with the original's.
fn with_duplicated_keys(doc: &Document, record: &str, every: usize) -> Document {
    let xml = to_string(doc);
    let open = format!("<{record}");
    let close = format!("</{record}>");
    let mut copies = String::new();
    let mut from = 0;
    let mut index = 0;
    while let Some(start) = xml[from..].find(&open).map(|i| from + i) {
        let end = start + xml[start..].find(&close).expect("record closes") + close.len();
        if index % every == 0 {
            copies.push_str(&xml[start..end]);
        }
        index += 1;
        from = end;
    }
    let root_close = xml.rfind("</").expect("root closes");
    parse(&format!(
        "{}{copies}{}",
        &xml[..root_close],
        &xml[root_close..]
    ))
    .expect("reparse")
}

#[test]
fn clean_copies_reuse_the_vote_of_every_located_query() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let (doc, queries) = marked(dataset, &dataset.config);
        let (reused, _, report) = assert_matches_oracle(
            &dataset.name,
            &doc,
            &input(&queries, key()),
            ctx(dataset, &dataset.config),
        );
        assert!(report.detected, "{}: a clean copy detects", dataset.name);
        assert!(report.located_queries > 0);
        assert_eq!(
            reused, report.located_queries as u64,
            "{}: every located stored query's votes are reused",
            dataset.name
        );
    }
}

#[test]
fn altered_values_match_the_oracle() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let (doc, queries) = marked(dataset, &dataset.config);
        for seed in [1u64, 2, 3] {
            let copy = altered(&doc, corpus.value_paths.clone(), 0.3, seed);
            assert_matches_oracle(
                &format!("{} values seed {seed}", dataset.name),
                &copy,
                &input(&queries, key()),
                ctx(dataset, &dataset.config),
            );
        }
    }
}

#[test]
fn altered_identifiers_fall_back_to_extraction() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let (doc, queries) = marked(dataset, &dataset.config);
        let copy = altered(&doc, vec![corpus.key_path.to_string()], 0.3, 7);
        let (_, extracted, report) = assert_matches_oracle(
            &format!("{} identifiers", dataset.name),
            &copy,
            &input(&queries, key()),
            ctx(dataset, &dataset.config),
        );
        assert!(
            extracted > 0,
            "{}: units whose ids no stored query carries are extracted",
            dataset.name
        );
        assert!(report.located_queries < queries.len());
    }
}

#[test]
fn duplicated_keys_match_the_oracle() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let (doc, queries) = marked(dataset, &dataset.config);
        let copy = with_duplicated_keys(&doc, corpus.record, 5);
        let (_, extracted, _) = assert_matches_oracle(
            &format!("{} duplicated keys", dataset.name),
            &copy,
            &input(&queries, key()),
            ctx(dataset, &dataset.config),
        );
        // A duplicated key's query locates both copies, each unit only
        // its own: the node lists differ, so both are extracted.
        assert!(extracted > 0, "{}: duplicates are extracted", dataset.name);
    }
}

#[test]
fn wrong_key_matches_the_oracle() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let (doc, queries) = marked(dataset, &dataset.config);
        let report = assert_matches_oracle(
            &format!("{} wrong key", dataset.name),
            &doc,
            &input(&queries, SecretKey::from_passphrase("not the key")),
            ctx(dataset, &dataset.config),
        )
        .2;
        assert!(!report.detected, "{}: a wrong key rejects", dataset.name);
    }
}

#[test]
fn redundancy_three_matches_the_oracle() {
    let _serial = serial();
    for corpus in corpora() {
        let dataset = &corpus.dataset;
        let config = dataset.config.clone().with_redundancy(3);
        let (doc, queries) = marked(dataset, &config);
        for (label, copy) in [
            ("clean", doc.clone()),
            ("values", altered(&doc, corpus.value_paths.clone(), 0.3, 11)),
            (
                "identifiers",
                altered(&doc, vec![corpus.key_path.to_string()], 0.3, 12),
            ),
        ] {
            assert_matches_oracle(
                &format!("{} redundancy 3 {label}", dataset.name),
                &copy,
                &input(&queries, key()),
                ctx(dataset, &config),
            );
        }
    }
}

#[test]
fn detection_through_a_schema_mapping_matches_the_oracle() {
    let _serial = serial();
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 150,
        editors: 7,
        seed: 64,
        gamma: 2,
    });
    let (doc, queries) = marked(&dataset, &dataset.config);
    let mut reorganized = ReorganizationAttack::new("book", "db", publications::db2_layout())
        .apply(&doc, &dataset.binding)
        .expect("reorganize");
    ShuffleAttack::new(3).apply(&mut reorganized);
    let db2 = publications::db2_binding();
    let mapping = SchemaMapping::new(dataset.binding.clone(), db2.clone()).expect("mapping");
    let input = DetectionInput {
        mapping: Some(&mapping),
        ..input(&queries, key())
    };

    // Forensics under the original binding: the binding locates no units
    // in the reorganized layout, while the verdict follows the rewritten
    // queries.
    let (_, _, report) = assert_matches_oracle(
        "mapping, original binding",
        &reorganized,
        &input,
        ctx(&dataset, &dataset.config),
    );
    assert!(report.detected, "the rewritten queries detect");

    // Forensics under the reorganized layout's binding: its units carry
    // the stored ids, so the rewritten queries' votes are reused where
    // their nodes agree.
    let (reused, _, _) = assert_matches_oracle(
        "mapping, reorganized binding",
        &reorganized,
        &input,
        ForensicContext {
            binding: &db2,
            fds: &[],
            config: &dataset.config,
        },
    );
    assert!(reused > 0, "the rewritten queries' votes are reused");
}
