//! End-to-end attack/defense tests: each §4 demo attack against a
//! watermarked document, asserting the paper's claimed outcomes.

use std::collections::BTreeSet;
use wmx_attacks::redundancy::UnifyStrategy;
use wmx_attacks::{
    AlterationAttack, GarbleAttack, GarbleMode, ReductionAttack, RedundancyRemovalAttack,
    RenameAttack, ShuffleAttack,
};
use wmx_core::{
    detect, detect_forensic, embed, measure_usability, repair_document, write_value,
    DetectionInput, EmbedReport, ForensicContext, SelectionPlan, UnitMarker, UnitStatus, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::publications::{generate, PublicationsConfig};
use wmx_data::Dataset;
use wmx_stream::{par_detect, stream_detect, StreamContext};
use wmx_xml::Document;

fn setup(gamma: u32) -> (Dataset, Document, EmbedReport, SecretKey, Watermark) {
    let dataset = generate(&PublicationsConfig {
        records: 500,
        editors: 10,
        seed: 4242,
        gamma,
    });
    let key = SecretKey::from_passphrase("attack-suite");
    let wm = Watermark::from_message("© suite", 16);
    let mut marked = dataset.doc.clone();
    let report = embed(
        &mut marked,
        &dataset.binding,
        &dataset.fds,
        &dataset.config,
        &key,
        &wm,
    )
    .unwrap();
    (dataset, marked, report, key, wm)
}

fn run_detection(
    doc: &Document,
    report: &EmbedReport,
    key: &SecretKey,
    wm: &Watermark,
) -> wmx_core::DetectionReport {
    detect(
        doc,
        &DetectionInput {
            queries: &report.queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.8,
            mapping: None,
        },
    )
}

#[test]
fn attack_a_light_alteration_fails_heavy_succeeds_but_destroys_usability() {
    let (dataset, marked, report, key, wm) = setup(2);

    // Light alteration (10%): watermark survives.
    let mut light = marked.clone();
    AlterationAttack::values(0.10, vec!["//book/year".into()], 1).apply(&mut light);
    assert!(run_detection(&light, &report, &key, &wm).detected);

    // Total alteration (100%): watermark dies — but so does usability.
    let mut heavy = marked.clone();
    AlterationAttack::values(1.0, vec!["//book/year".into()], 2).apply(&mut heavy);
    let detection = run_detection(&heavy, &report, &key, &wm);
    let usability = measure_usability(
        &dataset.doc,
        &dataset.binding,
        &heavy,
        &dataset.binding,
        &dataset.templates,
        &dataset.config,
    )
    .unwrap();
    // published-when template is fully destroyed (0/4 templates can be
    // partially credited: overall usability drops to 75%).
    assert!(
        usability.overall() <= 0.80,
        "usability {}",
        usability.overall()
    );
    assert!(
        !detection.detected || usability.overall() < 0.8,
        "watermark alive only if usability is destroyed"
    );
}

#[test]
fn attack_b_reduction_survives_down_to_small_subsets() {
    let (_, marked, report, key, wm) = setup(2);
    for keep in [0.75, 0.5, 0.25, 0.1] {
        let mut attacked = marked.clone();
        ReductionAttack::new(keep, "/db/book", 3).apply(&mut attacked);
        let detection = run_detection(&attacked, &report, &key, &wm);
        assert!(
            detection.detected,
            "reduction keep={keep} killed detection (match {:.2})",
            detection.match_fraction()
        );
    }
}

#[test]
fn attack_b_reduction_to_nothing_defeats_detection() {
    let (_, marked, report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    ReductionAttack::new(0.0, "/db/book", 3).apply(&mut attacked);
    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(!detection.detected);
    assert_eq!(detection.located_queries, 0);
}

#[test]
fn attack_c_shuffle_and_rename_of_unbound_tags() {
    let (_, marked, report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    ShuffleAttack::new(9).apply(&mut attacked);
    // Renaming elements the identity queries never mention is harmless.
    RenameAttack::new(vec![("author", "writer")]).apply(&mut attacked);
    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(detection.detected);
    assert_eq!(detection.match_fraction(), 1.0);
}

#[test]
fn attack_c_rename_of_marked_tag_degrades_only_that_family() {
    let (_, marked, report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    RenameAttack::new(vec![("year", "published")]).apply(&mut attacked);
    // Year-unit queries dangle, but publisher FD-group queries still
    // vote — detection rightly survives on the surviving family.
    let detection = run_detection(&attacked, &report, &key, &wm);
    let year_queries = report
        .queries
        .iter()
        .filter(|q| q.xpath.ends_with("/year"))
        .count();
    assert!(year_queries > 0);
    assert_eq!(
        detection.located_queries,
        report.queries.len() - year_queries,
        "exactly the year queries must dangle"
    );
    assert!(detection.detected, "publisher marks still prove ownership");
}

#[test]
fn attack_c_rename_of_entity_element_requires_rewriting() {
    let (_, marked, report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    // Renaming the entity element itself (book → record) strands every
    // identity query; only rewriting under a new binding could recover.
    RenameAttack::new(vec![("book", "record")]).apply(&mut attacked);
    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(!detection.detected);
    assert_eq!(detection.located_queries, 0);
}

#[test]
fn attack_d_wmxml_immune_fd_unaware_dies() {
    let dataset = generate(&PublicationsConfig {
        records: 500,
        editors: 8,
        seed: 999,
        gamma: 1,
    });
    let key = SecretKey::from_passphrase("fd-suite");
    let wm = Watermark::from_message("fd", 8);

    // Isolate the FD-dependent attribute: publisher only.
    let fd_aware =
        wmx_core::EncoderConfig::new(1, vec![wmx_core::MarkableAttr::text("book", "publisher")]);
    let fd_unaware = fd_aware.clone().without_fd_groups();

    // WmXML: marks FD groups consistently → attack is a no-op.
    let mut marked = dataset.doc.clone();
    let report = embed(
        &mut marked,
        &dataset.binding,
        &dataset.fds,
        &fd_aware,
        &key,
        &wm,
    )
    .unwrap();
    let mut attacked = marked.clone();
    let rewritten = RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
        .apply(&mut attacked);
    assert_eq!(rewritten, 0, "WmXML groups must already be consistent");
    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(detection.detected);

    // FD-unaware: duplicates marked independently → unification erases.
    let mut marked = dataset.doc.clone();
    let report = embed(
        &mut marked,
        &dataset.binding,
        &dataset.fds,
        &fd_unaware,
        &key,
        &wm,
    )
    .unwrap();
    let mut attacked = marked.clone();
    let rewritten = RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
        .apply(&mut attacked);
    assert!(rewritten > 0, "attack must find divergent duplicates");
    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(
        detection.match_fraction() < 0.8,
        "FD-unaware marks should be erased, match {:.2}",
        detection.match_fraction()
    );

    // …and the attack did NOT hurt usability.
    let usability = measure_usability(
        &dataset.doc,
        &dataset.binding,
        &attacked,
        &dataset.binding,
        &dataset.templates,
        &fd_unaware,
    )
    .unwrap();
    assert!(usability.overall() > 0.95);
}

#[test]
fn attack_c_record_shuffle_across_chunk_boundaries_is_worker_invariant() {
    // A shuffle permutes records, so after the attack the records that
    // used to share a worker chunk land in different chunks — every
    // parallel chunking of the shuffled stream is a different partition
    // of the same unit set. Key-based identity makes chunk membership
    // irrelevant: the sequential driver and every worker count must
    // tally the exact same votes, and all must agree with the verdict.
    let (dataset, marked, _report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    let reordered = ShuffleAttack::new(77).apply(&mut attacked);
    assert!(reordered > 0, "shuffle must actually permute records");
    let serialized = wmx_xml::to_string(&attacked);
    let ctx = StreamContext {
        binding: &dataset.binding,
        fds: &dataset.fds,
        config: &dataset.config,
    };

    let sequential =
        stream_detect(serialized.as_bytes(), ctx, &key, &wm, 0.8).expect("sequential detect runs");
    assert!(
        sequential.report.detected,
        "shuffle must not defeat streaming detection (match {:.2})",
        sequential.report.match_fraction()
    );

    for workers in [2usize, 3, 5, 8] {
        let parallel =
            par_detect(&serialized, workers, ctx, &key, &wm, 0.8).expect("parallel detect runs");
        assert_eq!(
            sequential.report.bit_votes, parallel.report.bit_votes,
            "vote tallies diverged at {workers} workers"
        );
        assert_eq!(
            sequential.report.vote_totals(),
            parallel.report.vote_totals(),
            "vote totals diverged at {workers} workers"
        );
        assert_eq!(
            sequential.report.located_queries, parallel.report.located_queries,
            "located counts diverged at {workers} workers"
        );
        assert_eq!(
            sequential.report.total_queries, parallel.report.total_queries,
            "selected-unit counts diverged at {workers} workers"
        );
        assert_eq!(
            sequential.report.detected, parallel.report.detected,
            "verdicts diverged at {workers} workers"
        );
        assert_eq!(
            sequential.records, parallel.records,
            "record counts diverged at {workers} workers"
        );
    }
}

#[test]
fn combined_attacks_within_usability_budget_fail_to_erase() {
    // The demo's summary claim, (i): as long as usability survives, so
    // does the watermark — even under a combination of attacks.
    let (dataset, marked, report, key, wm) = setup(2);
    let mut attacked = marked.clone();
    ReductionAttack::new(0.7, "/db/book", 21).apply(&mut attacked);
    ShuffleAttack::new(22).apply(&mut attacked);
    AlterationAttack::values(0.15, vec!["//book/year".into()], 23).apply(&mut attacked);
    RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
        .apply(&mut attacked);

    let detection = run_detection(&attacked, &report, &key, &wm);
    assert!(
        detection.detected,
        "combined mild attacks erased the mark: match {:.2}",
        detection.match_fraction()
    );
}

// ---------------------------------------------------------------------
// Tamper localization and error-correcting recovery under the same
// attack families.

fn forensic_detection(
    doc: &Document,
    dataset: &Dataset,
    config: &wmx_core::EncoderConfig,
    report: &EmbedReport,
    key: &SecretKey,
    wm: &Watermark,
) -> wmx_core::DetectionReport {
    detect_forensic(
        doc,
        &DetectionInput {
            queries: &report.queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.8,
            mapping: None,
        },
        ForensicContext {
            binding: &dataset.binding,
            fds: &dataset.fds,
            config,
        },
    )
    .expect("forensic detect")
}

#[test]
fn forensics_localize_targeted_damage_to_the_exact_records() {
    let (dataset, marked, report, key, wm) = setup(2);

    // Flip the parity of every 12th selected numeric unit (+7 always
    // crosses parity), remembering exactly which records were hit.
    let plan = SelectionPlan::compile(&dataset.binding, &dataset.fds, &dataset.config).unwrap();
    let table = plan.table();
    let units = plan.execute(&marked);
    let marker = UnitMarker::new(key.clone());
    let mut attacked = marked.clone();
    let mut damaged: BTreeSet<String> = BTreeSet::new();
    let mut numeric = 0usize;
    for unit in &units {
        if !marker.is_selected(&unit.key.id(table), dataset.config.gamma) {
            continue;
        }
        let Ok(year) = unit.nodes[0].string_value(&attacked).parse::<i64>() else {
            continue;
        };
        numeric += 1;
        if !numeric.is_multiple_of(12) {
            continue;
        }
        write_value(&mut attacked, &unit.nodes[0], &(year + 7).to_string()).unwrap();
        damaged.insert(unit.key.record_scope(table));
    }
    assert!(damaged.len() >= 3, "need a non-trivial damage set");

    let detection = forensic_detection(&attacked, &dataset, &dataset.config, &report, &key, &wm);
    assert!(detection.detected, "thin damage must not defeat detection");
    let forensics = detection.forensics.expect("forensics attached");
    assert!(forensics.tampered);
    let suspects: BTreeSet<String> = forensics
        .records
        .iter()
        .filter(|r| r.status == UnitStatus::Suspect)
        .map(|r| r.record.clone())
        .collect();
    assert_eq!(
        suspects, damaged,
        "suspect records must be exactly the damaged ones"
    );

    // The untouched original reports no tampering evidence at all.
    let clean = forensic_detection(&marked, &dataset, &dataset.config, &report, &key, &wm);
    let clean_forensics = clean.forensics.unwrap();
    assert!(!clean_forensics.tampered);
    assert_eq!(clean_forensics.suspect_records, 0);
}

#[test]
fn seeded_attacks_reproduce_identical_forensics() {
    // Every randomized attack takes an explicit seed; the same seed
    // must reproduce the same attacked bytes and the same forensics.
    let (dataset, marked, report, key, wm) = setup(3);
    let attack = |seed: u64| {
        let mut doc = marked.clone();
        AlterationAttack::values(0.2, vec!["//book/year".into()], seed).apply(&mut doc);
        ShuffleAttack::new(seed).apply(&mut doc);
        wmx_xml::to_string(&doc)
    };
    let a = attack(9);
    assert_eq!(a, attack(9), "same seed, same attacked bytes");
    assert_ne!(a, attack(10), "different seed, different attack");

    let forensics_of = |text: &str| {
        let doc = wmx_xml::parse(text).unwrap();
        forensic_detection(&doc, &dataset, &dataset.config, &report, &key, &wm)
            .forensics
            .unwrap()
    };
    assert_eq!(forensics_of(&a), forensics_of(&attack(9)));

    // Byte-level attacks are seeded the same way.
    let serialized = wmx_xml::to_string(&marked);
    let garble = |seed: u64| {
        GarbleAttack::new(0.4, 300, GarbleMode::ScrambleDigits, seed).apply(&serialized)
    };
    assert_eq!(garble(5), garble(5));
    assert_ne!(garble(5), garble(6));
}

#[test]
fn redundant_embedding_recovers_attacked_units_and_repair_clears_them() {
    // γ=1 + redundancy 3: every unit is selected and every watermark
    // bit lands in three disjoint unit groups.
    let dataset = generate(&PublicationsConfig {
        records: 400,
        editors: 10,
        seed: 606,
        gamma: 1,
    });
    let config = dataset.config.clone().with_redundancy(3);
    let key = SecretKey::from_passphrase("recovery-suite");
    let wm = Watermark::from_message("© recover", 12);
    let mut marked = dataset.doc.clone();
    let report = embed(
        &mut marked,
        &dataset.binding,
        &dataset.fds,
        &config,
        &key,
        &wm,
    )
    .unwrap();

    // Thin spread of parity flips across the year family.
    let mut attacked = marked.clone();
    let years = wmx_xpath::Query::compile("//book/year")
        .unwrap()
        .select(&attacked);
    assert!(!years.is_empty());
    for (i, node) in years.iter().enumerate() {
        if !i.is_multiple_of(9) {
            continue;
        }
        let year: i64 = node.string_value(&attacked).trim().parse().unwrap();
        write_value(&mut attacked, node, &(year + 7).to_string()).unwrap();
    }

    let detection = forensic_detection(&attacked, &dataset, &config, &report, &key, &wm);
    assert!(detection.detected);
    let forensics = detection.forensics.unwrap();
    assert!(forensics.tampered);
    assert!(
        forensics.recovered_units > 0,
        "the group decode must recover the damaged units"
    );
    assert_eq!(
        forensics.unrecoverable_units, 0,
        "thin damage stays recoverable"
    );

    // Repair re-embeds the expected bits; afterwards the forensics are
    // clean again and detection still succeeds.
    let mut repaired = attacked.clone();
    let repair = repair_document(
        &mut repaired,
        ForensicContext {
            binding: &dataset.binding,
            fds: &dataset.fds,
            config: &config,
        },
        &key,
        &wm,
    )
    .unwrap();
    assert!(repair.repaired_units > 0);
    assert_eq!(repair.unrecoverable_units, 0);
    let after = forensic_detection(&repaired, &dataset, &config, &report, &key, &wm);
    assert!(after.detected);
    let after_forensics = after.forensics.unwrap();
    assert!(!after_forensics.tampered, "repair must clear all suspects");
}
