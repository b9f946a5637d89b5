//! UnitKey ≡ string-id equivalence suite: the symbol-native selection
//! pipeline must make bit-for-bit the same decisions as the legacy
//! `format!`-built unit-id strings.
//!
//! * Every enumerated unit's [`wmx_core::UnitKey`] renders exactly the
//!   legacy id text (re-derived here independently from the key parts),
//!   and the incremental PRF feed agrees with the string feed on
//!   selection, bit index, nonce, and whitening — across generated
//!   corpora, adversarial key values (proptest: pipes, separators,
//!   unicode, the `key:`/`fd:` prefixes themselves), and all unit
//!   flavours.
//! * End to end, DOM detection (which feeds the PRF the *persisted
//!   string* ids from the safeguarded query set) and streaming
//!   detection (which feeds compact keys) produce identical vote
//!   tallies and verdicts on marked corpora.

use proptest::prelude::*;
use wmx_core::{
    detect, embed, DetectionInput, EncoderConfig, MarkableAttr, SelectionPlan, SelectionTable,
    UnitKey, UnitTag, Watermark,
};
use wmx_crypto::{Prf, SecretKey};
use wmx_data::{jobs, library, publications, Dataset};
use wmx_rewrite::binding::{AttrBinding, EntityBinding};
use wmx_rewrite::SchemaBinding;
use wmx_stream::{stream_detect, StreamContext};
use wmx_xml::Document;

fn datasets() -> Vec<Dataset> {
    vec![
        publications::generate(&publications::PublicationsConfig {
            records: 150,
            editors: 6,
            seed: 81,
            gamma: 3,
        }),
        jobs::generate(&jobs::JobsConfig {
            records: 150,
            companies: 5,
            seed: 82,
            gamma: 3,
        }),
        library::generate(&library::LibraryConfig {
            records: 80,
            image_size: 12,
            seed: 83,
            gamma: 2,
        }),
    ]
}

/// Independent re-derivation of the legacy string unit id from the key
/// parts — intentionally NOT `UnitKey::display`, so drift in either
/// direction fails the suite.
fn legacy_id(table: &SelectionTable, key: &UnitKey) -> String {
    match key.tag {
        UnitTag::KeyAttr => format!(
            "key:{}|{}|attr={}",
            table.resolve(key.name),
            key.values[0],
            table.resolve(key.attr.expect("key unit attr"))
        ),
        UnitTag::SiblingOrder => format!(
            "ord:{}|{}|attr={}",
            table.resolve(key.name),
            key.values[0],
            table.resolve(key.attr.expect("order unit attr"))
        ),
        UnitTag::FdGroup => format!(
            "fd:{}|lhs={}",
            table.resolve(key.name),
            key.values.join("\u{1f}")
        ),
    }
}

/// Asserts the compact key and the legacy string make identical PRF
/// decisions under `prf`.
fn assert_prf_agreement(prf: &Prf, table: &SelectionTable, key: &UnitKey) {
    let rendered = key.display(table);
    assert_eq!(rendered, legacy_id(table, key), "display drifted");
    for gamma in [1u32, 2, 3, 7, 100] {
        assert_eq!(
            prf.is_selected(&key.id(table), gamma),
            prf.is_selected(rendered.as_str(), gamma),
            "selection mismatch at gamma {gamma} for {rendered:?}"
        );
    }
    for wm_len in [1usize, 8, 24] {
        assert_eq!(
            prf.bit_index(&key.id(table), wm_len),
            prf.bit_index(rendered.as_str(), wm_len),
            "bit index mismatch for {rendered:?}"
        );
    }
    assert_eq!(
        prf.value_nonce(&key.id(table)),
        prf.value_nonce(rendered.as_str()),
        "nonce mismatch for {rendered:?}"
    );
    assert_eq!(
        prf.whiten_bit(&key.id(table)),
        prf.whiten_bit(rendered.as_str()),
        "whitening mismatch for {rendered:?}"
    );
}

/// Every unit of every corpus: identical display text and identical PRF
/// decisions between the key feed and the string feed.
#[test]
fn corpus_units_agree_with_string_path() {
    let prf = Prf::new(SecretKey::from_passphrase("unitkey-eq"));
    for dataset in datasets() {
        let plan = SelectionPlan::compile(&dataset.binding, &dataset.fds, &dataset.config)
            .expect("corpus plan compiles");
        let units = plan.execute(&dataset.doc);
        assert!(!units.is_empty(), "corpus {} has units", dataset.name);
        for unit in &units {
            assert_prf_agreement(&prf, plan.table(), &unit.key);
        }
    }
}

/// The persisted safeguard ids (StoredQuery.unit_id) are exactly the
/// rendered keys of the marked units — the on-disk format is unchanged.
#[test]
fn stored_query_ids_keep_legacy_format() {
    for dataset in datasets() {
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &dataset.config,
            &SecretKey::from_passphrase("unitkey-eq"),
            &Watermark::from_message("© unitkey", 24),
        )
        .expect("embed succeeds");
        assert!(!report.queries.is_empty());
        for stored in &report.queries {
            assert!(
                stored.unit_id.starts_with("key:")
                    || stored.unit_id.starts_with("ord:")
                    || stored.unit_id.starts_with("fd:"),
                "unexpected id shape {:?}",
                stored.unit_id
            );
        }
    }
}

/// End to end: DOM detection (string ids from the safeguarded query
/// set) and streaming detection (compact keys, query-free) tally
/// identical votes and verdicts on a marked corpus.
#[test]
fn dom_and_stream_votes_agree() {
    for dataset in datasets() {
        let key = SecretKey::from_passphrase("unitkey-eq-votes");
        let wm = Watermark::from_message("© votes", 16);
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &dataset.config,
            &key,
            &wm,
        )
        .expect("embed succeeds");
        let dom = detect(
            &marked,
            &DetectionInput {
                queries: &report.queries,
                key: key.clone(),
                watermark: wm.clone(),
                threshold: 0.85,
                mapping: None,
            },
        );
        let streamed = stream_detect(
            wmx_xml::to_string(&marked).as_bytes(),
            StreamContext {
                binding: &dataset.binding,
                fds: &dataset.fds,
                config: &dataset.config,
            },
            &key,
            &wm,
            0.85,
        )
        .expect("stream detect runs");
        assert_eq!(
            dom.bit_votes, streamed.report.bit_votes,
            "vote tallies diverged on corpus {}",
            dataset.name
        );
        assert_eq!(dom.vote_totals(), streamed.report.vote_totals());
        assert_eq!(dom.detected, streamed.report.detected);
        assert!(dom.detected, "corpus {} must detect", dataset.name);
    }
}

/// Builds `<db>` with one `<book>` per (title, year) pair, attaching the
/// values as raw DOM text so arbitrary characters survive verbatim.
fn doc_with_titles(titles: &[String]) -> Document {
    let mut doc = Document::new();
    let db = doc.create_element("db").expect("arena fits");
    let doc_node = doc.document_node();
    doc.append_child(doc_node, db);
    for (i, title) in titles.iter().enumerate() {
        let book = doc.create_element("book").expect("arena fits");
        doc.append_child(db, book);
        let t = doc.create_element("title").expect("arena fits");
        doc.append_child(book, t);
        doc.set_text_content(t, title.clone()).expect("arena fits");
        let y = doc.create_element("year").expect("arena fits");
        doc.append_child(book, y);
        doc.set_text_content(y, format!("{}", 1990 + (i % 10)))
            .expect("arena fits");
    }
    doc
}

fn title_binding() -> SchemaBinding {
    SchemaBinding::new(
        "db",
        vec![EntityBinding::new(
            "book",
            "/db/book",
            "title",
            vec![
                ("title", AttrBinding::ChildText("title".into())),
                ("year", AttrBinding::ChildText("year".into())),
            ],
        )
        .expect("static binding is valid")],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial key values — pipes, the id prefixes themselves, the
    /// FD tuple separator, unicode — never split the key path from the
    /// string path.
    #[test]
    fn adversarial_key_values_agree(
        random in prop::collection::vec("[ -~]{0,12}", 1..8)
    ) {
        // Random printable-ASCII titles plus fixed nasties aimed
        // directly at the id syntax.
        let mut titles = random;
        for nasty in [
            "|attr=year",
            "key:x|y",
            "fd:e|lhs=v",
            "\u{1f}",
            "a|b|c",
            "ünïcode·νame",
            "",
        ] {
            titles.push(nasty.to_string());
        }
        let doc = doc_with_titles(&titles);
        let binding = title_binding();
        let config = EncoderConfig::new(3, vec![MarkableAttr::integer("book", "year", 1)]);
        let plan = SelectionPlan::compile(&binding, &[], &config).expect("plan compiles");
        let units = plan.execute(&doc);
        let prf = Prf::new(SecretKey::from_passphrase("adversarial"));
        for unit in &units {
            assert_prf_agreement(&prf, plan.table(), &unit.key);
        }
    }

    /// Selection totals over a whole document agree between the two id
    /// paths for every γ (counted independently, not per unit).
    #[test]
    fn selection_counts_agree(seed in 0u64..1000, gamma in 1u32..9) {
        let titles: Vec<String> = (0..40).map(|i| format!("T{}-{seed}", i * 7 % 13)).collect();
        let doc = doc_with_titles(&titles);
        let binding = title_binding();
        let config = EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)]);
        let plan = SelectionPlan::compile(&binding, &[], &config).expect("plan compiles");
        let table = plan.table();
        let units = plan.execute(&doc);
        let prf = Prf::new(SecretKey::new(seed.to_be_bytes().to_vec()));
        let by_key = units
            .iter()
            .filter(|u| prf.is_selected(&u.key.id(table), gamma))
            .count();
        let by_string = units
            .iter()
            .filter(|u| prf.is_selected(u.key.display(table).as_str(), gamma))
            .count();
        prop_assert_eq!(by_key, by_string);
    }
}
