//! Watermark insertion (§2.2 step 2).

use crate::config::EncoderConfig;
use crate::identifier::MarkKind;
use crate::nodectx::{DomNodesMut, UnitMarker};
use crate::plan::global_plan_cache;
use crate::wm::Watermark;
use crate::WmError;
use wmx_crypto::SecretKey;
use wmx_rewrite::{LogicalQuery, SchemaBinding};
use wmx_schema::Fd;
use wmx_xml::Document;

/// One persisted identity query — what the user "safeguards … along with
/// the secret key" (§2.2). The query text is self-contained; the logical
/// form additionally enables automated rewriting after re-organization.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredQuery {
    /// The unit id (PRF input; reproduces selection/bit-index/nonce).
    pub unit_id: String,
    /// The identity query text.
    pub xpath: String,
    /// Logical form for key-identified units.
    pub logical: Option<LogicalQuery>,
    /// How the bit is carried → extraction procedure.
    pub mark: MarkKind,
}

/// Embedding outcome.
#[derive(Debug, Clone)]
pub struct EmbedReport {
    /// Units enumerated (total watermark bandwidth).
    pub total_units: usize,
    /// Units the PRF selected (≈ total/γ).
    pub selected_units: usize,
    /// Selected units whose values accepted a mark.
    pub marked_units: usize,
    /// Individual node values rewritten (> marked_units when FD groups
    /// or multi-valued attributes are present).
    pub marked_nodes: usize,
    /// The query set Q to safeguard.
    pub queries: Vec<StoredQuery>,
}

impl EmbedReport {
    /// Fraction of selected units actually marked.
    pub fn capacity_utilization(&self) -> f64 {
        if self.selected_units == 0 {
            1.0
        } else {
            self.marked_units as f64 / self.selected_units as f64
        }
    }
}

/// Embeds `watermark` into `doc` in place and returns the report with
/// the identity-query set.
///
/// Follows §2.2: enumerate units (keys + FD groups), select one in γ via
/// `HMAC(K, unit-id)`, embed the assigned watermark bit through the
/// type's plug-in, and record the identity queries.
pub fn embed(
    doc: &mut Document,
    binding: &SchemaBinding,
    fds: &[Fd],
    config: &EncoderConfig,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<EmbedReport, WmError> {
    let _embed_span = wmx_telemetry::span("embed");
    if watermark.is_empty() {
        return Err(WmError::new("watermark must have at least one bit"));
    }
    // Redundancy mode widens the embedded watermark to r back-to-back
    // copies; selection and unit enumeration are untouched, each unit
    // just indexes into the wider bit string (see `Watermark::repeat`).
    let redundancy = config.redundancy.max(1) as usize;
    let eff;
    let watermark = if redundancy > 1 {
        eff = watermark.repeat(redundancy);
        &eff
    } else {
        watermark
    };
    // Units come from the compiled plan: name lookups and query
    // parsing happen once, at (cached) compile time;
    // `plan_equivalence.rs` pins it to an interpretive oracle.
    let plan = {
        let _s = wmx_telemetry::span("embed.plan");
        global_plan_cache().get_or_compile(binding, fds, config)?
    };
    let table = plan.table();
    let units = {
        let _s = wmx_telemetry::span("embed.select");
        plan.execute(doc)
    };
    let marker = UnitMarker::new(key.clone());

    let mut report = EmbedReport {
        total_units: units.len(),
        selected_units: 0,
        marked_units: 0,
        marked_nodes: 0,
        queries: Vec::new(),
    };

    let _mark_span = wmx_telemetry::span("embed.mark");
    for unit in units {
        // Selection feeds the compact key straight into the PRF — no
        // unit-id string is built for the ~(γ−1)/γ unselected units.
        if !marker.is_selected(&unit.key.id(table), config.gamma) {
            continue;
        }
        report.selected_units += 1;
        // The per-node decision lives in `UnitMarker` (shared with the
        // streaming engine); this path feeds it the DOM-backed context.
        let marked_nodes = marker.mark_unit(
            &mut DomNodesMut::new(doc, &unit.nodes),
            &unit.key.id(table),
            unit.mark,
            watermark,
        )?;
        if marked_nodes == 0 {
            continue; // value could not carry the mark (e.g. empty text)
        }
        report.marked_units += 1;
        report.marked_nodes += marked_nodes;
        // Only marked units pay for query construction and the textual
        // unit id (the persisted safeguard format is unchanged).
        let (query, logical) = unit.query_and_logical(table, binding, fds)?;
        report.queries.push(StoredQuery {
            unit_id: unit.key.display(table),
            xpath: query.to_string(),
            logical,
            mark: unit.mark,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkableAttr;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_xml::parse;
    use wmx_xpath::Query;

    fn doc(n: usize) -> Document {
        let mut body = String::from("<db>");
        for i in 0..n {
            body.push_str(&format!(
                "<book publisher=\"pub{}\"><title>Book {i}</title><editor>Ed{}</editor><year>{}</year></book>",
                i % 3,
                i % 3,
                1990 + (i % 20)
            ));
        }
        body.push_str("</db>");
        parse(&body).unwrap()
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
                    ("author", AttrBinding::ChildText("author".into())),
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

    #[test]
    fn embedding_marks_roughly_one_in_gamma() {
        let mut d = doc(600);
        let report = embed(
            &mut d,
            &binding(),
            &[],
            &config(3),
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("10110100").unwrap(),
        )
        .unwrap();
        assert_eq!(report.total_units, 600);
        let expect = 200.0;
        let sd = (600.0f64 * (1.0 / 3.0) * (2.0 / 3.0)).sqrt();
        assert!(
            (report.selected_units as f64 - expect).abs() < 5.0 * sd,
            "selected {} far from {expect}",
            report.selected_units
        );
        assert_eq!(report.marked_units, report.selected_units);
        assert_eq!(report.queries.len(), report.marked_units);
        assert_eq!(report.capacity_utilization(), 1.0);
    }

    #[test]
    fn marks_stay_within_tolerance() {
        let original = doc(100);
        let mut marked = doc(100);
        embed(
            &mut marked,
            &binding(),
            &[],
            &config(1),
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("1011").unwrap(),
        )
        .unwrap();
        let years = Query::compile("/db/book/year").unwrap();
        let before: Vec<i64> = years
            .select(&original)
            .iter()
            .map(|n| n.string_value(&original).parse().unwrap())
            .collect();
        let after: Vec<i64> = years
            .select(&marked)
            .iter()
            .map(|n| n.string_value(&marked).parse().unwrap())
            .collect();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() <= 1, "year moved {b} -> {a}");
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let mut a = doc(50);
        let mut b = doc(50);
        let key = SecretKey::from_passphrase("same");
        let wm = Watermark::parse("110010").unwrap();
        embed(&mut a, &binding(), &[], &config(2), &key, &wm).unwrap();
        embed(&mut b, &binding(), &[], &config(2), &key, &wm).unwrap();
        assert_eq!(
            wmx_xml::to_canonical_string(&a),
            wmx_xml::to_canonical_string(&b)
        );
    }

    #[test]
    fn different_keys_mark_different_units() {
        let mut a = doc(200);
        let mut b = doc(200);
        let wm = Watermark::parse("110010").unwrap();
        let ra = embed(
            &mut a,
            &binding(),
            &[],
            &config(4),
            &SecretKey::from_passphrase("k1"),
            &wm,
        )
        .unwrap();
        let rb = embed(
            &mut b,
            &binding(),
            &[],
            &config(4),
            &SecretKey::from_passphrase("k2"),
            &wm,
        )
        .unwrap();
        let ids_a: std::collections::BTreeSet<_> =
            ra.queries.iter().map(|q| q.unit_id.clone()).collect();
        let ids_b: std::collections::BTreeSet<_> =
            rb.queries.iter().map(|q| q.unit_id.clone()).collect();
        assert_ne!(ids_a, ids_b);
    }

    #[test]
    fn fd_groups_marked_consistently() {
        let mut d = doc(60);
        let fd = Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).unwrap();
        let mut cfg = config(1);
        cfg.markable.push(MarkableAttr::text("book", "publisher"));
        let report = embed(
            &mut d,
            &binding(),
            &[fd],
            &cfg,
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("10").unwrap(),
        )
        .unwrap();
        // 60 year units + 3 fd groups (pub0..pub2).
        assert_eq!(report.total_units, 63);
        // Every duplicate in a group holds the identical value.
        for group_query in [
            "/db/book[editor = 'Ed0']/@publisher",
            "/db/book[editor = 'Ed1']/@publisher",
            "/db/book[editor = 'Ed2']/@publisher",
        ] {
            let q = Query::compile(group_query).unwrap();
            let values: std::collections::BTreeSet<String> =
                q.select(&d).iter().map(|n| n.string_value(&d)).collect();
            assert_eq!(values.len(), 1, "group {group_query} diverged: {values:?}");
        }
    }

    #[test]
    fn stored_queries_locate_marked_nodes() {
        let mut d = doc(80);
        let report = embed(
            &mut d,
            &binding(),
            &[],
            &config(2),
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("1011").unwrap(),
        )
        .unwrap();
        for sq in &report.queries {
            let q = Query::compile(&sq.xpath).unwrap();
            assert!(
                !q.select(&d).is_empty(),
                "stored query {} finds nothing",
                sq.xpath
            );
        }
    }

    #[test]
    fn empty_watermark_rejected() {
        let mut d = doc(5);
        let err = embed(
            &mut d,
            &binding(),
            &[],
            &config(1),
            &SecretKey::from_passphrase("k"),
            &Watermark::from_bits(vec![]),
        )
        .unwrap_err();
        assert!(err.message.contains("at least one bit"));
    }

    #[test]
    fn gamma_zero_marks_nothing() {
        let mut d = doc(30);
        let before = wmx_xml::to_canonical_string(&d);
        let report = embed(
            &mut d,
            &binding(),
            &[],
            &config(0),
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("10").unwrap(),
        )
        .unwrap();
        assert_eq!(report.selected_units, 0);
        assert_eq!(wmx_xml::to_canonical_string(&d), before);
    }

    /// A document with multi-author books for order-mark tests.
    fn doc_with_authors(n: usize) -> Document {
        let mut body = String::from("<db>");
        for i in 0..n {
            body.push_str(&format!(
                "<book publisher=\"p\"><title>Book {i}</title>\
                 <author>Author {}</author><author>Author {}</author>\
                 <editor>E</editor><year>2000</year></book>",
                (i * 7) % n,
                (i * 11 + 3) % n,
            ));
        }
        body.push_str("</db>");
        wmx_xml::parse(&body).unwrap()
    }

    #[test]
    fn order_bits_embed_and_extract() {
        let mut d = doc_with_authors(40);
        let cfg = EncoderConfig::new(1, vec![]).with_structural("book", "author");
        let key = SecretKey::from_passphrase("ord");
        let wm = Watermark::parse("1011").unwrap();
        let report = embed(&mut d, &binding(), &[], &cfg, &key, &wm).unwrap();
        assert!(report.marked_units > 0);
        // Extraction agrees with embedding for every stored query.
        let marker = UnitMarker::new(key);
        for sq in &report.queries {
            let q = Query::compile(&sq.xpath).unwrap();
            let nodes = q.select(&d);
            let votes = marker.extract_unit(
                &crate::nodectx::DomNodes::new(&d, &nodes),
                &sq.unit_id,
                sq.mark,
                wm.len(),
            );
            assert_eq!(
                votes.bits,
                vec![wm.bit(votes.bit_index)],
                "order bit mismatch for {}",
                sq.xpath
            );
        }
    }

    #[test]
    fn order_marks_do_not_change_values() {
        let original = doc_with_authors(30);
        let mut marked = doc_with_authors(30);
        let cfg = EncoderConfig::new(1, vec![]).with_structural("book", "author");
        embed(
            &mut marked,
            &binding(),
            &[],
            &cfg,
            &SecretKey::from_passphrase("ord"),
            &Watermark::parse("10").unwrap(),
        )
        .unwrap();
        // The multiset of author values per book is untouched; only the
        // order may differ.
        let authors = |d: &Document| -> Vec<std::collections::BTreeSet<String>> {
            let root = d.root_element().unwrap();
            d.child_elements_named(root, "book")
                .map(|b| {
                    d.child_elements_named(b, "author")
                        .map(|a| d.text_content(a))
                        .collect()
                })
                .collect()
        };
        assert_eq!(authors(&original), authors(&marked));
    }

    #[test]
    fn equal_valued_pairs_are_skipped() {
        let mut d = wmx_xml::parse(
            r#"<db><book publisher="p"><title>T</title><author>Same</author><author>Same</author><editor>E</editor><year>2000</year></book></db>"#,
        )
        .unwrap();
        let cfg = EncoderConfig::new(1, vec![]).with_structural("book", "author");
        let report = embed(
            &mut d,
            &binding(),
            &[],
            &cfg,
            &SecretKey::from_passphrase("ord"),
            &Watermark::parse("10").unwrap(),
        )
        .unwrap();
        assert_eq!(report.marked_units, 0, "equal values cannot carry order");
    }
}
