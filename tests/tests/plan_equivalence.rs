//! Compiled-plan ≡ interpretive-oracle equivalence suite: the
//! [`wmx_core::SelectionPlan`] layer (pre-resolved symbols, pre-compiled
//! access steps, cached per schema) must make bit-for-bit the same
//! decisions as [`oracle_units`], an enumerator private to this suite
//! that interprets the schema afresh on every call, and batch detection
//! must locate exactly the nodes per-query evaluation locates.
//!
//! * Over generated corpora and adversarial proptest documents, plan
//!   execution yields the same unit sequence — same ids, same nodes,
//!   same marks — and the same PRF byte stream (selection, bit index,
//!   nonce, whitening) as the oracle's textual ids. The oracle groups
//!   FD duplicates itself ([`oracle_groups`]), so adversarial FD
//!   documents check `wmx_schema::discover_groups_with` too.
//! * Plan compilation rejects exactly the configurations the oracle
//!   rejects, with the same message.
//! * A plan-cache hit returns the very same compiled plan a cold
//!   compile produces, and reusing it changes nothing.
//! * Batched stored-query evaluation ([`wmx_xpath::batch_select`])
//!   returns the same node lists as one-query-at-a-time evaluation.
//! * End to end, DOM detection and streaming detection — both running
//!   on compiled plans — tally identical votes and verdicts.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use wmx_core::{
    detect, embed, DetectionInput, EncoderConfig, MarkKind, MarkUnit, MarkableAttr, PlanCache,
    SelectionPlan, SelectionTable, Watermark,
};
use wmx_crypto::{Prf, SecretKey};
use wmx_data::{jobs, library, publications, Dataset};
use wmx_rewrite::binding::{AttrBinding, EntityBinding};
use wmx_rewrite::SchemaBinding;
use wmx_schema::{discover_groups, Fd};
use wmx_stream::{stream_detect, StreamContext};
use wmx_xml::{Document, NodeId};
use wmx_xpath::{batch_select, Evaluator, NodeRef, Query};

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

/// One markable unit as the oracle reports it: the textual id
/// (`key:…`, `ord:…`, `fd:…`), the value nodes, and how the bit is
/// carried.
struct OracleUnit {
    id: String,
    nodes: Vec<NodeRef>,
    mark: MarkKind,
}

/// One FD-duplicate group as the oracle finds it.
struct OracleGroup {
    fd_name: String,
    lhs: Vec<String>,
    members: Vec<NodeRef>,
}

/// Groups FD duplicates through the FD's public accessors alone: per
/// FD in declaration order, instances sharing a determinant tuple (each
/// part the first hit's string value) pool their dependent value nodes
/// instance-major, in determinant-tuple order. An instance missing a
/// determinant or dependent part is outside the FD's scope.
fn oracle_groups(doc: &Document, fds: &[Fd]) -> Vec<OracleGroup> {
    let mut out = Vec::new();
    for fd in fds {
        let mut groups: BTreeMap<Vec<String>, Vec<NodeRef>> = BTreeMap::new();
        for instance in fd.entity.select(doc) {
            let (Some(lhs), Some(_)) = (fd.lhs_of(doc, &instance), fd.rhs_of(doc, &instance))
            else {
                continue;
            };
            groups
                .entry(lhs)
                .or_default()
                .extend(fd.rhs_nodes(doc, &instance));
        }
        out.extend(groups.into_iter().map(|(lhs, members)| OracleGroup {
            fd_name: fd.name.clone(),
            lhs,
            members,
        }));
    }
    out
}

/// The interpretive unit enumerator of identifier creation (§2.3), kept
/// independent of the plan: it reads `config` afresh on every call and
/// reaches the document only through the public binding, FD and XPath
/// accessors — no selection table, no pre-compiled access, no cache.
/// FD-group units come first (their members are withheld from key
/// units), then the sibling-order units of structural attributes, then
/// key-identified units.
fn oracle_units(
    doc: &Document,
    binding: &SchemaBinding,
    fds: &[Fd],
    config: &EncoderConfig,
) -> Result<Vec<OracleUnit>, String> {
    let mut units = Vec::new();
    let mut fd_covered: HashSet<NodeRef> = HashSet::new();
    if config.use_fd_groups {
        for group in oracle_groups(doc, fds) {
            // Only an FD whose dependent is a declared markable carries
            // marks; every member does, even in a singleton group.
            let Some(markable) = oracle_fd_markable(binding, fds, &group.fd_name, config) else {
                continue;
            };
            if group.members.is_empty() {
                continue;
            }
            fd_covered.extend(group.members.iter().cloned());
            units.push(OracleUnit {
                id: format!("fd:{}|lhs={}", group.fd_name, group.lhs.join("\u{1f}")),
                nodes: group.members,
                mark: MarkKind::Value(markable.data_type),
            });
        }
    }
    for s in &config.structural {
        let entity = oracle_entity(binding, "structural", &s.entity, &s.attr)?;
        for instance in entity.instances(doc) {
            let Some(key) = entity.key_of(doc, &instance) else {
                continue;
            };
            // An order bit needs at least two sibling values.
            let nodes = entity.attr_nodes(doc, &instance, &s.attr);
            if nodes.len() >= 2 {
                units.push(OracleUnit {
                    id: format!("ord:{}|{key}|attr={}", s.entity, s.attr),
                    nodes,
                    mark: MarkKind::SiblingOrder,
                });
            }
        }
    }
    for m in &config.markable {
        if binding
            .entity(&m.entity)
            .is_some_and(|e| e.key_attr == m.attr)
        {
            return Err(format!(
                "attribute {}/{} is the entity key and cannot carry marks",
                m.entity, m.attr
            ));
        }
        let entity = oracle_entity(binding, "markable", &m.entity, &m.attr)?;
        for instance in entity.instances(doc) {
            let Some(key) = entity.key_of(doc, &instance) else {
                continue;
            };
            let nodes: Vec<NodeRef> = entity
                .attr_nodes(doc, &instance, &m.attr)
                .into_iter()
                .filter(|n| !fd_covered.contains(n))
                .collect();
            if !nodes.is_empty() {
                units.push(OracleUnit {
                    id: format!("key:{}|{key}|attr={}", m.entity, m.attr),
                    nodes,
                    mark: MarkKind::Value(m.data_type),
                });
            }
        }
    }
    Ok(units)
}

/// The entity binding behind a structural or markable declaration, or
/// the error naming what the binding lacks.
fn oracle_entity<'b>(
    binding: &'b SchemaBinding,
    role: &str,
    entity: &str,
    attr: &str,
) -> Result<&'b EntityBinding, String> {
    let Some(bound) = binding.entity(entity) else {
        return Err(format!(
            "{role} attribute {entity}/{attr} references an entity not bound by {}",
            binding.name
        ));
    };
    if bound.attr(attr).is_none() {
        return Err(format!(
            "{role} attribute {entity}/{attr} is not bound by {}",
            binding.name
        ));
    }
    Ok(bound)
}

/// The markable declaration backing FD `fd_name`: the one whose bound
/// instance and attribute paths equal the FD's entity and (single)
/// dependent paths, compared as parsed queries.
fn oracle_fd_markable<'c>(
    binding: &SchemaBinding,
    fds: &[Fd],
    fd_name: &str,
    config: &'c EncoderConfig,
) -> Option<&'c MarkableAttr> {
    let fd = fds.iter().find(|f| f.name == fd_name)?;
    let [rhs] = fd.rhs.as_slice() else {
        return None;
    };
    let same =
        |text: &str, query: &Query| Query::compile(text).is_ok_and(|q| q.expr() == query.expr());
    config.markable.iter().find(|m| {
        binding.entity(&m.entity).is_some_and(|entity| {
            entity.attr(&m.attr).is_some_and(|attr| {
                same(&entity.instance_path, &fd.entity) && same(&attr.to_path_text(), rhs)
            })
        })
    })
}

/// Asserts plan execution over `doc` reproduces the oracle exactly:
/// unit count, per-unit id text (through the plan's table and through a
/// freshly built one, so symbol assignments agree too), node lists,
/// mark kinds, and the full PRF decision stream. Returns the plan's
/// units.
fn assert_plan_matches_oracle(
    dataset_name: &str,
    doc: &Document,
    binding: &SchemaBinding,
    fds: &[Fd],
    config: &EncoderConfig,
) -> Vec<MarkUnit> {
    let oracle = oracle_units(doc, binding, fds, config).expect("oracle enumerates");
    let plan = SelectionPlan::compile(binding, fds, config).expect("plan compiles");
    let table = plan.table();
    let fresh_table = SelectionTable::build(config, fds);
    let planned = plan.execute(doc);
    assert_eq!(
        oracle.len(),
        planned.len(),
        "unit count diverged on {dataset_name}"
    );
    let prf = Prf::new(SecretKey::from_passphrase("plan-eq"));
    for (o, p) in oracle.iter().zip(&planned) {
        assert_eq!(
            o.id,
            p.key.display(table),
            "unit id diverged on {dataset_name}"
        );
        assert_eq!(
            o.id,
            p.key.display(&fresh_table),
            "table symbols diverged on {dataset_name}"
        );
        assert_eq!(o.nodes, p.nodes, "node list diverged on {dataset_name}");
        assert_eq!(o.mark, p.mark, "mark kind diverged on {dataset_name}");
        // Same PRF byte stream: every decision the marker derives from
        // the compact key must equal the one derived from the text id.
        let id = o.id.as_str();
        for gamma in [1u32, 2, 3, 7, 100] {
            assert_eq!(
                prf.is_selected(id, gamma),
                prf.is_selected(&p.key.id(table), gamma),
                "selection diverged on {dataset_name} at gamma {gamma}"
            );
        }
        for wm_len in [1usize, 8, 24] {
            assert_eq!(
                prf.bit_index(id, wm_len),
                prf.bit_index(&p.key.id(table), wm_len),
                "bit index diverged on {dataset_name}"
            );
        }
        assert_eq!(
            prf.value_nonce(id),
            prf.value_nonce(&p.key.id(table)),
            "nonce diverged on {dataset_name}"
        );
        assert_eq!(
            prf.whiten_bit(id),
            prf.whiten_bit(&p.key.id(table)),
            "whitening diverged on {dataset_name}"
        );
    }
    planned
}

/// Every corpus: compiled plans reproduce the oracle's enumeration and
/// PRF stream exactly, with and without FD groups, and with structural
/// units where the corpus has a multi-valued attribute.
#[test]
fn corpus_plans_match_legacy_enumeration() {
    for dataset in datasets() {
        let units = assert_plan_matches_oracle(
            &dataset.name,
            &dataset.doc,
            &dataset.binding,
            &dataset.fds,
            &dataset.config,
        );
        assert!(!units.is_empty(), "corpus {} has units", dataset.name);
        // The FD-free configuration exercises the pure structural +
        // markable phases.
        let no_fd = dataset.config.clone().without_fd_groups();
        assert_plan_matches_oracle(
            &dataset.name,
            &dataset.doc,
            &dataset.binding,
            &dataset.fds,
            &no_fd,
        );
        // Books carry several authors: their sibling order adds
        // structural units between the FD groups and the key units.
        let has_authors = dataset
            .binding
            .entity("book")
            .is_some_and(|book| book.attr("author").is_some());
        if has_authors {
            let structural = dataset.config.clone().with_structural("book", "author");
            let units = assert_plan_matches_oracle(
                &dataset.name,
                &dataset.doc,
                &dataset.binding,
                &dataset.fds,
                &structural,
            );
            assert!(
                units.iter().any(|u| u.mark == MarkKind::SiblingOrder),
                "corpus {} has structural units",
                dataset.name
            );
        }
    }
}

/// Every way a configuration can be invalid: plan compilation fails with
/// exactly the message the oracle reports. The last row is invalid
/// twice over, which pins that structural declarations are checked
/// before markable ones.
#[test]
fn compile_errors_match_oracle() {
    let doc = doc_with_titles(&["A".to_string(), "B".to_string()]);
    let binding = title_binding();
    let year = || MarkableAttr::integer("book", "year", 1);
    let isbn = || MarkableAttr::integer("book", "isbn", 1);
    let cases = [
        (
            "key marked",
            EncoderConfig::new(1, vec![MarkableAttr::text("book", "title")]),
        ),
        ("unbound markable attr", EncoderConfig::new(1, vec![isbn()])),
        (
            "unbound markable entity",
            EncoderConfig::new(1, vec![MarkableAttr::integer("journal", "year", 1)]),
        ),
        (
            "unbound structural attr",
            EncoderConfig::new(1, vec![year()]).with_structural("book", "translator"),
        ),
        (
            "unbound structural entity",
            EncoderConfig::new(1, vec![year()]).with_structural("journal", "author"),
        ),
        (
            "structural and markable both unbound",
            EncoderConfig::new(1, vec![isbn()]).with_structural("book", "translator"),
        ),
    ];
    for (case, config) in cases {
        let Err(expected) = oracle_units(&doc, &binding, &[], &config) else {
            panic!("oracle accepted {case}");
        };
        let Err(err) = SelectionPlan::compile(&binding, &[], &config) else {
            panic!("plan accepted {case}");
        };
        assert_eq!(err.message, expected, "{case}");
    }
}

/// A cache hit returns the very same `Arc` the cold compile inserted,
/// counts as a hit, and executes identically to an uncached compile.
#[test]
fn cache_hit_equals_cold_compile() {
    let dataset = &datasets()[0];
    let cache = PlanCache::new();
    let first = cache
        .get_or_compile(&dataset.binding, &dataset.fds, &dataset.config)
        .expect("cold compile");
    let second = cache
        .get_or_compile(&dataset.binding, &dataset.fds, &dataset.config)
        .expect("cache hit");
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "hit must return the cached plan"
    );
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 1);

    let cold = SelectionPlan::compile(&dataset.binding, &dataset.fds, &dataset.config)
        .expect("uncached compile");
    assert_eq!(cold.schema_hash(), first.schema_hash());
    let from_cache = first.execute(&dataset.doc);
    let from_cold = cold.execute(&dataset.doc);
    assert_eq!(from_cache.len(), from_cold.len());
    for (a, b) in from_cache.iter().zip(&from_cold) {
        assert_eq!(a.key.display(first.table()), b.key.display(cold.table()));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.mark, b.mark);
    }
}

/// Batched evaluation of the safeguarded query set locates exactly the
/// nodes one-query-at-a-time evaluation locates, in the same order.
#[test]
fn batch_select_matches_per_query_evaluation() {
    for dataset in datasets() {
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &dataset.config,
            &SecretKey::from_passphrase("plan-eq-batch"),
            &Watermark::from_message("© batch", 16),
        )
        .expect("embed succeeds");
        assert!(!report.queries.is_empty());
        let compiled: Vec<Query> = report
            .queries
            .iter()
            .map(|s| Query::compile(&s.xpath).expect("stored query compiles"))
            .collect();
        let evaluator = Evaluator::new(&marked);
        let batched = batch_select(&evaluator, &compiled);
        assert_eq!(batched.len(), compiled.len());
        let mut answered = 0usize;
        for (query, batch) in compiled.iter().zip(&batched) {
            let direct = query.select_with(&evaluator);
            if let Some(nodes) = batch {
                answered += 1;
                assert_eq!(
                    nodes, &direct,
                    "batched nodes diverged on corpus {} for {}",
                    dataset.name, query
                );
            }
            assert!(
                !direct.is_empty(),
                "stored query must locate its unit on the unattacked corpus"
            );
        }
        assert!(
            answered > 0,
            "identity queries of corpus {} must be batchable",
            dataset.name
        );
    }
}

/// End to end through the compiled plans on both engines: DOM detection
/// and streaming detection tally identical votes and verdicts.
#[test]
fn dom_and_stream_votes_agree_via_plans() {
    for dataset in datasets() {
        let key = SecretKey::from_passphrase("plan-eq-votes");
        let wm = Watermark::from_message("© plan votes", 16);
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

/// Determinant values that stress grouping and the unit id: the empty
/// string, the tuple separator, the id's own `|lhs=` and `fd:` markup.
const EDITORS: [&str; 6] = ["Potter", "Gamer", "", "a\u{1f}b", "|lhs=v", "fd:e|lhs=v"];
const PUBLISHERS: [&str; 4] = ["mkp", "acm", "", "p\u{1f}q"];

/// Builds `<db>` with one `<book>` per `(editor, publisher, year)` spec,
/// attaching values as raw DOM text so arbitrary characters survive.
/// Editor: 0 none, 1 two `<editor>` children, else one child. Publisher
/// and year: 0 none. Indexes pick from [`EDITORS`] and [`PUBLISHERS`].
fn fd_doc(books: &[(u8, usize, usize, u8, usize)]) -> Document {
    let mut doc = Document::new();
    let db = doc.create_element("db").expect("arena fits");
    let doc_node = doc.document_node();
    doc.append_child(doc_node, db);
    fn child(doc: &mut Document, book: NodeId, name: &str, text: &str) {
        let node = doc.create_element(name).expect("arena fits");
        doc.append_child(book, node);
        doc.set_text_content(node, text.to_string())
            .expect("arena fits");
    }
    for (i, &(editor, first, second, publisher, year)) in books.iter().enumerate() {
        let book = doc.create_element("book").expect("arena fits");
        doc.append_child(db, book);
        if publisher > 0 {
            let value = PUBLISHERS[usize::from(publisher) % PUBLISHERS.len()];
            doc.set_attribute(book, "publisher", value.to_string())
                .expect("arena fits");
        }
        child(&mut doc, book, "title", &format!("T{i}"));
        if editor > 0 {
            child(&mut doc, book, "editor", EDITORS[first % EDITORS.len()]);
        }
        if editor == 1 {
            child(&mut doc, book, "editor", EDITORS[second % EDITORS.len()]);
        }
        if year > 0 {
            child(&mut doc, book, "year", &(1990 + year % 3).to_string());
        }
    }
    doc
}

fn fd_binding() -> SchemaBinding {
    SchemaBinding::new(
        "db",
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
        .expect("static binding is valid")],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial FD documents — instances missing the determinant or
    /// the dependent, two determinant children, empty and separator-laden
    /// determinants, one- and two-part determinants, two dependents —
    /// group exactly as the oracle groups them, and plan execution over
    /// them matches the oracle's units.
    #[test]
    fn adversarial_fd_docs_group_like_the_oracle(
        books in prop::collection::vec((0u8..4, 0usize..6, 0usize..6, 0u8..5, 0usize..4), 1..24),
        fd_set in 0u8..3,
        gamma in 1u32..5,
    ) {
        let doc = fd_doc(&books);
        let one_part = Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"])
            .expect("static fd is valid");
        let two_part =
            Fd::new("editor-year-publisher", "/db/book", &["editor", "year"], &["@publisher"])
                .expect("static fd is valid");
        // Two dependents: no markable backs it, so only the grouping
        // itself sees it.
        let two_dependents =
            Fd::new("editor-publisher-year", "/db/book", &["editor"], &["@publisher", "year"])
                .expect("static fd is valid");
        let mut fds = match fd_set {
            0 => vec![one_part],
            1 => vec![two_part],
            _ => vec![two_part, one_part],
        };
        fds.push(two_dependents);
        let groups = discover_groups(&doc, &fds);
        let oracle = oracle_groups(&doc, &fds);
        prop_assert_eq!(groups.len(), oracle.len());
        for (group, expected) in groups.iter().zip(&oracle) {
            prop_assert_eq!(&fds[group.fd].name, &expected.fd_name);
            prop_assert!(group.lhs.iter().map(|v| &**v).eq(expected.lhs.iter().map(String::as_str)));
            prop_assert_eq!(&group.members, &expected.members);
        }
        let config = EncoderConfig::new(
            gamma,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "publisher"),
            ],
        );
        assert_plan_matches_oracle("adversarial-fd", &doc, &fd_binding(), &fds, &config);
    }

    /// Adversarial key values — pipes, the id prefixes themselves, the
    /// FD tuple separator, unicode — never split the compiled plan from
    /// the oracle.
    #[test]
    fn adversarial_docs_plan_matches_legacy(
        random in prop::collection::vec("[ -~]{0,12}", 1..8),
        gamma in 1u32..9,
    ) {
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
        let config = EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)]);
        assert_plan_matches_oracle("adversarial", &doc, &binding, &[], &config);
    }

    /// Batched and per-query evaluation agree on stored query sets from
    /// adversarial documents (selection varies with the seed).
    #[test]
    fn adversarial_batch_matches_per_query(seed in 0u64..500) {
        let titles: Vec<String> = (0..30).map(|i| format!("T{}-{seed}", i * 7 % 13)).collect();
        let doc = doc_with_titles(&titles);
        let binding = title_binding();
        let config = EncoderConfig::new(2, vec![MarkableAttr::integer("book", "year", 1)]);
        let mut marked = doc.clone();
        let report = embed(
            &mut marked,
            &binding,
            &[],
            &config,
            &SecretKey::new(seed.to_be_bytes().to_vec()),
            &Watermark::from_message("© adversarial", 8),
        )
        .expect("embed succeeds");
        let compiled: Vec<Query> = report
            .queries
            .iter()
            .map(|s| Query::compile(&s.xpath).expect("stored query compiles"))
            .collect();
        let evaluator = Evaluator::new(&marked);
        let batched = batch_select(&evaluator, &compiled);
        for (query, batch) in compiled.iter().zip(&batched) {
            let direct = query.select_with(&evaluator);
            if let Some(nodes) = batch {
                prop_assert_eq!(nodes, &direct);
            }
        }
    }
}
