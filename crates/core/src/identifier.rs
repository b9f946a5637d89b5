//! Identifier creation (§2.3): the identity keys and identity queries
//! of markable units, built from keys and functional dependencies. The
//! units themselves are enumerated by a compiled
//! [`SelectionPlan`](crate::plan::SelectionPlan).
//!
//! The three criteria of §2.3, and how this module meets them:
//!
//! 1. *Differentiate different data elements* — per-entity units are
//!    identified by the entity **key** (`key:book|Readings|attr=year`),
//!    never by physical position, so two `<year>1998</year>` elements
//!    under different books are distinct units.
//! 2. *Identify data redundancies* — values determined by an FD are
//!    lifted out of their entities into **FD-group units** identified by
//!    the FD name and determinant tuple; every duplicate carries the same
//!    mark, so unifying duplicates cannot erase it.
//! 3. *Stay close to data usability* — identity queries are built from
//!    the same key/attribute accesses the usability templates use, so an
//!    attack cannot disable the identifiers without breaking the
//!    templates themselves.
//!
//! # Symbol-native unit identity
//!
//! A unit's identity used to be a `format!`-built `String` — one
//! allocation per unit on the hottest loop of both engines, hashed
//! again every time it keyed a set. It is now a compact [`UnitKey`]:
//! the entity/attribute/FD names are interned [`Sym`]s in a
//! [`SelectionTable`] (built once per run from the configuration, so
//! symbol ids agree across records, chunks, and worker threads), and
//! only the document-derived key value / determinant tuple is owned
//! bytes. The keyed PRF consumes the key **incrementally**
//! ([`UnitKey::id`] feeds the exact byte sequence of the old textual
//! id), so selection, bit assignment, whitening, and nonces are
//! bit-for-bit identical to the string path — `UnitKey::display`
//! lazily renders that same text for reports and persisted query files.

use crate::config::EncoderConfig;
use crate::WmError;
use wmx_crypto::{HmacSha256, PrfInput};
use wmx_rewrite::{LogicalQuery, SchemaBinding};
use wmx_schema::{DataType, Fd};
use wmx_xml::{Interner, Sym};
use wmx_xpath::ast::Expr;
use wmx_xpath::{NodeRef, Query};

/// What kind of unit a [`UnitKey`] identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitTag {
    /// An entity-attribute value identified by the entity key.
    KeyAttr,
    /// A structure unit: the sibling order of a multi-valued attribute.
    SiblingOrder,
    /// An FD-redundancy group identified by the determinant tuple.
    FdGroup,
}

/// Interned names of the selection vocabulary: every entity, markable
/// attribute, structural attribute, and FD name of one configuration.
///
/// Built deterministically (configuration order) so two tables built
/// from the same configuration assign identical symbols — that is what
/// lets the streaming engine compare and merge [`UnitKey`]s across
/// records, chunks, and worker threads without ever rendering them.
#[derive(Debug, Clone)]
pub struct SelectionTable {
    names: Interner,
}

impl SelectionTable {
    /// Builds the table for one configuration + FD set.
    pub fn build(config: &EncoderConfig, fds: &[Fd]) -> Self {
        let mut names = Interner::new();
        for s in &config.structural {
            names.intern(&s.entity);
            names.intern(&s.attr);
        }
        for m in &config.markable {
            names.intern(&m.entity);
            names.intern(&m.attr);
        }
        for fd in fds {
            names.intern(&fd.name);
        }
        SelectionTable { names }
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this table.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.names.resolve(sym)
    }

    pub(crate) fn lookup(&self, name: &str) -> Sym {
        self.names
            .lookup(name)
            .expect("selection vocabulary interned at build")
    }
}

/// The compact identity of one markable unit: interned names plus the
/// document-derived key bytes. `Eq`/`Ord`/`Hash` are cheap (two `u32`s
/// and the value bytes), which is what FD-group sets and cross-chunk
/// vote merging key on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitKey {
    /// Unit flavour (drives the id prefix and the mark family).
    pub tag: UnitTag,
    /// Entity name ([`UnitTag::KeyAttr`]/[`UnitTag::SiblingOrder`]) or
    /// FD name ([`UnitTag::FdGroup`]), interned in the run's
    /// [`SelectionTable`].
    pub name: Sym,
    /// The marked logical attribute (`None` for FD groups).
    pub attr: Option<Sym>,
    /// Key value (single element) or FD determinant tuple.
    pub values: Box<[Box<str>]>,
}

/// ASCII unit separator: joins determinant tuples exactly like the
/// legacy string ids did (`RedundancyGroup::unit_id`).
const LHS_SEPARATOR: &str = "\u{1f}";

impl UnitKey {
    /// The PRF input view of this key: feeds the byte sequence of
    /// [`UnitKey::display`] into the MAC without materializing it.
    pub fn id<'a>(&'a self, table: &'a SelectionTable) -> UnitId<'a> {
        UnitId { key: self, table }
    }

    /// Renders the textual unit id (`key:…`, `ord:…`, `fd:…`) — the
    /// form persisted in safeguarded query files and shown in reports.
    /// Byte-for-byte equal to what [`UnitKey::id`] feeds the PRF.
    pub fn display(&self, table: &SelectionTable) -> String {
        let mut len = 0;
        self.id_pieces(table, |piece| len += piece.len());
        let mut out = String::with_capacity(len);
        self.display_into(table, &mut out);
        out
    }

    /// Appends [`UnitKey::display`]'s text to `out`, so a caller that
    /// renders many ids can reuse one buffer.
    pub fn display_into(&self, table: &SelectionTable, out: &mut String) {
        self.id_pieces(table, |piece| out.push_str(piece));
    }

    /// Passes the textual id to `put` piece by piece, in order: the one
    /// spelling of a unit id, shared by the PRF feed and the rendered
    /// text.
    fn id_pieces<'a>(&'a self, table: &'a SelectionTable, mut put: impl FnMut(&'a str)) {
        match self.tag {
            UnitTag::KeyAttr | UnitTag::SiblingOrder => {
                put(if self.tag == UnitTag::KeyAttr {
                    "key:"
                } else {
                    "ord:"
                });
                put(table.resolve(self.name));
                put("|");
                put(&self.values[0]);
                put("|attr=");
                put(table.resolve(self.attr.expect("value units carry an attr")));
            }
            UnitTag::FdGroup => {
                put("fd:");
                put(table.resolve(self.name));
                put("|lhs=");
                for (i, value) in self.values.iter().enumerate() {
                    if i > 0 {
                        put(LHS_SEPARATOR);
                    }
                    put(value);
                }
            }
        }
    }

    /// Renders the *record scope* forensics group units by: the entity
    /// plus its key value for key-identified units (value and order
    /// units of one record share a scope), or the full group id for FD
    /// groups (which span records by construction). Rendered only at
    /// report-build time — never on the per-unit vote path.
    pub fn record_scope(&self, table: &SelectionTable) -> String {
        let mut out = String::new();
        self.record_scope_into(table, &mut out);
        out
    }

    /// Appends [`UnitKey::record_scope`]'s text to `out`.
    pub fn record_scope_into(&self, table: &SelectionTable, out: &mut String) {
        match self.tag {
            UnitTag::KeyAttr | UnitTag::SiblingOrder => {
                out.push_str(table.resolve(self.name));
                out.push('|');
                out.push_str(&self.values[0]);
            }
            UnitTag::FdGroup => self.display_into(table, out),
        }
    }
}

/// Borrowed PRF-input view of a [`UnitKey`] (see [`UnitKey::id`]).
#[derive(Clone, Copy)]
pub struct UnitId<'a> {
    key: &'a UnitKey,
    table: &'a SelectionTable,
}

impl PrfInput for UnitId<'_> {
    fn feed(&self, mac: &mut HmacSha256) {
        self.key
            .id_pieces(self.table, |piece| mac.update(piece.as_bytes()));
    }
}

/// How the unit physically carries its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// The bit is embedded into the value via the plug-in for this type.
    Value(DataType),
    /// The bit is the relative order of the first two values (ascending
    /// lexicographic = 0, descending = 1).
    SiblingOrder,
}

/// One markable unit: a compact stable identity and the nodes currently
/// holding the value. The identity query is **not** pre-built — only
/// marked units need one (≈ 1/γ of enumerated units), so callers build
/// it on demand through [`MarkUnit::query_and_logical`].
#[derive(Debug, Clone)]
pub struct MarkUnit {
    /// Stable unit identity (input to the keyed PRF).
    pub key: UnitKey,
    /// Value nodes (≥ 1; > 1 for FD groups and multi-valued attributes).
    pub nodes: Vec<NodeRef>,
    /// How the bit is carried (value plug-in vs sibling order).
    pub mark: MarkKind,
}

impl MarkUnit {
    /// Builds the unit's identity query (and logical form, when the
    /// unit is key-identified) under `binding`/`fds`. Deferred from
    /// enumeration so the ~(γ−1)/γ unselected units never pay query
    /// construction.
    pub fn query_and_logical(
        &self,
        table: &SelectionTable,
        binding: &SchemaBinding,
        fds: &[Fd],
    ) -> Result<(Query, Option<LogicalQuery>), WmError> {
        match self.key.tag {
            UnitTag::KeyAttr | UnitTag::SiblingOrder => {
                let logical = LogicalQuery::new(
                    table.resolve(self.key.name),
                    &self.key.values[0],
                    table.resolve(self.key.attr.expect("value units carry an attr")),
                );
                let query = logical.compile(binding)?;
                Ok((query, Some(logical)))
            }
            UnitTag::FdGroup => {
                let fd_name = table.resolve(self.key.name);
                let fd = fds
                    .iter()
                    .find(|f| f.name == fd_name)
                    .ok_or_else(|| WmError::new(format!("unknown fd {fd_name:?}")))?;
                let query = fd_group_query(fd, &self.key.values)?;
                Ok((query, None))
            }
        }
    }
}

/// Finds the markable declaration whose bound access path equals the
/// FD's dependent path (the FD is expressed physically, markables
/// logically; the binding connects them).
pub(crate) fn markable_for_fd<'c>(
    binding: &SchemaBinding,
    fds: &[Fd],
    fd_name: &str,
    config: &'c EncoderConfig,
) -> Option<&'c crate::config::MarkableAttr> {
    let fd = fds.iter().find(|f| f.name == fd_name)?;
    if fd.rhs.len() != 1 {
        return None; // multi-attribute dependents are split into several FDs
    }
    let rhs_text = fd.rhs[0].to_string();
    let entity_text = fd.entity.to_string();
    for markable in &config.markable {
        let Some(entity) = binding.entity(&markable.entity) else {
            continue;
        };
        let Some(attr_binding) = entity.attr(&markable.attr) else {
            continue;
        };
        if queries_equal(&entity.instance_path, &entity_text)
            && queries_equal(&attr_binding.to_path_text(), &rhs_text)
        {
            return Some(markable);
        }
    }
    None
}

/// Compares two query texts modulo reparsing (normalizes `//x` vs
/// `/descendant-or-self::node()/x` and whitespace).
///
/// Binding paths and FD selectors are persisted in canonical `Display`
/// form, so the overwhelmingly common case is byte equality — taken
/// without compiling. Only mismatching texts fall back to compiling
/// both sides and comparing ASTs (compilation is also how `//x` and its
/// expanded spelling are unified).
fn queries_equal(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (Query::compile(a), Query::compile(b)) {
        (Ok(qa), Ok(qb)) => qa.expr() == qb.expr(),
        _ => false,
    }
}

/// Builds the identity query of an FD group:
/// `entity_path[lhs1 = 'v1' and …]/rhs_path` — selecting *all* duplicate
/// value nodes at once.
fn fd_group_query(fd: &Fd, lhs_values: &[Box<str>]) -> Result<Query, WmError> {
    let Expr::Path(entity_path) = fd.entity.expr() else {
        return Err(WmError::new(format!(
            "fd {}: entity selector is not a path",
            fd.name
        )));
    };
    let mut path = entity_path.clone();
    let last = path
        .steps
        .last_mut()
        .ok_or_else(|| WmError::new(format!("fd {}: empty entity path", fd.name)))?;
    for (lhs_query, value) in fd.lhs.iter().zip(lhs_values) {
        let Expr::Path(lhs_path) = lhs_query.expr() else {
            return Err(WmError::new(format!(
                "fd {}: determinant selector is not a path",
                fd.name
            )));
        };
        last.predicates.push(Expr::eq(
            Expr::Path(lhs_path.clone()),
            Expr::Literal(value.to_string()),
        ));
    }
    let Expr::Path(rhs_path) = fd.rhs[0].expr() else {
        return Err(WmError::new(format!(
            "fd {}: dependent selector is not a path",
            fd.name
        )));
    };
    path.steps.extend(rhs_path.steps.clone());
    Ok(Query::from_expr(Expr::Path(path)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkableAttr;
    use crate::plan::SelectionPlan;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_xml::{parse, Document};

    fn doc() -> Document {
        parse(
            r#"<db>
                <book publisher="mkp"><title>A</title><editor>Potter</editor><year>1998</year></book>
                <book publisher="mkp"><title>B</title><editor>Potter</editor><year>2000</year></book>
                <book publisher="acm"><title>C</title><editor>Gamer</editor><year>2002</year></book>
            </db>"#,
        )
        .unwrap()
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

    fn editor_publisher_fd() -> Fd {
        Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).unwrap()
    }

    /// Compiles a plan and runs it over `doc`, the path embed and
    /// detect take; compile-time rejections surface as the error.
    fn select(
        doc: &Document,
        binding: &SchemaBinding,
        fds: &[Fd],
        config: &EncoderConfig,
    ) -> Result<(SelectionTable, Vec<MarkUnit>), WmError> {
        let plan = SelectionPlan::compile(binding, fds, config)?;
        Ok((plan.table().clone(), plan.execute(doc)))
    }

    fn enumerate(
        doc: &Document,
        fds: &[Fd],
        config: &EncoderConfig,
    ) -> Result<(SelectionTable, Vec<MarkUnit>), WmError> {
        select(doc, &binding(), fds, config)
    }

    fn unit_ids(table: &SelectionTable, units: &[MarkUnit]) -> Vec<String> {
        units.iter().map(|u| u.key.display(table)).collect()
    }

    #[test]
    fn queries_equal_fast_path_and_normalization() {
        // Identical canonical texts short-circuit without compiling.
        assert!(queries_equal("/db/book/year", "/db/book/year"));
        assert!(queries_equal("not ( a [ query", "not ( a [ query"));
        // Different spellings of the same path still unify via the AST.
        assert!(queries_equal("//year", "/descendant-or-self::node()/year"));
        assert!(!queries_equal("/db/book", "/db/journal"));
        assert!(!queries_equal("not ( a [ query", "/db/book"));
    }

    #[test]
    fn key_units_enumerated_per_instance() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)]);
        let (table, units) = enumerate(&doc(), &[], &config).unwrap();
        assert_eq!(units.len(), 3);
        let ids = unit_ids(&table, &units);
        assert!(ids.contains(&"key:book|A|attr=year".to_string()));
        assert!(ids.contains(&"key:book|B|attr=year".to_string()));
        assert!(ids.contains(&"key:book|C|attr=year".to_string()));
        for u in &units {
            assert_eq!(u.nodes.len(), 1);
            let (query, logical) = u.query_and_logical(&table, &binding(), &[]).unwrap();
            assert!(logical.is_some());
            // Identity query re-selects exactly the unit's nodes.
            assert_eq!(query.select(&doc()), u.nodes);
        }
    }

    #[test]
    fn fd_groups_absorb_dependent_values() {
        let config = EncoderConfig::new(
            1,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "publisher"),
            ],
        );
        let fds = [editor_publisher_fd()];
        let (table, units) = enumerate(&doc(), &fds, &config).unwrap();

        let fd_units: Vec<&MarkUnit> = units
            .iter()
            .filter(|u| u.key.tag == UnitTag::FdGroup)
            .collect();
        assert_eq!(fd_units.len(), 2); // Potter group, Gamer group
        let potter = fd_units
            .iter()
            .find(|u| u.key.display(&table).contains("Potter"))
            .unwrap();
        assert_eq!(potter.nodes.len(), 2);
        let (potter_query, potter_logical) =
            potter.query_and_logical(&table, &binding(), &fds).unwrap();
        assert!(potter_logical.is_none());
        assert_eq!(
            potter_query.to_string(),
            "/db/book[editor = 'Potter']/@publisher"
        );
        // The query selects both duplicates.
        assert_eq!(potter_query.select(&doc()).len(), 2);

        // publisher values are NOT also enumerated as key units.
        let key_publisher_units = units
            .iter()
            .filter(|u| {
                u.key.tag == UnitTag::KeyAttr
                    && u.key.attr.is_some_and(|a| table.resolve(a) == "publisher")
            })
            .count();
        assert_eq!(key_publisher_units, 0);

        // year units remain key-identified.
        let year_units = units
            .iter()
            .filter(|u| {
                u.key.tag == UnitTag::KeyAttr
                    && u.key.attr.is_some_and(|a| table.resolve(a) == "year")
            })
            .count();
        assert_eq!(year_units, 3);
    }

    #[test]
    fn fd_groups_disabled_leaves_per_entity_units() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::text("book", "publisher")])
            .without_fd_groups();
        let (_, units) = enumerate(&doc(), &[editor_publisher_fd()], &config).unwrap();
        assert_eq!(units.len(), 3);
        assert!(units.iter().all(|u| u.key.tag == UnitTag::KeyAttr));
    }

    #[test]
    fn marking_the_key_is_rejected() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::text("book", "title")]);
        let err = enumerate(&doc(), &[], &config).unwrap_err();
        assert!(err.message.contains("entity key"));
    }

    #[test]
    fn unbound_attribute_is_rejected() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "isbn", 1)]);
        assert!(enumerate(&doc(), &[], &config).is_err());
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("journal", "year", 1)]);
        assert!(enumerate(&doc(), &[], &config).is_err());
    }

    #[test]
    fn unit_ids_stable_under_sibling_reorder() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)]);
        let d1 = doc();
        let mut d2 = doc();
        let root = d2.root_element().unwrap();
        d2.reorder_children(root, &[2, 0, 1]);
        let keys = |d: &Document| -> std::collections::BTreeSet<UnitKey> {
            let (_, units) = enumerate(d, &[], &config).unwrap();
            units.into_iter().map(|u| u.key).collect()
        };
        assert_eq!(keys(&d1), keys(&d2));
    }

    #[test]
    fn fd_group_without_matching_markable_is_skipped() {
        // FD on a dependent that is not declared markable → no FD units.
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)]);
        let (_, units) = enumerate(&doc(), &[editor_publisher_fd()], &config).unwrap();
        assert!(units.iter().all(|u| u.key.tag == UnitTag::KeyAttr));
    }

    #[test]
    fn unit_id_bytes_match_display() {
        // The incremental PRF feed and the rendered display must agree
        // byte for byte — that is the selection-compatibility contract.
        let config = EncoderConfig::new(
            1,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "publisher"),
            ],
        )
        .with_structural("book", "author");
        let fds = [editor_publisher_fd()];
        let table = SelectionTable::build(&config, &fds);
        let keys = [
            UnitKey {
                tag: UnitTag::KeyAttr,
                name: table.lookup("book"),
                attr: Some(table.lookup("year")),
                values: Box::new(["A|odd".into()]),
            },
            UnitKey {
                tag: UnitTag::SiblingOrder,
                name: table.lookup("book"),
                attr: Some(table.lookup("author")),
                values: Box::new(["K".into()]),
            },
            UnitKey {
                tag: UnitTag::FdGroup,
                name: table.lookup("editor-publisher"),
                attr: None,
                values: Box::new(["Potter".into(), "Second".into()]),
            },
        ];
        let prf = wmx_crypto::Prf::new(wmx_crypto::SecretKey::from_passphrase("bytes"));
        for key in &keys {
            let rendered = key.display(&table);
            for gamma in [1u32, 2, 7] {
                assert_eq!(
                    prf.is_selected(&key.id(&table), gamma),
                    prf.is_selected(rendered.as_str(), gamma),
                    "selection mismatch for {rendered}"
                );
            }
            assert_eq!(
                prf.bit_index(&key.id(&table), 16),
                prf.bit_index(rendered.as_str(), 16)
            );
            assert_eq!(
                prf.value_nonce(&key.id(&table)),
                prf.value_nonce(rendered.as_str())
            );
            assert_eq!(
                prf.whiten_bit(&key.id(&table)),
                prf.whiten_bit(rendered.as_str())
            );
        }
    }

    fn doc_multi_author() -> Document {
        wmx_xml::parse(
            r#"<db>
                <book publisher="mkp"><title>A</title><author>Zed</author><author>Ann</author><year>1998</year></book>
                <book publisher="mkp"><title>B</title><author>Solo</author><year>2000</year></book>
                <book publisher="acm"><title>C</title><author>Bo</author><author>Cy</author><author>Al</author><year>2002</year></book>
            </db>"#,
        )
        .unwrap()
    }

    fn binding_with_author() -> SchemaBinding {
        SchemaBinding::new(
            "db1",
            vec![EntityBinding::new(
                "book",
                "/db/book",
                "title",
                vec![
                    ("title", AttrBinding::ChildText("title".into())),
                    ("author", AttrBinding::ChildText("author".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn enumerate_authors(
        config: &EncoderConfig,
    ) -> Result<(SelectionTable, Vec<MarkUnit>), WmError> {
        select(&doc_multi_author(), &binding_with_author(), &[], config)
    }

    #[test]
    fn structural_units_require_two_values() {
        let config = EncoderConfig::new(1, vec![]).with_structural("book", "author");
        let (table, units) = enumerate_authors(&config).unwrap();
        // Books A and C have ≥ 2 authors; B has one.
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|u| u.key.tag == UnitTag::SiblingOrder));
        assert!(units.iter().all(|u| u.mark == MarkKind::SiblingOrder));
        let ids = unit_ids(&table, &units);
        assert!(ids.contains(&"ord:book|A|attr=author".to_string()));
        assert!(ids.contains(&"ord:book|C|attr=author".to_string()));
    }

    #[test]
    fn structural_units_coexist_with_value_units() {
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)])
            .with_structural("book", "author");
        let (_, units) = enumerate_authors(&config).unwrap();
        let value = units
            .iter()
            .filter(|u| matches!(u.mark, MarkKind::Value(_)))
            .count();
        let order = units
            .iter()
            .filter(|u| u.mark == MarkKind::SiblingOrder)
            .count();
        assert_eq!(value, 3);
        assert_eq!(order, 2);
    }

    #[test]
    fn structural_unit_on_unbound_attr_rejected() {
        let config = EncoderConfig::new(1, vec![]).with_structural("book", "translator");
        assert!(enumerate_authors(&config).is_err());
        let config = EncoderConfig::new(1, vec![]).with_structural("journal", "author");
        assert!(enumerate_authors(&config).is_err());
    }
}
