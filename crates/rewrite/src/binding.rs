//! Schema bindings: logical entities/attributes → concrete access paths.

use crate::RewriteError;
use std::collections::BTreeMap;
use wmx_xml::Document;
use wmx_xpath::ast::{Expr, PathExpr};
use wmx_xpath::parser::parse_path;
use wmx_xpath::{NodeRef, Query};

/// How a logical attribute is reached from an entity instance node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrBinding {
    /// The text content of a child element with this name.
    ChildText(String),
    /// An XML attribute on the instance element itself.
    Attribute(String),
    /// The instance element's own text content (for leaf entities, like
    /// `book` in the paper's db2.xml).
    SelfText,
    /// A general relative XPath (e.g. `"../../@name"` to reach the
    /// grouping publisher's name from a db2 book leaf).
    Path(String),
}

impl AttrBinding {
    /// The relative XPath text for this binding.
    pub fn to_path_text(&self) -> String {
        match self {
            AttrBinding::ChildText(name) => name.clone(),
            AttrBinding::Attribute(name) => format!("@{name}"),
            AttrBinding::SelfText => ".".to_string(),
            AttrBinding::Path(p) => p.clone(),
        }
    }

    /// Compiles the relative query.
    pub fn to_query(&self) -> Result<Query, RewriteError> {
        Query::compile(&self.to_path_text()).map_err(RewriteError::from)
    }
}

/// Binding of one logical entity onto a physical schema.
///
/// Construction compiles every access path **once**: the instance
/// query, one query per bound attribute, and the parsed path prototypes
/// identity queries are assembled from. The per-instance accessors
/// ([`EntityBinding::attr_nodes`], [`EntityBinding::key_of`], …) reuse
/// those compiled forms, and compiled selection plans clone them
/// ([`EntityBinding::instance_query`], [`EntityBinding::attr_query`]) —
/// unit enumeration never re-parses a path text.
#[derive(Debug, Clone)]
pub struct EntityBinding {
    /// Logical entity name, e.g. `"book"`.
    pub entity: String,
    /// Absolute path selecting the instances, e.g. `"/db/book"`.
    pub instance_path: String,
    /// Name of the logical attribute acting as the entity key.
    pub key_attr: String,
    /// Logical attribute name → access path. Attributes *added* here
    /// after construction are served by a compile-per-call fallback;
    /// *replacing* an existing binding in place is not supported (the
    /// construction-time caches would go stale) — build a new
    /// [`EntityBinding`] instead.
    pub attrs: BTreeMap<String, AttrBinding>,
    instance_query: Query,
    /// Compiled access queries per attribute (`None` when the bound
    /// path does not compile — such attributes locate no nodes, the
    /// same behaviour the lazily-compiling accessor had).
    attr_queries: BTreeMap<String, Option<Query>>,
    /// Parsed relative paths per attribute, for identity-query assembly.
    attr_rels: BTreeMap<String, Option<PathExpr>>,
    /// Parsed instance path + key path, for identity-query assembly
    /// (`None` when either fails to parse; identity construction then
    /// falls back to the re-parsing path and reports its error).
    identity_proto: Option<(PathExpr, PathExpr)>,
}

impl EntityBinding {
    /// Creates a binding; `attrs` must contain `key_attr`.
    pub fn new(
        entity: &str,
        instance_path: &str,
        key_attr: &str,
        attrs: Vec<(&str, AttrBinding)>,
    ) -> Result<Self, RewriteError> {
        let attrs: BTreeMap<String, AttrBinding> =
            attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        if !attrs.contains_key(key_attr) {
            return Err(RewriteError::new(format!(
                "entity {entity}: key attribute {key_attr:?} is not bound"
            )));
        }
        let instance_query = Query::compile(instance_path)?;
        let attr_queries: BTreeMap<String, Option<Query>> = attrs
            .iter()
            .map(|(name, binding)| (name.clone(), binding.to_query().ok()))
            .collect();
        let attr_rels: BTreeMap<String, Option<PathExpr>> = attrs
            .iter()
            .map(|(name, binding)| (name.clone(), parse_path(&binding.to_path_text()).ok()))
            .collect();
        let identity_proto = match (
            parse_path(instance_path),
            attr_rels.get(key_attr).cloned().flatten(),
        ) {
            (Ok(instance), Some(key_rel)) => Some((instance, key_rel)),
            _ => None,
        };
        Ok(EntityBinding {
            entity: entity.to_string(),
            instance_path: instance_path.to_string(),
            key_attr: key_attr.to_string(),
            attrs,
            instance_query,
            attr_queries,
            attr_rels,
            identity_proto,
        })
    }

    /// All instances of the entity in `doc`, in document order.
    pub fn instances(&self, doc: &Document) -> Vec<NodeRef> {
        self.instance_query.select(doc)
    }

    /// The compiled instance query (selects all entity instances).
    /// Compiled selection plans clone this instead of re-parsing
    /// `instance_path`, so plan and binding agree by construction.
    pub fn instance_query(&self) -> &Query {
        &self.instance_query
    }

    /// The binding of a logical attribute.
    pub fn attr(&self, name: &str) -> Option<&AttrBinding> {
        self.attrs.get(name)
    }

    /// The compiled access query of a logical attribute (`None` when
    /// the attribute is unbound or its path does not compile).
    pub fn attr_query(&self, name: &str) -> Option<&Query> {
        self.attr_queries.get(name)?.as_ref()
    }

    /// The cache entry for `name`, or a freshly compiled query when the
    /// attribute was added to the public `attrs` map after construction
    /// (the caches cover construction-time attributes only; late
    /// additions fall back to the old compile-per-call behaviour rather
    /// than silently locating nothing).
    fn attr_query_or_compile(&self, name: &str) -> Option<std::borrow::Cow<'_, Query>> {
        match self.attr_queries.get(name) {
            Some(cached) => cached.as_ref().map(std::borrow::Cow::Borrowed),
            None => self
                .attr(name)
                .and_then(|binding| binding.to_query().ok())
                .map(std::borrow::Cow::Owned),
        }
    }

    /// The binding of the key attribute.
    pub fn key_binding(&self) -> &AttrBinding {
        self.attrs
            .get(&self.key_attr)
            .expect("validated at construction")
    }

    /// Assembles the identity query
    /// `instance_path[key_path = 'key_value']/attr_path` from the
    /// prototypes parsed at construction — no path text is re-parsed.
    /// `None` when `attr` is unbound or a prototype failed to parse
    /// (callers fall back to the error-reporting compile path).
    pub fn identity_query(&self, key_value: &str, attr: &str) -> Option<Query> {
        let (instance, key_rel) = self.identity_proto.as_ref()?;
        let attr_binding = self.attr(attr)?;
        let mut path = instance.clone();
        let predicate = Expr::eq(
            Expr::Path(key_rel.clone()),
            Expr::Literal(key_value.to_string()),
        );
        path.steps.last_mut()?.predicates.push(predicate);
        if !matches!(attr_binding, AttrBinding::SelfText) {
            let rel = self.attr_rels.get(attr)?.as_ref()?;
            path.steps.extend(rel.steps.iter().cloned());
        }
        Some(Query::from_expr(Expr::Path(path)))
    }

    /// Value nodes of a logical attribute for one instance.
    pub fn attr_nodes(&self, doc: &Document, instance: &NodeRef, name: &str) -> Vec<NodeRef> {
        match self.attr_query_or_compile(name) {
            Some(q) => q.select_from(doc, instance.clone()),
            None => Vec::new(),
        }
    }

    /// First value of a logical attribute for one instance.
    pub fn attr_value(&self, doc: &Document, instance: &NodeRef, name: &str) -> Option<String> {
        self.attr_nodes(doc, instance, name)
            .first()
            .map(|n| n.string_value(doc))
    }

    /// All values of a logical attribute for one instance.
    pub fn attr_values(&self, doc: &Document, instance: &NodeRef, name: &str) -> Vec<String> {
        self.attr_nodes(doc, instance, name)
            .iter()
            .map(|n| n.string_value(doc))
            .collect()
    }

    /// The key value of one instance.
    pub fn key_of(&self, doc: &Document, instance: &NodeRef) -> Option<String> {
        self.attr_value(doc, instance, &self.key_attr)
    }
}

/// A named set of entity bindings describing one physical schema.
#[derive(Debug, Clone)]
pub struct SchemaBinding {
    /// Binding name, e.g. `"db1"`.
    pub name: String,
    /// Entity name → binding.
    pub entities: BTreeMap<String, EntityBinding>,
}

impl SchemaBinding {
    /// Creates a binding set.
    pub fn new(name: &str, entities: Vec<EntityBinding>) -> Self {
        SchemaBinding {
            name: name.to_string(),
            entities: entities
                .into_iter()
                .map(|e| (e.entity.clone(), e))
                .collect(),
        }
    }

    /// Looks up an entity binding.
    pub fn entity(&self, name: &str) -> Option<&EntityBinding> {
        self.entities.get(name)
    }
}

/// The paper's db1.xml binding (Fig. 1a): books are records with
/// publisher attribute, title/author/editor/year children.
pub fn paper_db1_binding() -> SchemaBinding {
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
        .expect("static binding is valid")],
    )
}

/// The paper's db2.xml binding (Fig. 1b): books are leaves grouped under
/// publisher/author; publisher and author are reached via parent steps.
pub fn paper_db2_binding() -> SchemaBinding {
    SchemaBinding::new(
        "db2",
        vec![EntityBinding::new(
            "book",
            "/db/publisher/author/book",
            "title",
            vec![
                ("title", AttrBinding::SelfText),
                ("author", AttrBinding::Path("../@name".into())),
                ("publisher", AttrBinding::Path("../../@name".into())),
            ],
        )
        .expect("static binding is valid")],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_xml::parse;

    fn db1_doc() -> Document {
        parse(
            r#"<db>
                <book publisher="mkp">
                    <title>Readings in Database Systems</title>
                    <author>Stonebraker</author>
                    <author>Hellerstein</author>
                    <editor>Harrypotter</editor>
                    <year>1998</year>
                </book>
                <book publisher="acm">
                    <title>Database Design</title>
                    <author>Berstein</author>
                    <editor>Gamer</editor>
                    <year>1998</year>
                </book>
            </db>"#,
        )
        .unwrap()
    }

    fn db2_doc() -> Document {
        parse(
            r#"<db>
                <publisher name="mkp">
                    <author name="Stonebraker">
                        <book>Readings in Database Systems</book>
                    </author>
                    <author name="Hellerstein">
                        <book>Readings in Database Systems</book>
                    </author>
                </publisher>
                <publisher name="acm">
                    <author name="Berstein">
                        <book>Database Design</book>
                    </author>
                </publisher>
            </db>"#,
        )
        .unwrap()
    }

    #[test]
    fn db1_binding_reads_attributes() {
        let doc = db1_doc();
        let binding = paper_db1_binding();
        let book = binding.entity("book").unwrap();
        let instances = book.instances(&doc);
        assert_eq!(instances.len(), 2);
        assert_eq!(
            book.key_of(&doc, &instances[0]).unwrap(),
            "Readings in Database Systems"
        );
        assert_eq!(
            book.attr_value(&doc, &instances[0], "publisher").unwrap(),
            "mkp"
        );
        assert_eq!(
            book.attr_values(&doc, &instances[0], "author"),
            vec!["Stonebraker", "Hellerstein"]
        );
        assert_eq!(
            book.attr_value(&doc, &instances[1], "year").unwrap(),
            "1998"
        );
    }

    #[test]
    fn db2_binding_reads_same_logical_data() {
        let doc = db2_doc();
        let binding = paper_db2_binding();
        let book = binding.entity("book").unwrap();
        let instances = book.instances(&doc);
        assert_eq!(instances.len(), 3); // one per (author, book) pair
        assert_eq!(
            book.key_of(&doc, &instances[0]).unwrap(),
            "Readings in Database Systems"
        );
        assert_eq!(
            book.attr_value(&doc, &instances[0], "publisher").unwrap(),
            "mkp"
        );
        assert_eq!(
            book.attr_value(&doc, &instances[0], "author").unwrap(),
            "Stonebraker"
        );
        assert_eq!(
            book.attr_value(&doc, &instances[2], "publisher").unwrap(),
            "acm"
        );
    }

    #[test]
    fn missing_attribute_yields_none() {
        let doc = db1_doc();
        let binding = paper_db1_binding();
        let book = binding.entity("book").unwrap();
        let instances = book.instances(&doc);
        assert_eq!(book.attr_value(&doc, &instances[0], "missing"), None);
    }

    #[test]
    fn key_attr_must_be_bound() {
        let err = EntityBinding::new("x", "/a/x", "id", vec![]).unwrap_err();
        assert!(err.message.contains("key attribute"));
    }

    #[test]
    fn attrs_added_after_construction_still_locate_nodes() {
        let doc = db1_doc();
        let binding = paper_db1_binding();
        let mut book = binding.entity("book").unwrap().clone();
        // The compiled caches predate this attribute; the accessor must
        // fall back to compile-per-call, not silently locate nothing.
        book.attrs
            .insert("ed".into(), AttrBinding::ChildText("editor".into()));
        let instances = book.instances(&doc);
        assert_eq!(
            book.attr_value(&doc, &instances[0], "ed").unwrap(),
            "Harrypotter"
        );
        assert_eq!(book.attr_nodes(&doc, &instances[1], "ed").len(), 1);
    }

    #[test]
    fn attr_binding_path_text() {
        assert_eq!(AttrBinding::ChildText("t".into()).to_path_text(), "t");
        assert_eq!(AttrBinding::Attribute("a".into()).to_path_text(), "@a");
        assert_eq!(AttrBinding::SelfText.to_path_text(), ".");
        assert_eq!(
            AttrBinding::Path("../@name".into()).to_path_text(),
            "../@name"
        );
    }
}
