//! Compiled selection plans: unit enumeration (§2.3).
//!
//! A [`SelectionPlan`] does at compile time everything that does not
//! depend on the document: name → [`Sym`] resolution, markable↔FD
//! matching (which renders and compares query texts), and cloning the
//! compiled instance/key/attribute queries. [`SelectionPlan::execute`]
//! then runs against each document or streamed record with zero name
//! lookups and zero query parsing. DOM embed, DOM detect and every
//! streaming engine select their units through a plan.
//!
//! Plans are immutable and shareable (`Sync`); the [`PlanCache`] keys
//! them by a canonical schema description (hashed to
//! [`SelectionPlan::schema_hash`]) so every record, chunk, and worker
//! thread of a streaming run — and repeated runs over the same schema —
//! reuse one compiled plan.
//!
//! # Equivalence contract
//!
//! `plan.execute(doc)` returns the units a direct reading of the
//! configuration yields — FD-group units, then structural units, then
//! key-identified units; same ids, same nodes, same [`MarkKind`]s — and
//! `plan.table()` assigns the same symbols as `SelectionTable::build`
//! on the same inputs. [`SelectionPlan::compile`] rejects invalid
//! configurations with the messages that reading reports. An
//! independent interpretive enumerator in
//! `tests/tests/plan_equivalence.rs` is the oracle for this contract,
//! checked across corpora and adversarial documents down to the PRF
//! byte stream (selection, bit indices, nonces, whitening).

use crate::config::EncoderConfig;
use crate::identifier::{markable_for_fd, MarkKind, MarkUnit, SelectionTable, UnitKey, UnitTag};
use crate::WmError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use wmx_rewrite::SchemaBinding;
use wmx_schema::{discover_groups_with, DataType, Fd};
use wmx_telemetry::Counter;
use wmx_xml::{Document, NodeId, Sym};
use wmx_xpath::{Evaluator, NodeRef, Query};

/// One pre-compiled entity/attribute access: everything a structural or
/// markable declaration needs per instance, resolved once.
#[derive(Debug, Clone)]
struct PlanAccess {
    /// Entity name in the plan's [`SelectionTable`].
    entity_sym: Sym,
    /// Attribute name in the plan's [`SelectionTable`].
    attr_sym: Sym,
    /// The entity's instance query (cloned compiled form — never
    /// re-parsed).
    instance: Query,
    /// The key-attribute access (`None` when the bound key path does
    /// not compile: such instances are keyless and skipped, matching
    /// the binding accessors).
    key: Option<Query>,
    /// The marked attribute's access (`None` ⇒ locates no nodes).
    attr: Option<Query>,
}

impl PlanAccess {
    fn compile(
        binding: &SchemaBinding,
        entity_name: &str,
        attr_name: &str,
        table: &SelectionTable,
        role: &str,
    ) -> Result<Self, WmError> {
        let Some(entity) = binding.entity(entity_name) else {
            return Err(WmError::new(format!(
                "{role} attribute {entity_name}/{attr_name} references an entity not bound by {}",
                binding.name
            )));
        };
        if entity.attr(attr_name).is_none() {
            return Err(WmError::new(format!(
                "{role} attribute {entity_name}/{attr_name} is not bound by {}",
                binding.name
            )));
        }
        Ok(PlanAccess {
            entity_sym: table.lookup(entity_name),
            attr_sym: table.lookup(attr_name),
            instance: entity.instance_query().clone(),
            key: entity.attr_query(&entity.key_attr).cloned(),
            attr: entity.attr_query(attr_name).cloned(),
        })
    }

    fn key_of(&self, evaluator: &Evaluator<'_>, instance: &NodeRef) -> Option<String> {
        self.key
            .as_ref()?
            .select_from_with(evaluator, instance.clone())
            .first()
            .map(|n| n.string_value(evaluator.document()))
    }

    fn attr_nodes(&self, evaluator: &Evaluator<'_>, instance: &NodeRef) -> Vec<NodeRef> {
        match &self.attr {
            Some(q) => q.select_from_with(evaluator, instance.clone()),
            None => Vec::new(),
        }
    }
}

/// A compiled selection plan (see the module docs).
#[derive(Debug)]
pub struct SelectionPlan {
    table: SelectionTable,
    canon: String,
    schema_hash: u64,
    gamma: u32,
    /// FDs that are backed by a markable attribute, in declaration
    /// order. Groups of unbacked FDs carry no mark and cover no nodes,
    /// so discovering groups over this filtered list alone yields the
    /// same units as discovering over all FDs.
    fds: Vec<Fd>,
    /// Per entry of `fds`: its interned name and the data type of its
    /// backing markable.
    fd_info: Vec<(Sym, DataType)>,
    structural: Vec<PlanAccess>,
    markable: Vec<(PlanAccess, DataType)>,
}

impl SelectionPlan {
    /// Compiles `binding`/`fds`/`config` into a plan. Every
    /// configuration error surfaces here, structural declarations
    /// checked before markable ones: an entity key declared markable,
    /// or a declaration naming an entity or attribute the binding does
    /// not bind.
    pub fn compile(
        binding: &SchemaBinding,
        fds: &[Fd],
        config: &EncoderConfig,
    ) -> Result<Self, WmError> {
        let table = SelectionTable::build(config, fds);
        let canon = canonical_schema(binding, fds, config);
        let schema_hash = fnv1a(canon.as_bytes());

        let mut plan_fds = Vec::new();
        let mut fd_info = Vec::new();
        if config.use_fd_groups {
            for fd in fds {
                if let Some(markable) = markable_for_fd(binding, fds, &fd.name, config) {
                    fd_info.push((table.lookup(&fd.name), markable.data_type));
                    plan_fds.push(fd.clone());
                }
            }
        }

        let mut structural = Vec::with_capacity(config.structural.len());
        for s in &config.structural {
            structural.push(PlanAccess::compile(
                binding,
                &s.entity,
                &s.attr,
                &table,
                "structural",
            )?);
        }

        let mut markable = Vec::with_capacity(config.markable.len());
        for m in &config.markable {
            let entity_key = binding.entity(&m.entity).map(|e| e.key_attr.as_str());
            if entity_key == Some(m.attr.as_str()) {
                return Err(WmError::new(format!(
                    "attribute {}/{} is the entity key and cannot carry marks",
                    m.entity, m.attr
                )));
            }
            markable.push((
                PlanAccess::compile(binding, &m.entity, &m.attr, &table, "markable")?,
                m.data_type,
            ));
        }

        Ok(SelectionPlan {
            table,
            canon,
            schema_hash,
            gamma: config.gamma,
            fds: plan_fds,
            fd_info,
            structural,
            markable,
        })
    }

    /// The plan's selection table — identical symbol assignments to
    /// `SelectionTable::build` on the plan's inputs.
    pub fn table(&self) -> &SelectionTable {
        &self.table
    }

    /// Hash of the canonical schema description ([`PlanCache`] key).
    pub fn schema_hash(&self) -> u64 {
        self.schema_hash
    }

    /// The selection density γ the plan was compiled with.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// Enumerates the markable units of `doc`: FD-group units, then
    /// structural units, then key-identified units, each in document
    /// order. Infallible: all validation happened in
    /// [`SelectionPlan::compile`].
    pub fn execute(&self, doc: &Document) -> Vec<MarkUnit> {
        self.execute_with(&Evaluator::new(doc))
    }

    /// [`execute`](SelectionPlan::execute) through a caller-owned
    /// evaluator (shared symbol memo / scratch buffers).
    pub fn execute_with(&self, evaluator: &Evaluator<'_>) -> Vec<MarkUnit> {
        let mut units = Vec::new();
        // Each FD member as (owning node, unit index, member index),
        // sorted by owner: the markable filter below finds a node's FD
        // copy by binary search and compares it in place, so no member
        // is cloned or hashed.
        let mut fd_covered: Vec<(NodeId, usize, usize)> = Vec::new();

        if !self.fds.is_empty() {
            for group in discover_groups_with(evaluator, &self.fds) {
                // Every plan FD is markable-backed by construction, and
                // every group has members (instances without the
                // dependent are skipped).
                let (sym, data_type) = self.fd_info[group.fd];
                let unit = units.len();
                fd_covered.extend(
                    group
                        .members
                        .iter()
                        .enumerate()
                        .map(|(member, n)| (owner(n), unit, member)),
                );
                units.push(MarkUnit {
                    key: UnitKey {
                        tag: UnitTag::FdGroup,
                        name: sym,
                        attr: None,
                        values: group.lhs,
                    },
                    nodes: group.members,
                    mark: MarkKind::Value(data_type),
                });
            }
            fd_covered.sort_unstable();
        }

        for access in &self.structural {
            for instance in access.instance.select_with(evaluator) {
                let Some(key_value) = access.key_of(evaluator, &instance) else {
                    continue;
                };
                let nodes = access.attr_nodes(evaluator, &instance);
                if nodes.len() < 2 {
                    continue;
                }
                units.push(MarkUnit {
                    key: UnitKey {
                        tag: UnitTag::SiblingOrder,
                        name: access.entity_sym,
                        attr: Some(access.attr_sym),
                        values: Box::new([key_value.into()]),
                    },
                    nodes,
                    mark: MarkKind::SiblingOrder,
                });
            }
        }

        for (access, data_type) in &self.markable {
            for instance in access.instance.select_with(evaluator) {
                let Some(key_value) = access.key_of(evaluator, &instance) else {
                    continue;
                };
                let mut nodes = access.attr_nodes(evaluator, &instance);
                if !fd_covered.is_empty() {
                    nodes.retain(|n| !is_fd_member(&units, &fd_covered, n));
                }
                if nodes.is_empty() {
                    continue;
                }
                units.push(MarkUnit {
                    key: UnitKey {
                        tag: UnitTag::KeyAttr,
                        name: access.entity_sym,
                        attr: Some(access.attr_sym),
                        values: Box::new([key_value.into()]),
                    },
                    nodes,
                    mark: MarkKind::Value(*data_type),
                });
            }
        }
        units
    }
}

/// The node `node` belongs to: itself, or an attribute's element.
fn owner(node: &NodeRef) -> NodeId {
    match node {
        NodeRef::Node(id) => *id,
        NodeRef::Attribute { element, .. } => *element,
    }
}

/// Whether `node` is one of the FD members that `covered` (sorted by
/// owner, see [`SelectionPlan::execute_with`]) indexes into `units`.
fn is_fd_member(units: &[MarkUnit], covered: &[(NodeId, usize, usize)], node: &NodeRef) -> bool {
    let id = owner(node);
    let start = covered.partition_point(|&(owner, _, _)| owner < id);
    covered[start..]
        .iter()
        .take_while(|&&(owner, _, _)| owner == id)
        .any(|&(_, unit, member)| units[unit].nodes[member] == *node)
}

/// Canonical textual description of (binding, fds, config): everything
/// a plan's behaviour depends on, rendered deterministically. Cache
/// lookups compare this string after the hash, so a hash collision can
/// never serve the wrong plan. γ is included because callers read it
/// back off the cached plan.
fn canonical_schema(binding: &SchemaBinding, fds: &[Fd], config: &EncoderConfig) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(256);
    let _ = writeln!(out, "binding:{}", binding.name);
    for (name, entity) in &binding.entities {
        let _ = writeln!(
            out,
            "entity:{name}\x1finstance:{}\x1fkey:{}",
            entity.instance_path, entity.key_attr
        );
        for (attr, access) in &entity.attrs {
            let _ = writeln!(out, "attr:{attr}\x1f{}", access.to_path_text());
        }
    }
    let _ = writeln!(
        out,
        "gamma:{}\x1ffd_groups:{}",
        config.gamma, config.use_fd_groups
    );
    for s in &config.structural {
        let _ = writeln!(out, "structural:{}\x1f{}", s.entity, s.attr);
    }
    for m in &config.markable {
        let _ = writeln!(
            out,
            "markable:{}\x1f{}\x1f{:?}\x1f{:?}",
            m.entity, m.attr, m.data_type, m.tolerance
        );
    }
    for fd in fds {
        let _ = write!(out, "fd:{}\x1f{}", fd.name, fd.entity);
        for lhs in &fd.lhs {
            let _ = write!(out, "\x1flhs:{lhs}");
        }
        for rhs in &fd.rhs {
            let _ = write!(out, "\x1frhs:{rhs}");
        }
        out.push('\n');
    }
    out
}

/// FNV-1a over the canonical schema bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A concurrent cache of compiled plans keyed by schema hash (verified
/// by canonical-description equality, so collisions cost a scan, never
/// a wrong plan).
///
/// Hit/miss tallies live on `wmx-telemetry` counters: the global cache
/// registers them by name so they show up in telemetry snapshots, while
/// standalone caches (tests, tools) get private unregistered counters.
#[derive(Debug)]
pub struct PlanCache {
    shelves: Mutex<HashMap<u64, Vec<Arc<SelectionPlan>>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache with private (unregistered) stat counters.
    pub fn new() -> Self {
        PlanCache::with_counters(Arc::new(Counter::new()), Arc::new(Counter::new()))
    }

    /// An empty cache tallying onto caller-supplied counters — the
    /// global cache passes registry-owned handles here.
    pub fn with_counters(hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        PlanCache {
            shelves: Mutex::new(HashMap::new()),
            hits,
            misses,
        }
    }

    /// Returns the cached plan for this schema, compiling it on first
    /// use. Compilation happens outside the lock; a lost race keeps the
    /// first-inserted plan so every caller shares one `Arc`.
    pub fn get_or_compile(
        &self,
        binding: &SchemaBinding,
        fds: &[Fd],
        config: &EncoderConfig,
    ) -> Result<Arc<SelectionPlan>, WmError> {
        let canon = canonical_schema(binding, fds, config);
        let hash = fnv1a(canon.as_bytes());
        {
            let shelves = self.shelves.lock().expect("plan cache lock");
            if let Some(bucket) = shelves.get(&hash) {
                if let Some(plan) = bucket.iter().find(|p| p.canon == canon) {
                    self.hits.inc();
                    return Ok(Arc::clone(plan));
                }
            }
        }
        let plan = Arc::new(SelectionPlan::compile(binding, fds, config)?);
        self.misses.inc();
        let mut shelves = self.shelves.lock().expect("plan cache lock");
        let bucket = shelves.entry(hash).or_default();
        if let Some(existing) = bucket.iter().find(|p| p.canon == canon) {
            return Ok(Arc::clone(existing));
        }
        bucket.push(Arc::clone(&plan));
        Ok(plan)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cold compiles performed so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

/// The process-wide plan cache: the DOM encoder and every streaming
/// `RecordEngine` resolve their plans here, so chunked and parallel
/// drivers share one compiled plan per schema.
pub fn global_plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let registry = wmx_telemetry::global();
        PlanCache::with_counters(
            registry.counter("core.plan_cache.hits"),
            registry.counter("core.plan_cache.misses"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkableAttr;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
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

    fn fd() -> Fd {
        Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).unwrap()
    }

    #[test]
    fn cache_hit_returns_the_same_plan() {
        let cache = PlanCache::new();
        let config = EncoderConfig::new(3, vec![MarkableAttr::integer("book", "year", 1)]);
        let fds = [fd()];
        let a = cache.get_or_compile(&binding(), &fds, &config).unwrap();
        let b = cache.get_or_compile(&binding(), &fds, &config).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // A different γ is a different plan (callers read γ off it).
        let config2 = EncoderConfig::new(4, vec![MarkableAttr::integer("book", "year", 1)]);
        let c = cache.get_or_compile(&binding(), &fds, &config2).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.gamma(), 4);
    }

    #[test]
    fn schema_hash_is_stable_and_input_sensitive() {
        let config = EncoderConfig::new(3, vec![MarkableAttr::integer("book", "year", 1)]);
        let p1 = SelectionPlan::compile(&binding(), &[], &config).unwrap();
        let p2 = SelectionPlan::compile(&binding(), &[], &config).unwrap();
        assert_eq!(p1.schema_hash(), p2.schema_hash());
        let p3 = SelectionPlan::compile(&binding(), &[fd()], &config).unwrap();
        assert_ne!(p1.schema_hash(), p3.schema_hash());
    }
}
