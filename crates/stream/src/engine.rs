//! Per-record embed/detect: the heart of the streaming engine.
//!
//! Each raw record slice is parsed, at its input position, under a
//! synthetic copy of the root element (so absolute instance paths like
//! `/db/book` resolve, with no root tag lexed), the compiled
//! [`SelectionPlan`] from `wmx-core` runs over the record's document,
//! and every unit goes through the same [`UnitMarker`] the
//! DOM encoder/decoder uses. Unit identities are key-based — never
//! positional — so a unit's selection, bit index, nonce, and whitening
//! are identical whether the unit was found in a 10 GB document or in
//! its own record: that is what makes streaming output bit-for-bit equal
//! to DOM output.
//!
//! The engine is compiled **once per stream** and shared by every
//! record (and every worker thread): the plan is fetched from the
//! process-wide [`wmx_core::PlanCache`], so repeated streams over the
//! same schema reuse one compiled plan, its interned selection
//! vocabulary lets [`wmx_core::UnitKey`]s from different records/chunks
//! compare and merge directly, records are parsed into the names of a
//! seeded prototype [`Interner`] (root + binding vocabulary) so their
//! symbol ids stay stable across the whole stream, and identity
//! queries are only constructed for units that actually mark — detection
//! builds none at all. Per-record work does no name lookups and parses
//! no queries: every access step was resolved at plan compile time.
//!
//! What does not depend on the record lives in each worker's
//! [`RecordScratch`]: the keyed decisions of the FD groups it has met
//! (one group recurs in many records) and the previous record's symbol
//! table, truncated back to the prototype's names.

use crate::report::{PartialDetect, PartialEmbed};
use crate::{StreamContext, StreamError};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use wmx_core::{
    global_plan_cache, DomNodes, DomNodesMut, SelectionPlan, UnitKey, UnitKeying, UnitMarker,
    UnitTag, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_rewrite::binding::AttrBinding;
use wmx_xml::serialize::node_to_string_into;
use wmx_xml::token::{SymAttribute, TokenAttribute};
use wmx_xml::{Document, Interner, Position, Sym, XmlText};

/// A compiled streaming engine for one document's root + semantics.
pub(crate) struct RecordEngine<'a> {
    ctx: StreamContext<'a>,
    marker: UnitMarker,
    /// The *effective* watermark: the caller's watermark repeated
    /// `config.redundancy` times when redundancy mode is on, otherwise a
    /// plain copy. Every per-record embed/extract indexes into this.
    watermark: Watermark,
    /// The root element's name and attributes, interned in `prototype`:
    /// every record parses under a root built from them.
    root: Sym,
    root_attributes: Vec<SymAttribute>,
    /// Compiled selection plan shared across records, chunks, and worker
    /// threads (and, through the global cache, across streams with the
    /// same schema). Pre-resolved symbols and pre-compiled access steps
    /// mean per-record execution never touches an interner or a parser.
    plan: Arc<SelectionPlan>,
    /// Seeded prototype symbol table every record's document starts
    /// from (a clone, or a recycled table truncated back to it): record
    /// symbols are stable across the stream.
    prototype: Interner,
}

/// One worker's record-independent state, kept across its records and
/// batches and never merged. It grows with the distinct FD groups the
/// worker meets (the bound the partials' FD maps already have) plus one
/// symbol table; key-identified units are unique per record, so their
/// decisions are not kept.
#[derive(Default)]
pub(crate) struct RecordScratch {
    /// Keyed values per FD group; `None` when the PRF does not select
    /// the group.
    fd_keying: HashMap<UnitKey, Option<UnitKeying>>,
    /// The previous record's symbol table, truncated back to the
    /// prototype. A record that fails to parse consumes it, so the next
    /// record starts from a fresh clone of the prototype.
    interner: Option<Interner>,
}

/// Interns the name-shaped fragments of a path text (step and attribute
/// names) into `proto` — a cheap overapproximation that pre-seeds the
/// vocabulary records will re-use.
fn seed_path_names(proto: &mut Interner, path: &str) {
    for part in path.split(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))) {
        if !part.is_empty() && !part.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            proto.intern(part);
        }
    }
}

impl<'a> RecordEngine<'a> {
    /// Creates the engine and validates that the semantic package is
    /// usable under streaming: configuration errors the DOM encoder
    /// would raise are raised here up front (even for empty documents)
    /// by plan compilation, and entities bound to the document root
    /// itself are rejected.
    pub fn new(
        ctx: StreamContext<'a>,
        key: &SecretKey,
        watermark: &Watermark,
        root_name: &str,
        root_attributes: &[TokenAttribute],
    ) -> Result<Self, StreamError> {
        // Binding/config validation (unbound attributes, markable keys…)
        // happens at plan compile time, before any record is seen, so
        // the same errors the DOM encoder would raise surface here.
        let plan = global_plan_cache()
            .get_or_compile(ctx.binding, ctx.fds, ctx.config)
            .map_err(StreamError::Wm)?;
        // Prototype = the root's names plus the binding vocabulary
        // records will mention. Every record's document starts from a
        // clone, so shared names resolve to the same symbol id in every
        // record of the stream.
        let mut prototype = Interner::new();
        let root = prototype.intern(root_name);
        // Shared values: each record's root copies them by refcount.
        let root_attributes = root_attributes
            .iter()
            .map(|a| SymAttribute {
                name: prototype.intern(&a.name),
                value: XmlText::shared(Arc::new(a.value.clone()), 0, a.value.len()),
            })
            .collect();
        for entity in ctx.binding.entities.values() {
            seed_path_names(&mut prototype, &entity.instance_path);
            for attr_binding in entity.attrs.values() {
                match attr_binding {
                    AttrBinding::ChildText(name) | AttrBinding::Attribute(name) => {
                        prototype.intern(name);
                    }
                    AttrBinding::Path(path) => seed_path_names(&mut prototype, path),
                    AttrBinding::SelfText => {}
                }
            }
        }
        let redundancy = ctx.config.redundancy.max(1) as usize;
        let watermark = if redundancy > 1 {
            watermark.repeat(redundancy)
        } else {
            watermark.clone()
        };
        let engine = RecordEngine {
            ctx,
            marker: UnitMarker::new(key.clone()),
            watermark,
            root,
            root_attributes,
            plan,
            prototype,
        };
        // An empty record is the root alone: no entity may bind to it.
        let probe = engine.parse_record(
            String::new(),
            Position { line: 1, column: 1 },
            &mut RecordScratch::default(),
        )?;
        let probe_root = probe.root_element();
        let mut entity_names: Vec<&str> = ctx
            .config
            .markable
            .iter()
            .map(|m| m.entity.as_str())
            .chain(ctx.config.structural.iter().map(|s| s.entity.as_str()))
            .collect();
        entity_names.sort_unstable();
        entity_names.dedup();
        for name in entity_names {
            if let Some(entity) = ctx.binding.entity(name) {
                let hits_root = entity
                    .instances(&probe)
                    .iter()
                    .any(|n| matches!(n, wmx_xpath::NodeRef::Node(id) if Some(*id) == probe_root));
                if hits_root {
                    let mut msg = String::new();
                    let _ = write!(
                        msg,
                        "entity {name:?} is bound to the document root ({}); \
                         record streaming needs instances below the root — use the DOM engine",
                        entity.instance_path
                    );
                    return Err(StreamError::Unsupported(msg));
                }
            }
        }
        Ok(engine)
    }

    /// The compiled plan's interned selection vocabulary — needed to
    /// render forensic unit keys at finalize time.
    pub fn table(&self) -> &wmx_core::SelectionTable {
        self.plan.table()
    }

    /// Parses one raw record, which starts at `at` in the input, under
    /// the root, into the scratch's recycled symbol table (or a clone of
    /// the prototype). The record's own buffer becomes the text backing,
    /// so its values land in the DOM as zero-copy slices.
    fn parse_record(
        &self,
        record: String,
        at: Position,
        scratch: &mut RecordScratch,
    ) -> Result<Document, StreamError> {
        let (root, attributes) = (self.root, &self.root_attributes);
        let seed = scratch
            .interner
            .take()
            .unwrap_or_else(|| self.prototype.clone());
        wmx_xml::parse_record(record, root, attributes, at, seed).map_err(StreamError::Xml)
    }

    /// Keeps a finished record's symbol table for the next record,
    /// forgetting the names the record added to the prototype's.
    fn recycle(&self, doc: Document, scratch: &mut RecordScratch) {
        let mut interner = doc.into_interner();
        interner.truncate(self.prototype.len());
        scratch.interner = Some(interner);
    }

    /// The unit's keyed values, or `None` when the PRF does not select
    /// it. An FD group's are computed once per worker.
    fn keying(&self, key: &UnitKey, scratch: &mut RecordScratch) -> Option<UnitKeying> {
        let decide = || {
            let id = key.id(self.plan.table());
            self.marker
                .is_selected(&id, self.ctx.config.gamma)
                .then(|| self.marker.keying(&id, self.watermark.len()))
        };
        if key.tag != UnitTag::FdGroup {
            return decide();
        }
        if let Some(&keying) = scratch.fd_keying.get(key) {
            return keying;
        }
        let keying = decide();
        scratch.fd_keying.insert(key.clone(), keying);
        keying
    }

    /// Embeds into one record and appends its serialized bytes to `out`,
    /// so the driver can recycle one output allocation across records.
    pub fn embed_record_into(
        &self,
        record: String,
        at: Position,
        scratch: &mut RecordScratch,
        partial: &mut PartialEmbed,
        out: &mut String,
    ) -> Result<(), StreamError> {
        let mut doc = self.parse_record(record, at, scratch)?;
        let units = self.plan.execute(&doc);
        let table = self.plan.table();
        for unit in units {
            let is_fd = unit.key.tag == UnitTag::FdGroup;
            let keying = self.keying(&unit.key, scratch);
            let selected = keying.is_some();
            if is_fd {
                // One map entry per FD group carries total/selected/
                // marked flags — the key is cloned at most once per
                // chunk instead of once per counter set per record.
                let flags = partial.fd_entry(&unit.key);
                flags.selected |= selected;
            } else {
                partial.total_local += 1;
                if selected {
                    partial.selected_local += 1;
                }
            }
            let Some(keying) = keying else {
                continue;
            };
            let marked_nodes = keying.mark(
                &mut DomNodesMut::new(&mut doc, &unit.nodes),
                unit.mark,
                &self.watermark,
            )?;
            if marked_nodes == 0 {
                continue;
            }
            partial.marked_nodes += marked_nodes;
            let newly_marked = if is_fd {
                let flags = partial.fd_entry(&unit.key);
                let first = !flags.marked;
                flags.marked = true;
                first
            } else {
                partial.marked_local += 1;
                true
            };
            if newly_marked {
                // Identity queries (and textual unit ids) exist only
                // for units that actually marked.
                let (query, logical) =
                    unit.query_and_logical(table, self.ctx.binding, self.ctx.fds)?;
                let stored = wmx_core::StoredQuery {
                    unit_id: unit.key.display(table),
                    xpath: query.to_string(),
                    logical,
                    mark: unit.mark,
                };
                partial.queries.push((is_fd.then_some(unit.key), stored));
            }
        }
        partial.records += 1;
        partial.peak_resident_nodes = partial.peak_resident_nodes.max(doc.arena_len());
        // The root's children are the record, which is one element.
        if let Some(root) = doc.root_element() {
            for &node in doc.children(root) {
                node_to_string_into(&doc, node, out);
            }
        }
        self.recycle(doc, scratch);
        Ok(())
    }

    /// Extracts votes from one record.
    pub fn detect_record(
        &self,
        record: String,
        at: Position,
        scratch: &mut RecordScratch,
        partial: &mut PartialDetect,
    ) -> Result<(), StreamError> {
        let doc = self.parse_record(record, at, scratch)?;
        let units = self.plan.execute(&doc);
        for unit in units {
            let Some(keying) = self.keying(&unit.key, scratch) else {
                if let Some(tallies) = partial.forensics.as_mut() {
                    tallies.observe_unselected(unit.key);
                }
                continue;
            };
            let is_fd = unit.key.tag == UnitTag::FdGroup;
            let votes = keying.extract(&DomNodes::new(&doc, &unit.nodes), unit.mark);
            let located = !votes.bits.is_empty();
            let expected = || self.watermark.bit(votes.bit_index);
            if is_fd {
                // The tallies and the FD map both keep the key, so only
                // FD units clone it (in forensic mode).
                if let Some(tallies) = partial.forensics.as_mut() {
                    tallies.observe(unit.key.clone(), votes.bit_index, expected(), &votes.bits);
                }
                // Map presence = selected FD unit; the flag = located.
                let entry = partial.fd_entry(unit.key);
                *entry |= located;
            } else {
                if let Some(tallies) = partial.forensics.as_mut() {
                    tallies.observe(unit.key, votes.bit_index, expected(), &votes.bits);
                }
                partial.total_local += 1;
                if located {
                    partial.located_local += 1;
                }
            }
            for bit in votes.bits {
                partial.votes_cast += 1;
                partial.bit_votes[votes.bit_index].add(bit);
            }
        }
        partial.records += 1;
        partial.peak_resident_nodes = partial.peak_resident_nodes.max(doc.arena_len());
        self.recycle(doc, scratch);
        Ok(())
    }
}
