//! Arena-based mutable document object model with interned names.
//!
//! A [`Document`] owns all nodes in a flat arena; nodes are addressed by
//! copyable [`NodeId`]s. A virtual *document node* (always id 0) holds the
//! prolog (comments/PIs), the single root element, and any epilog nodes,
//! which keeps tree navigation uniform.
//!
//! Element names, attribute names, and PI targets are interned into a
//! per-document [`Interner`]: [`NodeKind`] and [`Attribute`] store a
//! 4-byte [`Sym`] instead of an owned `String`, so name comparisons are
//! integer compares and repeated tag names cost one allocation per
//! document instead of one per node. The string-taking accessors
//! ([`Document::name`], [`Document::attribute`],
//! [`Document::child_elements_named`], …) are unchanged — they resolve
//! through the interner — so callers that think in `&str` keep working.
//!
//! On top of the symbols the document maintains a lazily built
//! [`NameIndex`]: symbol → attached elements in document order, plus the
//! document-order rank of every attached node. The XPath evaluator
//! answers descendant name steps and document-order sorting from this
//! index instead of re-traversing the tree per query. The index is
//! invalidated by any mutation that adds/removes structure or changes
//! an element name and rebuilt on next use; sibling reorders *patch*
//! it in place (only the reordered subtree's ranks and name buckets are
//! touched), and value edits — text and attribute writes — keep it
//! valid untouched.
//!
//! Mutation is index-based: children are stored as ordered `Vec<NodeId>`
//! per parent, which makes the operations the watermark encoder needs —
//! value rewrites, sibling reordering, subtree insertion/removal — cheap
//! and simple. Detached subtrees stay in the arena until
//! [`Document::compact`] is called; all navigation starts from the
//! document node, so detached nodes are simply unreachable.

use crate::error::{XmlError, XmlErrorKind};
use crate::intern::{Interner, Sym};
use crate::text::XmlText;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global source of symbol-binding generations. Every value is handed
/// out exactly once, so two documents share a generation only when one
/// is a clone of the other *and* neither has grown its symbol table
/// since — exactly the condition under which a cached name→[`Sym`]
/// resolution is valid for both.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn try_from_index(index: usize) -> Result<Self, XmlError> {
        u32::try_from(index)
            .map(NodeId)
            .map_err(|_| XmlError::dom(XmlErrorKind::ArenaOverflow))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A named attribute with an unescaped value. The name is a [`Sym`] in
/// the owning document's interner; resolve it with
/// [`Document::attr_name`] (or [`Document::resolve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (interned in the owning document).
    pub name: Sym,
    /// Unescaped value — a zero-copy span into the parse buffer until
    /// the first mutation materializes it.
    pub value: XmlText,
}

/// The payload of a node. Names are [`Sym`]s in the owning document's
/// interner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The virtual document node (arena id 0, exactly one per document).
    Document,
    /// An element with a name and ordered attributes.
    Element {
        /// Element (tag) name, interned.
        name: Sym,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// A run of character data.
    Text(XmlText),
    /// A CDATA section (serialized back as CDATA).
    CData(XmlText),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target, interned.
        target: Sym,
        /// PI data.
        data: String,
    },
}

/// Inline capacity of a node's child list. Data-centric XML is shallow
/// and narrow at the leaves: text holders have one child, records a
/// handful, and only hub nodes (the root over all records) overflow to
/// the heap.
const INLINE_CHILDREN: usize = 4;

/// A node's ordered child list with small-size inline storage, so the
/// overwhelmingly common few-children node costs the arena no heap
/// allocation (a measurable share of parse time was child-`Vec`
/// mallocs).
#[derive(Debug, Clone)]
enum Children {
    Inline {
        len: u8,
        buf: [NodeId; INLINE_CHILDREN],
    },
    Heap(Vec<NodeId>),
}

impl Children {
    fn new() -> Self {
        Children::Inline {
            len: 0,
            buf: [NodeId(0); INLINE_CHILDREN],
        }
    }

    /// Moves inline storage to the heap (no-op when already there) and
    /// returns the heap vector.
    fn spill(&mut self) -> &mut Vec<NodeId> {
        if let Children::Inline { len, buf } = self {
            let mut v = Vec::with_capacity(INLINE_CHILDREN * 2);
            v.extend_from_slice(&buf[..*len as usize]);
            *self = Children::Heap(v);
        }
        match self {
            Children::Heap(v) => v,
            Children::Inline { .. } => unreachable!("just spilled"),
        }
    }

    fn push(&mut self, id: NodeId) {
        match self {
            Children::Inline { len, buf } if (*len as usize) < INLINE_CHILDREN => {
                buf[*len as usize] = id;
                *len += 1;
            }
            Children::Inline { .. } => self.spill().push(id),
            Children::Heap(v) => v.push(id),
        }
    }

    fn insert(&mut self, index: usize, id: NodeId) {
        match self {
            Children::Inline { len, buf } if (*len as usize) < INLINE_CHILDREN => {
                let n = *len as usize;
                assert!(index <= n, "insert index {index} out of bounds (len {n})");
                buf.copy_within(index..n, index + 1);
                buf[index] = id;
                *len += 1;
            }
            Children::Inline { .. } => self.spill().insert(index, id),
            Children::Heap(v) => v.insert(index, id),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&NodeId) -> bool) {
        match self {
            Children::Inline { len, buf } => {
                let mut kept = 0usize;
                for read in 0..*len as usize {
                    if keep(&buf[read]) {
                        buf[kept] = buf[read];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Children::Heap(v) => v.retain(keep),
        }
    }
}

impl std::ops::Deref for Children {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        match self {
            Children::Inline { len, buf } => &buf[..*len as usize],
            Children::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for Children {
    fn deref_mut(&mut self) -> &mut [NodeId] {
        match self {
            Children::Inline { len, buf } => &mut buf[..*len as usize],
            Children::Heap(v) => v,
        }
    }
}

impl From<Vec<NodeId>> for Children {
    fn from(v: Vec<NodeId>) -> Self {
        Children::Heap(v)
    }
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    children: Children,
    kind: NodeKind,
}

/// Symbol → attached elements (document order) plus document-order ranks.
///
/// Built lazily by [`Document::name_index`] in one traversal; dropped by
/// mutations that add/remove structure or rename elements, *patched* in
/// place by sibling reorders (see [`NameIndex::patch_reorder`]). Value
/// edits (text content, attribute values) do not invalidate it, which is
/// what keeps detection — many query evaluations over an immutable
/// document — at one build total.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    by_name: HashMap<Sym, Vec<NodeId>>,
    order: HashMap<NodeId, usize>,
}

impl NameIndex {
    fn build(doc: &Document) -> NameIndex {
        let mut by_name: HashMap<Sym, Vec<NodeId>> = HashMap::new();
        let mut order = HashMap::with_capacity(doc.arena_len());
        for (rank, node) in doc.descendants(doc.document_node()).enumerate() {
            order.insert(node, rank);
            if let NodeKind::Element { name, .. } = doc.kind(node) {
                by_name.entry(*name).or_default().push(node);
            }
        }
        NameIndex { by_name, order }
    }

    /// All attached elements named `sym`, in document order.
    pub fn elements_named(&self, sym: Sym) -> &[NodeId] {
        self.by_name.get(&sym).map_or(&[], Vec::as_slice)
    }

    /// Document-order rank of an attached node (`None` for detached).
    pub fn order_of(&self, node: NodeId) -> Option<usize> {
        self.order.get(&node).copied()
    }

    /// Incrementally repairs the index after a sibling reorder under
    /// `parent`. A reorder permutes `parent`'s children without adding
    /// or removing nodes, so the subtree below `parent` keeps its
    /// contiguous rank interval `(rank(parent), rank(parent) + size]` —
    /// only the assignment of ranks *within* the interval changes, and
    /// only name buckets with members inside the subtree need
    /// re-sorting. Everything outside the subtree keeps its cached
    /// entries. No-op when `parent` is detached (the index never
    /// covered it).
    fn patch_reorder(&mut self, doc: &Document, parent: NodeId) {
        let Some(parent_rank) = self.order_of(parent) else {
            return;
        };
        let mut rank = parent_rank;
        let mut dirty_names: HashSet<Sym> = HashSet::new();
        for node in doc.descendants(parent) {
            if node == parent {
                continue;
            }
            rank += 1;
            self.order.insert(node, rank);
            if let NodeKind::Element { name, .. } = doc.kind(node) {
                dirty_names.insert(*name);
            }
        }
        let subtree_end = rank; // inclusive end of the patched interval
        let order = &self.order;
        for sym in dirty_names {
            if let Some(bucket) = self.by_name.get_mut(&sym) {
                // Membership is unchanged by a reorder, and every moved
                // member keeps a rank inside `(parent_rank, subtree_end]`
                // — so members of the patched subtree still occupy one
                // contiguous run of the rank-sorted bucket, and only
                // that run can be out of order. Binary search stays
                // valid on the run boundaries (the predicates are
                // monotone even while the run itself is unsorted), so a
                // document-wide bucket costs two partition points plus
                // a sort of the run, not a full re-sort per swap.
                let rank_of = |n: &NodeId| order.get(n).copied().unwrap_or(usize::MAX);
                let start = bucket.partition_point(|n| rank_of(n) <= parent_rank);
                let end = bucket.partition_point(|n| rank_of(n) <= subtree_end);
                bucket[start..end].sort_by_key(rank_of);
            }
        }
    }

    /// Number of attached nodes the index covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A mutable XML document.
#[derive(Debug)]
pub struct Document {
    nodes: Vec<Node>,
    interner: Interner,
    /// Symbol-binding generation: changes whenever a name→[`Sym`]
    /// resolution against this document could change (interner growth,
    /// table installation). See [`Document::generation`].
    generation: u64,
    /// Lazily built name/order index; dropped on structural mutation.
    index: OnceCell<NameIndex>,
    /// Content of the `<?xml ...?>` declaration, if present.
    pub xml_decl: Option<String>,
    /// Content of the `<!DOCTYPE ...>` declaration, if present.
    pub doctype: Option<String>,
}

impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            nodes: self.nodes.clone(),
            interner: self.interner.clone(),
            // The clone's symbol table is identical, so cached
            // resolutions stay valid for both until either grows.
            generation: self.generation,
            // The clone rebuilds its index on first use; copying two
            // arena-sized maps for it would be pure waste.
            index: OnceCell::new(),
            xml_decl: self.xml_decl.clone(),
            doctype: self.doctype.clone(),
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node {
                parent: None,
                children: Children::new(),
                kind: NodeKind::Document,
            }],
            interner: Interner::new(),
            generation: next_generation(),
            index: OnceCell::new(),
            xml_decl: None,
            doctype: None,
        }
    }

    /// The virtual document node.
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.nodes[0]
            .children
            .iter()
            .copied()
            .find(|&id| self.is_element(id))
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Whether `id` indexes a live slot of this document's arena.
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Total number of arena slots (including detached nodes).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Drops the cached [`NameIndex`]; called by every mutation that
    /// changes tree shape or a name. Sibling reorders take the cheaper
    /// [`Document::touch_reorder`] path instead.
    fn touch(&mut self) {
        self.index.take();
    }

    /// Patches the cached [`NameIndex`] (when built) after a sibling
    /// reorder under `parent` instead of dropping it: only the ranks of
    /// `parent`'s proper descendants change, and only name buckets with
    /// members inside that subtree need re-sorting — the rest of the
    /// document keeps its cached entries. This is what keeps embed-side
    /// order marks (sibling swaps) from paying a whole-document rebuild
    /// on the next query.
    fn touch_reorder(&mut self, parent: NodeId) {
        let Some(mut index) = self.index.take() else {
            return; // nothing built yet; next read builds fresh
        };
        index.patch_reorder(self, parent);
        let _ = self.index.set(index);
    }

    // ------------------------------------------------------------------
    // Interning
    // ------------------------------------------------------------------

    /// Interns `name` into this document's symbol table.
    pub fn intern(&mut self, name: &str) -> Sym {
        let before = self.interner.len();
        let sym = self.interner.intern(name);
        if self.interner.len() != before {
            // A fresh name can turn a cached lookup miss into a hit:
            // invalidate downstream symbol caches.
            self.generation = next_generation();
        }
        sym
    }

    /// The document's symbol-binding generation. Two calls return the
    /// same value iff no name has been interned in between, and a
    /// cloned document shares its source's generation until either
    /// grows its table — so `(generation, name)` is a sound cache key
    /// for `lookup_sym` results held outside the document (compiled
    /// queries, evaluators). Structural edits do *not* change the
    /// generation; they cannot change what a name resolves to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The symbol for `name`, if any node of this document ever used it.
    /// Never allocates: on an immutable document, `None` means no
    /// element/attribute/PI carries this name.
    pub fn lookup_sym(&self, name: &str) -> Option<Sym> {
        self.interner.lookup(name)
    }

    /// The text of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` belongs to a different document's interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The document's symbol table.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Consumes the document, returning its symbol table: a caller that
    /// parses one document after another can [`Interner::truncate`] the
    /// table back to its seed and parse the next one into it.
    pub fn into_interner(self) -> Interner {
        self.interner
    }

    /// Replaces the document's (empty) symbol table with one whose
    /// symbols the arena already references. Used by the parser, which
    /// interns names at lex time and installs the table once the tree is
    /// built — node construction never re-hashes a name.
    pub(crate) fn install_interner(&mut self, interner: Interner) {
        debug_assert!(
            self.interner.is_empty(),
            "install_interner would invalidate existing symbols"
        );
        self.interner = interner;
        self.generation = next_generation();
    }

    /// Resolved name of `attr` (which must belong to this document).
    pub fn attr_name<'a>(&'a self, attr: &Attribute) -> &'a str {
        self.interner.resolve(attr.name)
    }

    // ------------------------------------------------------------------
    // Name index
    // ------------------------------------------------------------------

    /// The lazily built name/order index. Building is one traversal; the
    /// result is cached until the next structural or name mutation.
    pub fn name_index(&self) -> &NameIndex {
        self.index.get_or_init(|| NameIndex::build(self))
    }

    /// All attached elements named `name`, in document order (empty when
    /// the name was never interned). Convenience over
    /// [`Document::name_index`].
    pub fn elements_named(&self, name: &str) -> &[NodeId] {
        match self.lookup_sym(name) {
            Some(sym) => self.name_index().elements_named(sym),
            None => &[],
        }
    }

    // ------------------------------------------------------------------
    // Node creation
    // ------------------------------------------------------------------

    /// Reserves arena room for about `additional` more nodes. A hint:
    /// the arena still grows on demand, this just skips the doubling
    /// copies when the caller can estimate the final size up front.
    pub(crate) fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    fn push_node(&mut self, kind: NodeKind) -> Result<NodeId, XmlError> {
        let id = NodeId::try_from_index(self.nodes.len())?;
        self.nodes.push(Node {
            parent: None,
            children: Children::new(),
            kind,
        });
        Ok(id)
    }

    /// Creates a detached element node.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn create_element(&mut self, name: impl AsRef<str>) -> Result<NodeId, XmlError> {
        let name = self.intern(name.as_ref());
        self.create_element_raw(name)
    }

    /// Creates a detached element from an already-interned name.
    pub(crate) fn create_element_raw(&mut self, name: Sym) -> Result<NodeId, XmlError> {
        self.push_node(NodeKind::Element {
            name,
            attributes: Vec::new(),
        })
    }

    /// Parser fast path: creates an element taking over the lexer's
    /// already-validated attribute list (the lexer rejects duplicate
    /// names, so no per-attribute dedup pass is repeated here). The
    /// token and DOM attribute structs have identical `{Sym, XmlText}`
    /// shape, so the conversion reuses the allocation.
    pub(crate) fn create_element_with_attributes(
        &mut self,
        name: Sym,
        attributes: Vec<crate::token::SymAttribute>,
    ) -> Result<NodeId, XmlError> {
        let attributes = attributes
            .into_iter()
            .map(|a| Attribute {
                name: a.name,
                value: a.value,
            })
            .collect();
        self.push_node(NodeKind::Element { name, attributes })
    }

    /// Creates a detached text node.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn create_text(&mut self, text: impl Into<XmlText>) -> Result<NodeId, XmlError> {
        self.push_node(NodeKind::Text(text.into()))
    }

    /// Creates a detached CDATA node.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn create_cdata(&mut self, text: impl Into<XmlText>) -> Result<NodeId, XmlError> {
        self.push_node(NodeKind::CData(text.into()))
    }

    /// Creates a detached comment node.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn create_comment(&mut self, text: impl Into<String>) -> Result<NodeId, XmlError> {
        self.push_node(NodeKind::Comment(text.into()))
    }

    /// Creates a detached processing-instruction node.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn create_pi(
        &mut self,
        target: impl AsRef<str>,
        data: impl Into<String>,
    ) -> Result<NodeId, XmlError> {
        let target = self.intern(target.as_ref());
        self.push_node(NodeKind::Pi {
            target,
            data: data.into(),
        })
    }

    /// Creates a detached PI from an already-interned target.
    pub(crate) fn create_pi_raw(
        &mut self,
        target: Sym,
        data: impl Into<String>,
    ) -> Result<NodeId, XmlError> {
        self.push_node(NodeKind::Pi {
            target,
            data: data.into(),
        })
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Appends `child` (which must be detached) to `parent`'s children.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        self.insert_child(parent, self.node(parent).children.len(), child);
    }

    /// Inserts `child` (which must be detached) at `index` within
    /// `parent`'s children.
    ///
    /// # Panics
    /// Panics if `child` already has a parent, if `index` is out of
    /// bounds, or if the operation would create a cycle.
    pub fn insert_child(&mut self, parent: NodeId, index: usize, child: NodeId) {
        assert!(
            self.node(child).parent.is_none(),
            "node {child} is already attached; detach it first"
        );
        assert!(child != parent, "cannot attach a node to itself");
        // Cycle check: parent must not be a descendant of child.
        let mut cursor = Some(parent);
        while let Some(c) = cursor {
            assert!(
                c != child,
                "attaching {child} under {parent} would create a cycle"
            );
            cursor = self.node(c).parent;
        }
        self.node_mut(parent).children.insert(index, child);
        self.node_mut(child).parent = Some(parent);
        self.touch();
    }

    /// Parser fast path: appends a node that was created this instant
    /// and never attached. Detachedness and childlessness hold by
    /// construction, so the cycle walk and public-API asserts of
    /// [`Document::insert_child`] reduce to debug assertions.
    pub(crate) fn attach_new_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.node(child).parent.is_none());
        debug_assert!(self.node(child).children.is_empty());
        debug_assert!(child != parent);
        self.node_mut(child).parent = Some(parent);
        self.node_mut(parent).children.push(child);
        self.touch();
    }

    /// Detaches `node` from its parent (no-op if already detached). The
    /// subtree below `node` stays intact.
    pub fn detach(&mut self, node: NodeId) {
        if let Some(parent) = self.node(node).parent {
            self.node_mut(parent).children.retain(|&c| c != node);
            self.node_mut(node).parent = None;
            self.touch();
        }
    }

    /// Parent of `node`, if attached (the document node has no parent).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.node(node).parent
    }

    /// Ordered children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.node(node).children
    }

    /// Position of `node` among its parent's children.
    pub fn child_index(&self, node: NodeId) -> Option<usize> {
        let parent = self.node(node).parent?;
        self.node(parent).children.iter().position(|&c| c == node)
    }

    /// Reorders `parent`'s children according to `permutation`, where
    /// `permutation[i]` is the *old* index of the child to place at `i`.
    ///
    /// # Panics
    /// Panics if `permutation` is not a permutation of `0..len`.
    pub fn reorder_children(&mut self, parent: NodeId, permutation: &[usize]) {
        let old = self.node(parent).children.clone();
        assert_eq!(permutation.len(), old.len(), "permutation length mismatch");
        let mut seen = vec![false; old.len()];
        let mut new_children = Vec::with_capacity(old.len());
        for &from in permutation {
            assert!(!seen[from], "index {from} repeated in permutation");
            seen[from] = true;
            new_children.push(old[from]);
        }
        self.node_mut(parent).children = new_children.into();
        self.touch_reorder(parent);
    }

    /// Swaps children at positions `i` and `j` under `parent`.
    pub fn swap_children(&mut self, parent: NodeId, i: usize, j: usize) {
        self.node_mut(parent).children.swap(i, j);
        self.touch_reorder(parent);
    }

    /// Whether `node` is reachable from the document node.
    pub fn is_attached(&self, node: NodeId) -> bool {
        let mut cursor = node;
        loop {
            if cursor == self.document_node() {
                return true;
            }
            match self.node(cursor).parent {
                Some(p) => cursor = p,
                None => return false,
            }
        }
    }

    // ------------------------------------------------------------------
    // Kind accessors
    // ------------------------------------------------------------------

    /// The node's kind.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.node(node).kind
    }

    /// Whether `node` is an element.
    pub fn is_element(&self, node: NodeId) -> bool {
        matches!(self.node(node).kind, NodeKind::Element { .. })
    }

    /// Whether `node` is a text or CDATA node.
    pub fn is_text(&self, node: NodeId) -> bool {
        matches!(self.node(node).kind, NodeKind::Text(_) | NodeKind::CData(_))
    }

    /// The element name, if `node` is an element.
    pub fn name(&self, node: NodeId) -> Option<&str> {
        self.name_sym(node).map(|sym| self.interner.resolve(sym))
    }

    /// The element name symbol, if `node` is an element. The fast path
    /// for name comparisons: equal symbols ⇔ equal names.
    pub fn name_sym(&self, node: NodeId) -> Option<Sym> {
        match &self.node(node).kind {
            NodeKind::Element { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// Renames an element.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::NotAnElement`] if `node` is not an element.
    pub fn set_name(&mut self, node: NodeId, name: impl AsRef<str>) -> Result<(), XmlError> {
        // Validate before interning so error paths never grow the
        // symbol table (lookup_sym must stay a proof of presence).
        if !self.is_element(node) {
            return Err(XmlError::dom(XmlErrorKind::NotAnElement));
        }
        let sym = self.intern(name.as_ref());
        match &mut self.node_mut(node).kind {
            NodeKind::Element { name: n, .. } => {
                *n = sym;
                self.touch();
                Ok(())
            }
            _ => unreachable!("is_element checked above"),
        }
    }

    /// The text of a text/CDATA node.
    pub fn text(&self, node: NodeId) -> Option<&str> {
        match &self.node(node).kind {
            NodeKind::Text(t) | NodeKind::CData(t) => Some(t.as_str()),
            _ => None,
        }
    }

    /// Replaces the text of a text/CDATA node. A value edit: the name
    /// index stays valid.
    pub fn set_text(&mut self, node: NodeId, text: impl Into<XmlText>) {
        match &mut self.node_mut(node).kind {
            NodeKind::Text(t) | NodeKind::CData(t) => *t = text.into(),
            _ => panic!("set_text on non-text node {node}"),
        }
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// The attributes of an element (empty slice for non-elements).
    /// Attribute names are symbols; resolve with [`Document::attr_name`].
    pub fn attributes(&self, node: NodeId) -> &[Attribute] {
        match &self.node(node).kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of attribute `name` on `node`.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        let sym = self.interner.lookup(name)?;
        self.attributes(node)
            .iter()
            .find(|a| a.name == sym)
            .map(|a| a.value.as_str())
    }

    /// Sets (or adds) attribute `name` to `value`. A value edit: the
    /// name index stays valid.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::NotAnElement`] if `node` is not an element.
    pub fn set_attribute(
        &mut self,
        node: NodeId,
        name: impl AsRef<str>,
        value: impl Into<XmlText>,
    ) -> Result<(), XmlError> {
        // Validate before interning so error paths never grow the
        // symbol table (lookup_sym must stay a proof of presence).
        if !self.is_element(node) {
            return Err(XmlError::dom(XmlErrorKind::NotAnElement));
        }
        let sym = self.intern(name.as_ref());
        self.set_attribute_raw(node, sym, value.into())
    }

    /// Sets (or adds) an attribute from an already-interned name.
    pub(crate) fn set_attribute_raw(
        &mut self,
        node: NodeId,
        name: Sym,
        value: XmlText,
    ) -> Result<(), XmlError> {
        match &mut self.node_mut(node).kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(attr) = attributes.iter_mut().find(|a| a.name == name) {
                    attr.value = value;
                } else {
                    attributes.push(Attribute { name, value });
                }
                Ok(())
            }
            _ => Err(XmlError::dom(XmlErrorKind::NotAnElement)),
        }
    }

    /// Removes attribute `name`; returns its previous value if present.
    pub fn remove_attribute(&mut self, node: NodeId, name: &str) -> Option<String> {
        let sym = self.interner.lookup(name)?;
        match &mut self.node_mut(node).kind {
            NodeKind::Element { attributes, .. } => {
                let idx = attributes.iter().position(|a| a.name == sym)?;
                Some(attributes.remove(idx).value.into_string())
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Convenience navigation
    // ------------------------------------------------------------------

    /// Child elements of `node`, in order.
    pub fn child_elements<'a>(&'a self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.children(node)
            .iter()
            .copied()
            .filter(move |&c| self.is_element(c))
    }

    /// Child elements of `node` named `name`. The name is looked up
    /// once; matching is by symbol.
    pub fn child_elements_named<'a>(
        &'a self,
        node: NodeId,
        name: &str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let sym = self.lookup_sym(name);
        self.children(node)
            .iter()
            .copied()
            .filter(move |&c| sym.is_some() && self.name_sym(c) == sym)
    }

    /// First child element of `node` named `name`.
    pub fn first_child_element(&self, node: NodeId, name: &str) -> Option<NodeId> {
        self.child_elements_named(node, name).next()
    }

    /// All nodes of the subtree rooted at `node`, in document order
    /// (including `node` itself).
    pub fn descendants(&self, node: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![node],
        }
    }

    /// All element descendants of `node` (including `node` if it is one).
    pub fn descendant_elements<'a>(&'a self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.descendants(node).filter(move |&n| self.is_element(n))
    }

    /// Concatenated text content of the subtree rooted at `node`.
    pub fn text_content(&self, node: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(node) {
            if let NodeKind::Text(t) | NodeKind::CData(t) = &self.node(n).kind {
                out.push_str(t);
            }
        }
        out
    }

    /// Replaces all children of `node` with a single text node `text`.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn set_text_content(
        &mut self,
        node: NodeId,
        text: impl Into<XmlText>,
    ) -> Result<(), XmlError> {
        let children: Vec<NodeId> = self.node(node).children.to_vec();
        for child in children {
            self.detach(child);
        }
        let t = self.create_text(text)?;
        self.append_child(node, t);
        Ok(())
    }

    /// Number of element nodes reachable from the document node.
    pub fn element_count(&self) -> usize {
        self.descendant_elements(self.document_node()).count()
    }

    /// The path of element names from the root to `node`, e.g.
    /// `"/db/book/title"`. Returns `None` for detached nodes.
    pub fn path_of(&self, node: NodeId) -> Option<String> {
        if !self.is_attached(node) {
            return None;
        }
        let mut names = Vec::new();
        let mut cursor = node;
        while cursor != self.document_node() {
            if let Some(name) = self.name(cursor) {
                names.push(name.to_string());
            }
            cursor = self.parent(cursor)?;
        }
        names.reverse();
        Some(format!("/{}", names.join("/")))
    }

    // ------------------------------------------------------------------
    // Cloning and compaction
    // ------------------------------------------------------------------

    /// Deep-copies the subtree rooted at `node` of `source` into `self`,
    /// returning the new (detached) subtree root. Names are re-interned
    /// into this document's symbol table — symbols never cross
    /// documents.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn import_subtree(&mut self, source: &Document, node: NodeId) -> Result<NodeId, XmlError> {
        let kind = match source.kind(node) {
            // Importing a whole document grafts its children under a
            // fresh element-less subtree root; callers normally import
            // the source's root element instead.
            NodeKind::Document => NodeKind::Document,
            NodeKind::Element { name, attributes } => {
                let name = self.intern(source.resolve(*name));
                let attributes = attributes
                    .iter()
                    .map(|a| Attribute {
                        name: self.intern(source.resolve(a.name)),
                        value: a.value.clone(),
                    })
                    .collect();
                NodeKind::Element { name, attributes }
            }
            NodeKind::Pi { target, data } => NodeKind::Pi {
                target: self.intern(source.resolve(*target)),
                data: data.clone(),
            },
            other => other.clone(),
        };
        let new_id = self.push_node(kind)?;
        for &child in source.children(node) {
            let imported = self.import_subtree(source, child)?;
            self.node_mut(new_id).children.push(imported);
            self.node_mut(imported).parent = Some(new_id);
        }
        Ok(new_id)
    }

    /// Deep-copies the subtree rooted at `node` within this document,
    /// returning the detached copy.
    ///
    /// # Errors
    /// Returns [`XmlErrorKind::ArenaOverflow`] when the arena is full.
    pub fn clone_subtree(&mut self, node: NodeId) -> Result<NodeId, XmlError> {
        let source = self.clone();
        self.import_subtree(&source, node)
    }

    /// Rebuilds the arena keeping only nodes reachable from the document
    /// node. Returns a new document (with a freshly built symbol table —
    /// names only used by detached nodes are dropped too); all old
    /// `NodeId`s are invalidated.
    pub fn compact(&self) -> Document {
        let mut out = Document::new();
        out.xml_decl = self.xml_decl.clone();
        out.doctype = self.doctype.clone();
        let doc_children: Vec<NodeId> = self.children(self.document_node()).to_vec();
        for child in doc_children {
            let imported = out
                .import_subtree(self, child)
                .expect("compacted arena is no larger than the source arena");
            let doc_node = out.document_node();
            out.node_mut(imported).parent = Some(doc_node);
            let imported_id = imported;
            out.node_mut(doc_node).children.push(imported_id);
        }
        out
    }
}

/// Document-order iterator over a subtree. See [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        // Push children in reverse so the leftmost child pops first.
        for &child in self.doc.children(next).iter().rev() {
            self.stack.push(child);
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `<db><book><title>T</title></book><book/></db>`.
    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let db = doc.create_element("db").unwrap();
        let doc_node = doc.document_node();
        doc.append_child(doc_node, db);
        let book1 = doc.create_element("book").unwrap();
        doc.append_child(db, book1);
        let title = doc.create_element("title").unwrap();
        doc.append_child(book1, title);
        let text = doc.create_text("T").unwrap();
        doc.append_child(title, text);
        let book2 = doc.create_element("book").unwrap();
        doc.append_child(db, book2);
        (doc, db, book1, book2)
    }

    #[test]
    fn build_and_navigate() {
        let (doc, db, book1, book2) = sample();
        assert_eq!(doc.root_element(), Some(db));
        assert_eq!(
            doc.child_elements(db).collect::<Vec<_>>(),
            vec![book1, book2]
        );
        assert!(doc.first_child_element(book1, "title").is_some());
        assert_eq!(doc.text_content(book1), "T");
        assert_eq!(doc.parent(book1), Some(db));
        assert_eq!(doc.child_index(book2), Some(1));
    }

    #[test]
    fn names_are_interned_and_shared() {
        let (doc, _, book1, book2) = sample();
        // Both <book> elements share one symbol.
        assert_eq!(doc.name_sym(book1), doc.name_sym(book2));
        assert_eq!(doc.name(book1), Some("book"));
        assert_eq!(doc.lookup_sym("book"), doc.name_sym(book1));
        assert_eq!(doc.lookup_sym("nope"), None);
    }

    #[test]
    fn name_index_answers_descendant_name_queries() {
        let (doc, db, book1, book2) = sample();
        assert_eq!(doc.elements_named("book"), &[book1, book2]);
        assert_eq!(doc.elements_named("db"), &[db]);
        assert_eq!(doc.elements_named("missing"), &[] as &[NodeId]);
        // Document-order ranks are cached too.
        let idx = doc.name_index();
        assert_eq!(idx.order_of(doc.document_node()), Some(0));
        assert!(idx.order_of(book1) < idx.order_of(book2));
    }

    #[test]
    fn name_index_invalidated_by_structural_mutation() {
        let (mut doc, db, book1, book2) = sample();
        assert_eq!(doc.elements_named("book"), &[book1, book2]);
        doc.detach(book1);
        assert_eq!(doc.elements_named("book"), &[book2]);
        doc.insert_child(db, 0, book1);
        assert_eq!(doc.elements_named("book"), &[book1, book2]);
        doc.swap_children(db, 0, 1);
        assert_eq!(doc.elements_named("book"), &[book2, book1]);
        doc.set_name(book1, "tome").unwrap();
        assert_eq!(doc.elements_named("book"), &[book2]);
        assert_eq!(doc.elements_named("tome"), &[book1]);
    }

    /// Rebuilds a fresh index and checks the patched one agrees with it.
    fn assert_index_matches_rebuild(doc: &Document) {
        let rebuilt = NameIndex::build(doc);
        let patched = doc.name_index();
        assert_eq!(patched.len(), rebuilt.len());
        for (node, rank) in &rebuilt.order {
            assert_eq!(
                patched.order_of(*node),
                Some(*rank),
                "rank mismatch for {node}"
            );
        }
        for (sym, bucket) in &rebuilt.by_name {
            assert_eq!(
                patched.elements_named(*sym),
                bucket.as_slice(),
                "bucket mismatch for {sym}"
            );
        }
    }

    #[test]
    fn sibling_reorder_patches_index_incrementally() {
        let (mut doc, db, book1, book2) = sample();
        // Build the index, then swap: the patched index must equal a
        // fresh rebuild (ranks and every name bucket).
        assert_eq!(doc.elements_named("book"), &[book1, book2]);
        doc.swap_children(db, 0, 1);
        assert_index_matches_rebuild(&doc);
        assert_eq!(doc.elements_named("book"), &[book2, book1]);
        // Permute back via reorder_children; still consistent.
        doc.reorder_children(db, &[1, 0]);
        assert_index_matches_rebuild(&doc);
        assert_eq!(doc.elements_named("book"), &[book1, book2]);
    }

    #[test]
    fn reorder_on_detached_subtree_keeps_index() {
        let (mut doc, _db, book1, _) = sample();
        let before: Vec<NodeId> = doc.elements_named("book").to_vec();
        doc.detach(book1);
        let _ = doc.name_index(); // build with book1 detached
                                  // A reorder inside the detached subtree must not disturb the
                                  // attached index.
        doc.swap_children(book1, 0, 0);
        assert_index_matches_rebuild(&doc);
        assert_ne!(doc.elements_named("book"), before.as_slice());
    }

    #[test]
    fn generation_tracks_symbol_table_growth_only() {
        let (mut doc, db, book1, _) = sample();
        let g0 = doc.generation();
        // Structural edits and value edits keep the generation.
        doc.swap_children(db, 0, 1);
        doc.set_attribute(book1, "book", "reuses-existing-name")
            .unwrap();
        assert_eq!(doc.generation(), g0);
        // A new name bumps it.
        doc.set_attribute(book1, "brand-new-attr", "v").unwrap();
        let g1 = doc.generation();
        assert_ne!(g1, g0);
        // Re-interning the same name does not.
        doc.set_attribute(book1, "brand-new-attr", "w").unwrap();
        assert_eq!(doc.generation(), g1);
        // A clone shares the generation until either side grows.
        let mut clone = doc.clone();
        assert_eq!(clone.generation(), g1);
        clone.create_element("clone-only").unwrap();
        assert_ne!(clone.generation(), g1);
        assert_eq!(doc.generation(), g1);
    }

    #[test]
    fn value_edits_keep_the_name_index() {
        let (mut doc, _, book1, _) = sample();
        // Build the index, then edit values only.
        let before: Vec<NodeId> = doc.elements_named("book").to_vec();
        doc.set_attribute(book1, "publisher", "mkp").unwrap();
        let title = doc.first_child_element(book1, "title").unwrap();
        let text = doc.children(title)[0];
        doc.set_text(text, "T2");
        assert_eq!(doc.elements_named("book"), before.as_slice());
        assert_eq!(doc.text_content(book1), "T2");
    }

    #[test]
    fn attributes_roundtrip() {
        let (mut doc, _, book1, _) = sample();
        doc.set_attribute(book1, "publisher", "mkp").unwrap();
        doc.set_attribute(book1, "year", "1998").unwrap();
        assert_eq!(doc.attribute(book1, "publisher"), Some("mkp"));
        doc.set_attribute(book1, "publisher", "acm").unwrap();
        assert_eq!(doc.attribute(book1, "publisher"), Some("acm"));
        assert_eq!(doc.attributes(book1).len(), 2);
        let names: Vec<&str> = doc
            .attributes(book1)
            .iter()
            .map(|a| doc.attr_name(a))
            .collect();
        assert_eq!(names, vec!["publisher", "year"]);
        assert_eq!(doc.remove_attribute(book1, "year"), Some("1998".into()));
        assert_eq!(doc.attribute(book1, "year"), None);
        assert_eq!(doc.remove_attribute(book1, "never-interned"), None);
    }

    #[test]
    fn attribute_on_text_node_errors() {
        let mut doc = Document::new();
        let t = doc.create_text("x").unwrap();
        assert!(doc.set_attribute(t, "a", "b").is_err());
    }

    #[test]
    fn failed_writes_do_not_pollute_the_interner() {
        let mut doc = Document::new();
        let t = doc.create_text("x").unwrap();
        assert!(doc.set_attribute(t, "ghost", "v").is_err());
        assert!(doc.set_name(t, "phantom").is_err());
        // lookup_sym stays a proof of presence in the document.
        assert_eq!(doc.lookup_sym("ghost"), None);
        assert_eq!(doc.lookup_sym("phantom"), None);
    }

    #[test]
    fn detach_and_reattach() {
        let (mut doc, db, book1, book2) = sample();
        doc.detach(book1);
        assert_eq!(doc.child_elements(db).collect::<Vec<_>>(), vec![book2]);
        assert!(!doc.is_attached(book1));
        // Subtree intact while detached.
        assert_eq!(doc.text_content(book1), "T");
        doc.insert_child(db, 1, book1);
        assert_eq!(
            doc.child_elements(db).collect::<Vec<_>>(),
            vec![book2, book1]
        );
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let (mut doc, db, book1, _) = sample();
        doc.append_child(db, book1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_panics() {
        let (mut doc, db, book1, _) = sample();
        doc.detach(db);
        doc.append_child(book1, db);
    }

    #[test]
    fn descendants_in_document_order() {
        let (doc, db, book1, book2) = sample();
        let order: Vec<NodeId> = doc.descendants(db).collect();
        assert_eq!(order[0], db);
        assert_eq!(order[1], book1);
        // title, text, then book2
        assert_eq!(*order.last().unwrap(), book2);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn reorder_children_permutes() {
        let (mut doc, db, book1, book2) = sample();
        doc.reorder_children(db, &[1, 0]);
        assert_eq!(
            doc.child_elements(db).collect::<Vec<_>>(),
            vec![book2, book1]
        );
        doc.swap_children(db, 0, 1);
        assert_eq!(
            doc.child_elements(db).collect::<Vec<_>>(),
            vec![book1, book2]
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_panics() {
        let (mut doc, db, ..) = sample();
        doc.reorder_children(db, &[0, 0]);
    }

    #[test]
    fn set_text_content_replaces_children() {
        let (mut doc, _, book1, _) = sample();
        doc.set_text_content(book1, "replaced").unwrap();
        assert_eq!(doc.text_content(book1), "replaced");
        assert_eq!(doc.children(book1).len(), 1);
    }

    #[test]
    fn path_of_reports_root_path() {
        let (doc, db, book1, _) = sample();
        assert_eq!(doc.path_of(db).unwrap(), "/db");
        let title = doc.first_child_element(book1, "title").unwrap();
        assert_eq!(doc.path_of(title).unwrap(), "/db/book/title");
    }

    #[test]
    fn import_subtree_copies_across_documents() {
        let (doc_a, _, book1, _) = sample();
        let mut doc_b = Document::new();
        let root = doc_b.create_element("shelf").unwrap();
        let doc_node = doc_b.document_node();
        doc_b.append_child(doc_node, root);
        let copied = doc_b.import_subtree(&doc_a, book1).unwrap();
        doc_b.append_child(root, copied);
        assert_eq!(doc_b.text_content(root), "T");
        assert_eq!(doc_b.name(copied), Some("book"));
        // Source untouched.
        assert_eq!(doc_a.text_content(book1), "T");
        // Symbols were re-interned: names resolve in the destination
        // even though the two documents assign different ids.
        assert_ne!(doc_a.name_sym(book1), None);
        assert_eq!(doc_b.resolve(doc_b.name_sym(copied).unwrap()), "book");
    }

    #[test]
    fn clone_subtree_within_document() {
        let (mut doc, db, book1, _) = sample();
        let copy = doc.clone_subtree(book1).unwrap();
        doc.append_child(db, copy);
        assert_eq!(doc.child_elements_named(db, "book").count(), 3);
        assert_eq!(doc.text_content(copy), "T");
    }

    #[test]
    fn compact_drops_detached_nodes() {
        let (mut doc, _, book1, _) = sample();
        let before = doc.arena_len();
        doc.detach(book1);
        let compacted = doc.compact();
        assert!(compacted.arena_len() < before);
        assert_eq!(compacted.element_count(), 2); // db + book2
    }

    #[test]
    fn rename_element() {
        let (mut doc, _, book1, _) = sample();
        doc.set_name(book1, "publication").unwrap();
        assert_eq!(doc.name(book1), Some("publication"));
        let text_node = doc.create_text("t").unwrap();
        assert!(doc.set_name(text_node, "x").is_err());
    }

    #[test]
    fn element_count_counts_elements_only() {
        let (mut doc, db, ..) = sample();
        assert_eq!(doc.element_count(), 4);
        let c = doc.create_comment("note").unwrap();
        doc.append_child(db, c);
        assert_eq!(doc.element_count(), 4);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// A random structural edit.
    #[derive(Debug, Clone)]
    enum Op {
        AddChild {
            parent_pick: usize,
            name: u8,
        },
        AddText {
            parent_pick: usize,
            text: String,
        },
        Detach {
            node_pick: usize,
        },
        Reattach {
            node_pick: usize,
            parent_pick: usize,
        },
        SetAttr {
            node_pick: usize,
            value: String,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<usize>(), any::<u8>())
                .prop_map(|(parent_pick, name)| Op::AddChild { parent_pick, name }),
            (any::<usize>(), "[a-z ]{0,6}")
                .prop_map(|(parent_pick, text)| Op::AddText { parent_pick, text }),
            any::<usize>().prop_map(|node_pick| Op::Detach { node_pick }),
            (any::<usize>(), any::<usize>()).prop_map(|(node_pick, parent_pick)| {
                Op::Reattach {
                    node_pick,
                    parent_pick,
                }
            }),
            (any::<usize>(), "[a-z]{0,4}")
                .prop_map(|(node_pick, value)| Op::SetAttr { node_pick, value }),
        ]
    }

    /// All invariants the watermarking pipeline relies on.
    fn check_invariants(doc: &Document) {
        let doc_node = doc.document_node();
        // 1. Parent/child pointers are mutually consistent.
        for i in 0..doc.arena_len() {
            let id = NodeId(i as u32);
            for &child in doc.children(id) {
                assert_eq!(doc.parent(child), Some(id), "child {child} parent mismatch");
            }
            if let Some(parent) = doc.parent(id) {
                assert!(
                    doc.children(parent).contains(&id),
                    "{id} missing from its parent's children"
                );
            }
        }
        // 2. Reachability agrees with is_attached.
        let reachable: std::collections::HashSet<NodeId> = doc.descendants(doc_node).collect();
        for i in 0..doc.arena_len() {
            let id = NodeId(i as u32);
            assert_eq!(
                reachable.contains(&id),
                doc.is_attached(id),
                "attachment mismatch for {id}"
            );
        }
        // 3. No node appears twice in the tree.
        let walked: Vec<NodeId> = doc.descendants(doc_node).collect();
        let unique: std::collections::HashSet<&NodeId> = walked.iter().collect();
        assert_eq!(walked.len(), unique.len(), "node visited twice");
        // 4. The name index agrees with a fresh traversal: same element
        //    sets per name, ranks consistent with document order.
        let index = doc.name_index();
        for i in 0..doc.arena_len() {
            let id = NodeId(i as u32);
            assert_eq!(
                index.order_of(id).is_some(),
                doc.is_attached(id),
                "index coverage mismatch for {id}"
            );
        }
        for (rank, node) in doc.descendants(doc_node).enumerate() {
            assert_eq!(index.order_of(node), Some(rank), "rank mismatch for {node}");
            if let Some(sym) = doc.name_sym(node) {
                assert!(
                    index.elements_named(sym).contains(&node),
                    "element {node} missing from its name bucket"
                );
            }
        }
        // 5. compact() preserves the canonical serialization when a root
        //    element exists.
        if doc.root_element().is_some() {
            let compacted = doc.compact();
            assert_eq!(
                crate::serialize::to_canonical_string(doc),
                crate::serialize::to_canonical_string(&compacted)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_edit_sequences_preserve_invariants(ops in prop::collection::vec(arb_op(), 1..40)) {
            let mut doc = Document::new();
            let root = doc.create_element("root").unwrap();
            let doc_node = doc.document_node();
            doc.append_child(doc_node, root);
            // Track elements we created (attached or not).
            let mut elements = vec![root];

            for op in ops {
                match op {
                    Op::AddChild { parent_pick, name } => {
                        let parent = elements[parent_pick % elements.len()];
                        if doc.is_attached(parent) || doc.parent(parent).is_none() {
                            let child = doc.create_element(format!("e{}", name % 8)).unwrap();
                            doc.append_child(parent, child);
                            elements.push(child);
                        }
                    }
                    Op::AddText { parent_pick, text } => {
                        let parent = elements[parent_pick % elements.len()];
                        let t = doc.create_text(text).unwrap();
                        doc.append_child(parent, t);
                    }
                    Op::Detach { node_pick } => {
                        let node = elements[node_pick % elements.len()];
                        if node != root {
                            doc.detach(node);
                        }
                    }
                    Op::Reattach { node_pick, parent_pick } => {
                        let node = elements[node_pick % elements.len()];
                        let parent = elements[parent_pick % elements.len()];
                        if node != root
                            && doc.parent(node).is_none()
                            && node != parent
                            // Avoid cycles: parent must not live under node.
                            && !doc.descendants(node).any(|d| d == parent)
                        {
                            doc.append_child(parent, node);
                        }
                    }
                    Op::SetAttr { node_pick, value } => {
                        let node = elements[node_pick % elements.len()];
                        doc.set_attribute(node, "k", value).unwrap();
                    }
                }
            }
            check_invariants(&doc);
        }
    }
}
