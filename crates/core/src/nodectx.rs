//! Engine-agnostic marking: the [`NodeCtx`] seam and the [`UnitMarker`].
//!
//! The per-unit embedding/detection decision — keyed selection, bit
//! assignment, whitening, value marking through the type plug-ins, order
//! marking — is independent of *how* the unit's value nodes are stored.
//! [`NodeCtx`]/[`NodeCtxMut`] abstract that storage: the DOM pipeline
//! implements them over a full [`Document`] ([`DomNodes`],
//! [`DomNodesMut`]), and the `wmx-stream` engine implements them over
//! per-record mini-documents. [`UnitMarker`] holds the keyed PRF and
//! performs the actual mark/extract against any context, which is what
//! guarantees bit-for-bit identical output between the two engines.

use crate::embed::plugin_for;
use crate::identifier::MarkKind;
use crate::wm::Watermark;
use crate::WmError;
use wmx_crypto::{Prf, PrfInput, SecretKey};
use wmx_xml::Document;
use wmx_xpath::NodeRef;

/// Read access to the value nodes of one markable unit.
pub trait NodeCtx {
    /// Number of value nodes in the unit (≥ 1 for enumerated units).
    fn node_count(&self) -> usize;

    /// String value of the `i`-th node (`None` when out of range).
    fn node_value(&self, i: usize) -> Option<String>;

    /// Whether the first two value nodes are reorderable siblings —
    /// element nodes sharing a parent, so an order mark can be embedded.
    fn can_reorder(&self) -> bool;
}

/// Write access to the value nodes of one markable unit.
pub trait NodeCtxMut: NodeCtx {
    /// Overwrites the `i`-th node's value.
    fn write_node_value(&mut self, i: usize, value: &str) -> Result<(), WmError>;

    /// Swaps the first two value nodes in their parent's child order.
    fn swap_first_two(&mut self) -> Result<(), WmError>;
}

fn dom_can_reorder(doc: &Document, nodes: &[NodeRef]) -> bool {
    let (Some(NodeRef::Node(a)), Some(NodeRef::Node(b))) = (nodes.first(), nodes.get(1)) else {
        return false; // attribute-valued or missing: order is meaningless
    };
    doc.parent(*a).is_some() && doc.parent(*a) == doc.parent(*b)
}

/// Read-only DOM-backed unit context (detection side).
pub struct DomNodes<'a> {
    doc: &'a Document,
    nodes: &'a [NodeRef],
}

impl<'a> DomNodes<'a> {
    /// Wraps the unit's nodes within `doc`.
    pub fn new(doc: &'a Document, nodes: &'a [NodeRef]) -> Self {
        DomNodes { doc, nodes }
    }
}

impl NodeCtx for DomNodes<'_> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node_value(&self, i: usize) -> Option<String> {
        self.nodes.get(i).map(|n| n.string_value(self.doc))
    }

    fn can_reorder(&self) -> bool {
        dom_can_reorder(self.doc, self.nodes)
    }
}

/// Mutable DOM-backed unit context (embedding side).
pub struct DomNodesMut<'a> {
    doc: &'a mut Document,
    nodes: &'a [NodeRef],
}

impl<'a> DomNodesMut<'a> {
    /// Wraps the unit's nodes within `doc`.
    pub fn new(doc: &'a mut Document, nodes: &'a [NodeRef]) -> Self {
        DomNodesMut { doc, nodes }
    }
}

impl NodeCtx for DomNodesMut<'_> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node_value(&self, i: usize) -> Option<String> {
        self.nodes.get(i).map(|n| n.string_value(self.doc))
    }

    fn can_reorder(&self) -> bool {
        dom_can_reorder(self.doc, self.nodes)
    }
}

impl NodeCtxMut for DomNodesMut<'_> {
    fn write_node_value(&mut self, i: usize, value: &str) -> Result<(), WmError> {
        let node = self
            .nodes
            .get(i)
            .ok_or_else(|| WmError::new("unit node index out of range"))?;
        crate::write_value(self.doc, node, value)
    }

    fn swap_first_two(&mut self) -> Result<(), WmError> {
        let (Some(NodeRef::Node(a)), Some(NodeRef::Node(b))) =
            (self.nodes.first(), self.nodes.get(1))
        else {
            return Err(WmError::new("order unit nodes are not elements"));
        };
        let parent = self
            .doc
            .parent(*a)
            .ok_or_else(|| WmError::new("order unit node lost its parent"))?;
        let ia = self
            .doc
            .child_index(*a)
            .ok_or_else(|| WmError::new("order unit node lost its parent"))?;
        let ib = self
            .doc
            .child_index(*b)
            .ok_or_else(|| WmError::new("order unit node lost its parent"))?;
        self.doc.swap_children(parent, ia, ib);
        Ok(())
    }
}

/// The votes one unit contributes to detection: whitened bit values for
/// the unit's assigned watermark bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitVotes {
    /// The watermark bit index the unit carries.
    pub bit_index: usize,
    /// One whitened vote per readable node (empty when unreadable).
    pub bits: Vec<bool>,
}

/// The keyed per-unit mark/extract engine shared by the DOM and
/// streaming pipelines.
pub struct UnitMarker {
    prf: Prf,
}

impl UnitMarker {
    /// Creates a marker for `key`.
    pub fn new(key: SecretKey) -> Self {
        UnitMarker { prf: Prf::new(key) }
    }

    /// The underlying PRF.
    pub fn prf(&self) -> &Prf {
        &self.prf
    }

    /// Whether the unit is selected at density 1/γ. The unit id may be
    /// any [`PrfInput`] — the persisted `&str` form or the compact
    /// [`crate::identifier::UnitKey`] view; equal byte streams make
    /// equal decisions.
    pub fn is_selected<I: PrfInput + ?Sized>(&self, unit_id: &I, gamma: u32) -> bool {
        self.prf.is_selected(unit_id, gamma)
    }

    /// The unit's keyed values for a watermark of `wm_len` bits.
    pub fn keying<I: PrfInput + ?Sized>(&self, unit_id: &I, wm_len: usize) -> UnitKeying {
        UnitKeying {
            bit_index: self.prf.bit_index(unit_id, wm_len),
            whiten: self.prf.whiten_bit(unit_id),
            nonce: self.prf.value_nonce(unit_id),
        }
    }

    /// [`UnitKeying::mark`] under the unit's keying.
    pub fn mark_unit<I: PrfInput + ?Sized>(
        &self,
        ctx: &mut dyn NodeCtxMut,
        unit_id: &I,
        mark: MarkKind,
        watermark: &Watermark,
    ) -> Result<usize, WmError> {
        self.keying(unit_id, watermark.len())
            .mark(ctx, mark, watermark)
    }

    /// [`UnitKeying::extract`] under the unit's keying for a watermark of
    /// `wm_len` bits.
    pub fn extract_unit<I: PrfInput + ?Sized>(
        &self,
        ctx: &dyn NodeCtx,
        unit_id: &I,
        mark: MarkKind,
        wm_len: usize,
    ) -> UnitVotes {
        self.keying(unit_id, wm_len).extract(ctx, mark)
    }
}

/// A unit's keyed values: everything marking and extraction take from
/// the PRF once the unit is selected. They depend only on the key, the
/// unit id and the watermark width, so a caller that meets one unit id
/// many times (an FD group recurring across streamed records) can
/// compute them once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitKeying {
    /// The watermark bit index the unit carries.
    pub bit_index: usize,
    /// The whitening bit XORed onto the carried bit.
    pub whiten: bool,
    /// The nonce the value plug-ins mark with.
    pub nonce: u64,
}

impl UnitKeying {
    /// Writes the unit's assigned bit of `watermark` into `ctx`. Returns
    /// the number of nodes rewritten/reordered (0 when the unit cannot
    /// carry the bit: unmarkable values, equal order values,
    /// non-reorderable nodes).
    pub fn mark(
        &self,
        ctx: &mut dyn NodeCtxMut,
        mark: MarkKind,
        watermark: &Watermark,
    ) -> Result<usize, WmError> {
        let bit = watermark.bit(self.bit_index) ^ self.whiten;
        match mark {
            MarkKind::Value(data_type) => {
                let plugin = plugin_for(data_type);
                let mut marked = 0usize;
                for i in 0..ctx.node_count() {
                    let value = ctx.node_value(i).expect("index within node_count");
                    if let Some(new_value) = plugin.embed(&value, bit, self.nonce) {
                        if new_value != value {
                            ctx.write_node_value(i, &new_value)?;
                        }
                        marked += 1;
                    }
                }
                Ok(marked)
            }
            MarkKind::SiblingOrder => {
                if !ctx.can_reorder() {
                    return Ok(0);
                }
                let a = ctx.node_value(0).expect("can_reorder implies two nodes");
                let b = ctx.node_value(1).expect("can_reorder implies two nodes");
                if a == b {
                    return Ok(0); // equal values cannot encode an order
                }
                let current_bit = a > b; // descending = 1
                if current_bit != bit {
                    ctx.swap_first_two()?;
                }
                Ok(2)
            }
        }
    }

    /// Extracts the unit's votes from `ctx` (detection side): one
    /// whitened bit per readable node, under the unit's bit index.
    pub fn extract(&self, ctx: &dyn NodeCtx, mark: MarkKind) -> UnitVotes {
        let mut bits = Vec::new();
        match mark {
            MarkKind::Value(data_type) => {
                let plugin = plugin_for(data_type);
                for i in 0..ctx.node_count() {
                    let value = ctx.node_value(i).expect("index within node_count");
                    if let Some(raw) = plugin.extract(&value, self.nonce) {
                        bits.push(raw ^ self.whiten);
                    }
                }
            }
            MarkKind::SiblingOrder => {
                if let (Some(a), Some(b)) = (ctx.node_value(0), ctx.node_value(1)) {
                    if a != b {
                        bits.push((a > b) ^ self.whiten);
                    }
                }
            }
        }
        UnitVotes {
            bit_index: self.bit_index,
            bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_schema::DataType;
    use wmx_xpath::Query;

    fn doc() -> Document {
        wmx_xml::parse(r#"<db><book p="mkp"><a>Zed</a><a>Ann</a><year>1998</year></book></db>"#)
            .unwrap()
    }

    fn marker() -> UnitMarker {
        UnitMarker::new(SecretKey::from_passphrase("ctx"))
    }

    #[test]
    fn value_mark_roundtrips_through_dom_ctx() {
        let mut d = doc();
        let nodes = Query::compile("/db/book/year").unwrap().select(&d);
        let wm = Watermark::parse("1011").unwrap();
        let m = marker();
        let marked = m
            .mark_unit(
                &mut DomNodesMut::new(&mut d, &nodes),
                "unit-1",
                MarkKind::Value(DataType::Integer),
                &wm,
            )
            .unwrap();
        assert_eq!(marked, 1);
        let votes = m.extract_unit(
            &DomNodes::new(&d, &nodes),
            "unit-1",
            MarkKind::Value(DataType::Integer),
            wm.len(),
        );
        assert_eq!(votes.bits.len(), 1);
        // The whitened vote equals the watermark bit at the unit's index.
        assert_eq!(votes.bits[0], wm.bit(votes.bit_index));
    }

    #[test]
    fn order_mark_swaps_and_extracts() {
        let mut d = doc();
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let wm = Watermark::parse("10").unwrap();
        let m = marker();
        let marked = m
            .mark_unit(
                &mut DomNodesMut::new(&mut d, &nodes),
                "ord-unit",
                MarkKind::SiblingOrder,
                &wm,
            )
            .unwrap();
        assert_eq!(marked, 2);
        // Re-select after the potential swap.
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let votes = m.extract_unit(
            &DomNodes::new(&d, &nodes),
            "ord-unit",
            MarkKind::SiblingOrder,
            wm.len(),
        );
        assert_eq!(votes.bits, vec![wm.bit(votes.bit_index)]);
    }

    #[test]
    fn non_reorderable_units_are_skipped() {
        let mut d = doc();
        // An attribute node and an element node: not reorderable.
        let mut nodes = Query::compile("/db/book/@p").unwrap().select(&d);
        nodes.extend(Query::compile("/db/book/year").unwrap().select(&d));
        let wm = Watermark::parse("1").unwrap();
        let m = marker();
        assert!(!DomNodes::new(&d, &nodes).can_reorder());
        let marked = m
            .mark_unit(
                &mut DomNodesMut::new(&mut d, &nodes),
                "u",
                MarkKind::SiblingOrder,
                &wm,
            )
            .unwrap();
        assert_eq!(marked, 0);
    }

    #[test]
    fn equal_order_values_unmarkable_and_voteless() {
        let mut d = wmx_xml::parse(r#"<db><book><a>Same</a><a>Same</a></book></db>"#).unwrap();
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let m = marker();
        let wm = Watermark::parse("1").unwrap();
        let marked = m
            .mark_unit(
                &mut DomNodesMut::new(&mut d, &nodes),
                "u",
                MarkKind::SiblingOrder,
                &wm,
            )
            .unwrap();
        assert_eq!(marked, 0);
        let votes = m.extract_unit(&DomNodes::new(&d, &nodes), "u", MarkKind::SiblingOrder, 1);
        assert!(votes.bits.is_empty());
    }
}
