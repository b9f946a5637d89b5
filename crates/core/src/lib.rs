//! WmXML core: the watermarking system of *WmXML: A System for
//! Watermarking XML Data* (VLDB 2005).
//!
//! The system follows the paper's three-step scheme (§2.2):
//!
//! 1. **Initialization** — validate the document, take usability
//!    [query templates](template), [keys and FDs](wmx_schema), a secret
//!    key, and a multi-bit [watermark](wm). Enumerate
//!    [markable units](plan) — entity attribute values identified by
//!    [keys](identifier), and FD-redundancy groups identified by
//!    determinant tuples — and build an identity query per unit.
//! 2. **Insertion** ([encoder]) — a keyed PRF selects one unit in γ and
//!    assigns each selected unit a watermark bit index; the embedding
//!    [plug-in](embed) for the unit's data type writes the bit into the
//!    value (all members of a redundancy group receive the same mark).
//!    The output is the marked document plus the query set `Q` the user
//!    safeguards together with the key.
//! 3. **Detection** ([decoder]) — re-execute `Q` (rewritten through a
//!    [schema mapping](wmx_rewrite) if the data was reorganized), extract
//!    one vote per located node, majority-vote each watermark bit, and
//!    compare against the claimed watermark under a threshold τ with a
//!    sign-test false-positive probability.
//!
//! [usability] implements the paper's §2.1 metric — the fraction of
//! query-template results still answered correctly — and [baseline]
//! implements the semantics-free *value-identified* scheme the paper
//! argues against (challenge A), used as the comparator in experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod decoder;
pub mod embed;
pub mod encoder;
pub mod forensics;
pub mod identifier;
pub mod nodectx;
pub mod plan;
pub mod recovery;
pub mod template;
pub mod usability;
pub mod wm;

pub use config::{EncoderConfig, MarkableAttr, StructuralAttr, Tolerance};
pub use decoder::{
    detect, report_from_votes, BitVotes, DetectionInput, DetectionReport, VoteCounters,
};
pub use encoder::{embed, EmbedReport, StoredQuery};
pub use forensics::{
    detect_forensic, finalize_forensic_report, ForensicContext, ForensicTallies, ForensicsReport,
    RecordForensics, UnitForensics, UnitStatus,
};
pub use identifier::{MarkKind, MarkUnit, SelectionTable, UnitKey, UnitTag};
pub use nodectx::{DomNodes, DomNodesMut, NodeCtx, NodeCtxMut, UnitKeying, UnitMarker, UnitVotes};
pub use plan::{global_plan_cache, PlanCache, SelectionPlan};
pub use recovery::{
    decode_redundant, repair_document, report_from_redundant_votes, RedundantDecode, RepairReport,
};
pub use template::QueryTemplate;
pub use usability::{measure_usability, UsabilityReport};
pub use wm::Watermark;

/// Errors raised by the encoder/decoder pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WmError {
    /// Human-readable description.
    pub message: String,
}

impl WmError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> Self {
        WmError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for WmError {}

impl From<wmx_rewrite::RewriteError> for WmError {
    fn from(e: wmx_rewrite::RewriteError) -> Self {
        WmError::new(format!("rewrite error: {e}"))
    }
}

impl From<wmx_xpath::XPathError> for WmError {
    fn from(e: wmx_xpath::XPathError) -> Self {
        WmError::new(format!("query error: {e}"))
    }
}

/// Writes a value back into the node addressed by `node`: element text
/// content, raw text node content, or attribute value.
pub fn write_value(
    doc: &mut wmx_xml::Document,
    node: &wmx_xpath::NodeRef,
    value: &str,
) -> Result<(), WmError> {
    match node {
        wmx_xpath::NodeRef::Node(id) => {
            if doc.is_element(*id) {
                doc.set_text_content(*id, value)
                    .map_err(|e| WmError::new(format!("cannot write text content: {e}")))?;
                Ok(())
            } else if doc.is_text(*id) {
                doc.set_text(*id, value);
                Ok(())
            } else {
                Err(WmError::new(format!("cannot write a value into node {id}")))
            }
        }
        wmx_xpath::NodeRef::Attribute { element, name } => doc
            .set_attribute(*element, name.clone(), value)
            .map_err(|e| WmError::new(format!("cannot write attribute: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_xml::parse;
    use wmx_xpath::{NodeRef, Query};

    #[test]
    fn write_value_into_element_text_and_attribute() {
        let mut doc = parse(r#"<db><book id="1"><year>1998</year></book></db>"#).unwrap();
        let year = Query::compile("//year").unwrap().select(&doc)[0].clone();
        write_value(&mut doc, &year, "1999").unwrap();
        assert_eq!(
            Query::compile("//year")
                .unwrap()
                .select_string(&doc)
                .unwrap(),
            "1999"
        );

        let id = Query::compile("//book/@id").unwrap().select(&doc)[0].clone();
        write_value(&mut doc, &id, "2").unwrap();
        assert_eq!(
            Query::compile("//book/@id")
                .unwrap()
                .select_string(&doc)
                .unwrap(),
            "2"
        );
    }

    #[test]
    fn write_value_into_text_node() {
        let mut doc = parse("<a>old</a>").unwrap();
        let root = doc.root_element().unwrap();
        let text = doc.children(root)[0];
        write_value(&mut doc, &NodeRef::Node(text), "new").unwrap();
        assert_eq!(doc.text_content(root), "new");
    }
}
