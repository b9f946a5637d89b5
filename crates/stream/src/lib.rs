//! `wmx-stream`: single-pass streaming watermark embed/detect.
//!
//! The DOM pipeline in `wmx-core` materializes an entire document before
//! touching a single value, so memory scales with document size. This
//! crate is a second execution engine over the same watermarking
//! semantics: it splits the document at top-level record boundaries
//! (the children of the root element) with a byte scan, parses **one
//! record at a time** under a synthetic root ([`wmx_xml::parse_record`],
//! the only lex of the record's bytes), runs the shared per-unit
//! decision ([`wmx_core::UnitMarker`] through the [`wmx_core::NodeCtx`]
//! seam), and emits output incrementally.
//!
//! # Guarantees
//!
//! * **Byte-identical output.** Streaming embed produces exactly the
//!   bytes of `wmx_xml::to_string(dom_embedded)` — the equivalence suite
//!   in `tests/tests/stream_equivalence.rs` enforces this across the
//!   generated corpora and adversarial documents.
//! * **Bounded memory.** At most O(depth + one record) XML nodes are
//!   resident at any time ([`StreamEmbedReport::peak_resident_nodes`]
//!   measures the high-water mark); the input buffer is bounded by the
//!   largest single record.
//! * **Deterministic parallelism.** One driver serves every entry point
//!   ([`embed`]/[`detect`]; `stream_*`/`par_*` are shims over them). With
//!   `workers > 1` it splits fixed-budget record batches across threads;
//!   since every per-unit decision depends only on the unit id and the
//!   key, output, votes, forensics, faults and errors are the same at
//!   every worker count, and memory stays bounded by the batch.
//! * **Strict is forensic without the salvage.** [`DetectMode::Strict`]
//!   fails on the first error in stream order; [`DetectMode::Forensic`]
//!   skips damaged records and turns a stream that breaks after the root
//!   into a partial verdict with a [`StreamFault`].
//!
//! # Scope
//!
//! The streaming engine assumes the default parse conventions
//! ([`wmx_xml::ParseOptions`]: whitespace-only text skipped, comments
//! and processing instructions kept) and compact serialization. It
//! requires entity instances to live at or below the root's child
//! elements — an entity bound to the document root itself is rejected
//! with an error pointing at the DOM engine. Unlike DOM detection it is
//! *query-free*: it re-enumerates units per record and re-derives the
//! keyed selection, so only the secret key, the watermark, and the
//! semantic package are needed (no safeguarded query file) — but it
//! cannot rewrite through a schema mapping; reorganized suspects still
//! need the DOM decoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod engine;
mod metrics;
mod parallel;
pub mod reader;
pub mod report;

pub use driver::{
    detect, embed, par_detect, par_detect_forensic, par_embed, stream_detect,
    stream_detect_forensic, stream_embed, DetectMode,
};
pub use reader::{Misc, TopEvent, TopLevelReader};
pub use report::{ChunkSummary, ChunkTiming, StreamDetectReport, StreamEmbedReport, StreamFault};

use wmx_core::WmError;
use wmx_xml::XmlError;

/// The semantic package a streaming run needs: the same binding, FDs and
/// encoder configuration the DOM pipeline takes.
#[derive(Debug, Clone, Copy)]
pub struct StreamContext<'a> {
    /// Binding of logical entities onto the document schema.
    pub binding: &'a wmx_rewrite::SchemaBinding,
    /// Declared functional dependencies.
    pub fds: &'a [wmx_schema::Fd],
    /// Encoder configuration (γ, markable/structural attributes).
    pub config: &'a wmx_core::EncoderConfig,
}

/// Errors raised by the streaming engine.
#[derive(Debug)]
pub enum StreamError {
    /// Malformed XML in the input stream.
    Xml(XmlError),
    /// Watermarking-semantics error (bad binding/config, write failure).
    Wm(WmError),
    /// I/O failure on the input reader or output writer.
    Io(std::io::Error),
    /// Input the streaming engine does not support (use the DOM engine).
    Unsupported(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Xml(e) => write!(f, "xml error: {e}"),
            StreamError::Wm(e) => write!(f, "watermark error: {e}"),
            StreamError::Io(e) => write!(f, "io error: {e}"),
            StreamError::Unsupported(msg) => write!(f, "unsupported by streaming engine: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> Self {
        StreamError::Xml(e)
    }
}

impl From<WmError> for StreamError {
    fn from(e: WmError) -> Self {
        StreamError::Wm(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}
