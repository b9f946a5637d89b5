//! Canonical experiment workloads.

use wmx_core::{embed, EmbedReport, Watermark};
use wmx_crypto::SecretKey;
use wmx_data::publications::{generate, PublicationsConfig};
use wmx_data::Dataset;
use wmx_xml::Document;

/// A marked publications workload shared by the experiments and the gate.
pub struct MarkedWorkload {
    /// The dataset (original document + semantics).
    pub dataset: Dataset,
    /// The original document (same as `dataset.doc`).
    pub original: Document,
    /// The marked document.
    pub marked: Document,
    /// Embedding report (query set etc.).
    pub report: EmbedReport,
    /// The secret key.
    pub key: SecretKey,
    /// The watermark.
    pub watermark: Watermark,
}

/// Generates and watermarks a publications database.
pub fn marked_publications(
    records: usize,
    editors: usize,
    gamma: u32,
    seed: u64,
) -> MarkedWorkload {
    let dataset = generate(&PublicationsConfig {
        records,
        editors,
        seed,
        gamma,
    });
    let original = dataset.doc.clone();
    let key = SecretKey::from_passphrase("bench-key");
    let watermark = Watermark::from_message("© bench owner", 24);
    let mut marked = original.clone();
    let report = embed(
        &mut marked,
        &dataset.binding,
        &dataset.fds,
        &dataset.config,
        &key,
        &watermark,
    )
    .expect("embedding succeeds on generated data");
    MarkedWorkload {
        dataset,
        original,
        marked,
        report,
        key,
        watermark,
    }
}

/// A serialized publications document plus everything the streaming
/// engine needs — the gate's streaming workload.
pub struct StreamingWorkload {
    /// The dataset (semantics: binding, FDs, config).
    pub dataset: Dataset,
    /// The original document, compact-serialized (the stream input).
    pub input: String,
    /// The secret key.
    pub key: SecretKey,
    /// The watermark.
    pub watermark: Watermark,
}

impl StreamingWorkload {
    /// The streaming context borrowing this workload's semantics.
    pub fn ctx(&self) -> wmx_stream::StreamContext<'_> {
        wmx_stream::StreamContext {
            binding: &self.dataset.binding,
            fds: &self.dataset.fds,
            config: &self.dataset.config,
        }
    }
}

/// Generates a publications database and serializes it for streaming.
pub fn streaming_publications(
    records: usize,
    editors: usize,
    gamma: u32,
    seed: u64,
) -> StreamingWorkload {
    let dataset = generate(&PublicationsConfig {
        records,
        editors,
        seed,
        gamma,
    });
    let input = wmx_xml::to_string(&dataset.doc);
    StreamingWorkload {
        dataset,
        input,
        key: SecretKey::from_passphrase("bench-key"),
        watermark: Watermark::from_message("© bench owner", 24),
    }
}

/// Synthesizes a document for the escape-economy microbench pair:
/// `records` flat records with text and attribute payloads that are
/// either entirely reference-free (`heavy = false` — every value can
/// stay a zero-copy span of the input) or salted with entity
/// references in every value (`heavy = true` — every value must be
/// unescaped into an owned copy). Same element shape and similar byte
/// volume either way, so the throughput gap isolates the cost of the
/// materialize-and-rewrite path.
pub fn escape_microbench_input(records: usize, heavy: bool) -> String {
    let mut out = String::with_capacity(records * 96 + 16);
    out.push_str("<db>");
    for i in 0..records {
        out.push_str("<rec id=\"");
        if heavy {
            out.push_str("id &amp; ");
        } else {
            out.push_str("id no.  ");
        }
        out.push_str(&i.to_string());
        out.push_str("\"><v>");
        if heavy {
            out.push_str("R &amp; D &lt;payload&gt; &#65;&#66; value ");
        } else {
            out.push_str("R and D (payload) AB text body value ");
        }
        out.push_str(&i.to_string());
        out.push_str("</v></rec>");
    }
    out.push_str("</db>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_and_is_marked() {
        let w = marked_publications(50, 5, 2, 7);
        assert!(w.report.marked_units > 0);
        assert_eq!(w.dataset.name, "publications");
    }

    #[test]
    fn streaming_workload_matches_dom_engine() {
        let w = streaming_publications(80, 8, 2, 7);
        let mut out = Vec::new();
        let report =
            wmx_stream::stream_embed(w.input.as_bytes(), &mut out, w.ctx(), &w.key, &w.watermark)
                .expect("stream embed");
        let mut dom = w.dataset.doc.clone();
        let dom_report = embed(
            &mut dom,
            &w.dataset.binding,
            &w.dataset.fds,
            &w.dataset.config,
            &w.key,
            &w.watermark,
        )
        .expect("dom embed");
        assert_eq!(String::from_utf8(out).unwrap(), wmx_xml::to_string(&dom));
        assert_eq!(report.report.marked_units, dom_report.marked_units);
        assert!(report.peak_resident_nodes < dom.arena_len());
    }
}
