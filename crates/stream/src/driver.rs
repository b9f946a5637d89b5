//! The streaming driver: one reader loop behind every entry point.
//!
//! The calling thread reads the prolog up to the root element, builds
//! the [`RecordEngine`], then reads records into a [`Batch`]. With one
//! worker each record is processed as soon as it is read, so a pass
//! holds one record and one reused output buffer at a time. With
//! `N > 1` workers a batch fills up to `N ×` [`BATCH_BYTES_PER_WORKER`]
//! content bytes, fans out as `N` contiguous chunks over scoped threads
//! and is emitted in record order before the next batch is read. Memory
//! is bounded by the batch, the largest record and one read chunk.
//!
//! Embed and detect differ only in the per-record closure and in the
//! [`Partial`] accumulator it fills. Strict and forensic mode differ
//! only in what a failure does: strict stops at the first error in
//! stream order (a record error, or a reader error once the pending
//! batch is flushed); forensic skips damaged records and turns a reader
//! error after the root into a partial verdict.

use crate::engine::{RecordEngine, RecordScratch};
use crate::metrics::stream_metrics;
use crate::parallel::{fan_out, Batch, Worker, BATCH_BYTES_PER_WORKER, MAX_WORKERS};
use crate::reader::{Misc, TopEvent, TopLevelReader};
use crate::report::{
    ChunkTiming, Partial, PartialDetect, PartialEmbed, StreamDetectReport, StreamEmbedReport,
    StreamFault,
};
use crate::{StreamContext, StreamError};
use std::io::{BufRead, Write};
use wmx_core::{Watermark, WmError};
use wmx_crypto::SecretKey;
use wmx_xml::escape::escape_text;
use wmx_xml::serialize::{attribute_text, cdata_text, comment_text, pi_text};
use wmx_xml::Position;
use DetectMode::{Forensic, Strict};

/// What a failure does to a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectMode {
    /// The first error in stream order fails the pass.
    Strict,
    /// Records whose own bytes fail to parse are skipped, and a stream
    /// that breaks after the root element yields a partial verdict with
    /// a [`StreamFault`]. Errors before the root still fail the pass.
    Forensic,
}

/// Embeds `watermark` while streaming `input` to `output` on `workers`
/// threads (clamped to `1..=256`). The output bytes equal
/// `wmx_xml::to_string(&dom_embedded)` at every worker count.
pub fn embed<R: BufRead, W: Write>(
    input: R,
    output: W,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<StreamEmbedReport, StreamError> {
    let run = drive(
        input,
        output,
        workers,
        Strict,
        ctx,
        key,
        watermark,
        PartialEmbed::default,
        |engine, record, at, scratch, partial, out| {
            engine.embed_record_into(record, at, scratch, partial, out)
        },
    )?;
    Ok(StreamEmbedReport {
        chunk_timings: run.timings,
        ..run.partial.finalize()
    })
}

/// Detects `watermark` in one pass over `input` on `workers` threads
/// (clamped to `1..=256`) without a safeguarded query file: units are
/// re-enumerated per record and the keyed PRF re-derives which ones were
/// selected. The report is the same at every worker count.
pub fn detect<R: BufRead>(
    input: R,
    workers: usize,
    mode: DetectMode,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    let width = watermark.len() * ctx.config.redundancy.max(1) as usize;
    let run = drive(
        input,
        std::io::sink(),
        workers,
        mode,
        ctx,
        key,
        watermark,
        || PartialDetect::new(width, mode == Forensic),
        |engine, record, at, scratch, partial, _| {
            engine.detect_record(record, at, scratch, partial)
        },
    )?;
    stream_metrics().votes.add(run.partial.votes_cast as u64);
    Ok(StreamDetectReport {
        chunk_timings: run.timings,
        fault: run.fault,
        ..run
            .partial
            .finalize(watermark, threshold, run.engine.table())
    })
}

/// [`embed`] on the calling thread.
pub fn stream_embed<R: BufRead, W: Write>(
    input: R,
    output: W,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<StreamEmbedReport, StreamError> {
    embed(input, output, 1, ctx, key, watermark)
}

/// [`Strict`] [`detect`] on the calling thread.
pub fn stream_detect<R: BufRead>(
    input: R,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    detect(input, 1, Strict, ctx, key, watermark, threshold)
}

/// [`Forensic`] [`detect`] on the calling thread.
pub fn stream_detect_forensic<R: BufRead>(
    input: R,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    detect(input, 1, Forensic, ctx, key, watermark, threshold)
}

/// [`embed`] of an in-memory document; returns the marked document.
pub fn par_embed(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<(String, StreamEmbedReport), StreamError> {
    let mut out = Vec::with_capacity(input.len());
    let report = embed(input.as_bytes(), &mut out, workers, ctx, key, watermark)?;
    Ok((
        String::from_utf8(out).expect("emitted XML is UTF-8"),
        report,
    ))
}

/// [`Strict`] [`detect`] over an in-memory document.
pub fn par_detect(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    let input = input.as_bytes();
    detect(input, workers, Strict, ctx, key, watermark, threshold)
}

/// [`Forensic`] [`detect`] over an in-memory document.
pub fn par_detect_forensic(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    let input = input.as_bytes();
    detect(input, workers, Forensic, ctx, key, watermark, threshold)
}

/// A finished pass.
struct Run<'a, P> {
    engine: RecordEngine<'a>,
    /// The workers' partials, merged in stream order.
    partial: P,
    /// One entry per worker that was given records.
    timings: Vec<ChunkTiming>,
    /// The damage forensic mode salvaged a verdict around.
    fault: Option<StreamFault>,
}

/// Runs `work` over every record of `input` and emits the results to
/// `output` (see the module docs).
#[allow(clippy::too_many_arguments)]
fn drive<'a, R, W, P, F>(
    input: R,
    output: W,
    workers: usize,
    mode: DetectMode,
    ctx: StreamContext<'a>,
    key: &SecretKey,
    watermark: &Watermark,
    new_partial: impl Fn() -> P,
    work: F,
) -> Result<Run<'a, P>, StreamError>
where
    R: BufRead,
    W: Write,
    P: Partial,
    F: Fn(
            &RecordEngine<'a>,
            String,
            Position,
            &mut RecordScratch,
            &mut P,
            &mut String,
        ) -> Result<(), StreamError>
        + Sync,
{
    if watermark.is_empty() {
        return Err(WmError::new("watermark must have at least one bit").into());
    }
    let mut reader = TopLevelReader::new(input);
    let mut emitter = Emitter::new(output);
    let engine = loop {
        let event = reader.next_event()?.ok_or_else(|| {
            StreamError::Unsupported("stream ended before a root element".to_string())
        })?;
        if let TopEvent::RootStart { name, attributes } = &event {
            let engine = RecordEngine::new(ctx, key, watermark, name, attributes)?;
            emitter.event(event)?;
            break engine;
        }
        emitter.event(event)?;
    };
    let strict = mode == Strict;
    let workers = workers.clamp(1, MAX_WORKERS);
    let mut pool: Vec<Worker<P>> = (0..workers).map(|_| Worker::new(new_partial())).collect();
    let mut skipped = Vec::new();
    let metrics = stream_metrics();
    // Fans a batch out over the pool, emits its outputs and the events
    // between them in stream order, then folds the other workers'
    // partials into the first worker's.
    let mut flush = |batch: &mut Batch| -> Result<(), StreamError> {
        let used = fan_out(&mut batch.records, &mut pool, |chunk, worker| {
            worker.run(&engine, &work, chunk, strict);
        });
        let first = batch.first;
        let mut events = batch.events.drain(..).peekable();
        let mut at = 0;
        for worker in &mut pool {
            for result in worker.results.drain(..) {
                while let Some((_, event)) = events.next_if(|(before, _)| *before == at) {
                    emitter.event(event)?;
                }
                match result {
                    Ok(span) => emitter.record(&worker.out[span])?,
                    Err(e) if strict => return Err(e),
                    Err(_) => skipped.push(first + at),
                }
                at += 1;
            }
            worker.out.clear();
        }
        for (_, event) in events {
            emitter.event(event)?;
        }
        let (lead, rest) = pool
            .split_first_mut()
            .expect("a pass has at least one worker");
        for worker in &mut rest[..used.saturating_sub(1)] {
            let partial = std::mem::replace(&mut worker.partial, new_partial());
            lead.partial.merge(partial);
            metrics.merges.inc();
        }
        batch.clear();
        Ok(())
    };
    let mut batch = Batch::default();
    let error = loop {
        match reader.next_event() {
            Ok(Some(event)) => batch.push(event, reader.record_position()),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
        if workers == 1 || batch.bytes >= BATCH_BYTES_PER_WORKER * workers {
            flush(&mut batch)?;
        }
    };
    flush(&mut batch)?;
    let error = match error {
        Some(e) if strict => return Err(e),
        error => error,
    };
    emitter.finish()?;
    let timings: Vec<ChunkTiming> = pool.iter().filter_map(|w| w.timing).collect();
    timings.iter().for_each(|t| metrics.record_chunk(t));
    let fault = (error.is_some() || !skipped.is_empty()).then(|| StreamFault {
        records_processed: timings.iter().map(|t| t.records).sum(),
        truncated: matches!(error, Some(StreamError::Xml(_) | StreamError::Io(_))),
        error: error.map_or_else(|| "damaged records skipped".to_string(), |e| e.to_string()),
        skipped_records: skipped,
    });
    let partial = pool.swap_remove(0).partial;
    Ok(Run {
        engine,
        partial,
        timings,
        fault,
    })
}

/// Incremental output writer that reproduces `wmx_xml::to_string` bytes
/// from top-level events: the prolog is held until the root opens (the
/// serializer writes `<?xml?>` and `<!DOCTYPE>` before pre-root comments
/// whatever the input order), and the root open tag is held until the
/// first visible child so an empty root collapses to `<name/>`.
struct Emitter<W: Write> {
    out: W,
    /// The rendered `<?xml?>`, `<!DOCTYPE>` and pre-root comments/PIs.
    prolog: [String; 3],
    root_open: String,
    root_close: String,
    root_open_written: bool,
}

/// Renders through the DOM serializer's own helpers, so byte parity
/// cannot drift.
fn misc_bytes(misc: &Misc) -> String {
    match misc {
        Misc::Text(t) => escape_text(t).into_owned(),
        Misc::CData(t) => cdata_text(t),
        Misc::Comment(t) => comment_text(t),
        Misc::Pi { target, data } => pi_text(target, data),
    }
}

impl<W: Write> Emitter<W> {
    fn new(out: W) -> Self {
        Emitter {
            out,
            prolog: Default::default(),
            root_open: String::new(),
            root_close: String::new(),
            root_open_written: false,
        }
    }

    fn ensure_root_open(&mut self) -> Result<(), StreamError> {
        if !self.root_open_written {
            self.out.write_all(self.root_open.as_bytes())?;
            self.root_open_written = true;
        }
        Ok(())
    }

    /// Writes one processed record's bytes.
    fn record(&mut self, bytes: &str) -> Result<(), StreamError> {
        self.ensure_root_open()?;
        self.out.write_all(bytes.as_bytes())?;
        Ok(())
    }

    /// Handles one non-record event.
    fn event(&mut self, event: TopEvent) -> Result<(), StreamError> {
        match event {
            TopEvent::XmlDecl(content) => self.prolog[0] = ["<?xml ", &content, "?>"].concat(),
            TopEvent::Doctype(content) => self.prolog[1] = ["<!DOCTYPE ", &content, ">"].concat(),
            TopEvent::PrologMisc(misc) => self.prolog[2].push_str(&misc_bytes(&misc)),
            TopEvent::RootStart { name, attributes } => {
                for piece in &self.prolog {
                    self.out.write_all(piece.as_bytes())?;
                }
                // The serializer's own attribute formatting, so byte
                // parity with the DOM engine holds by construction.
                self.root_open = ["<", &name].concat();
                for attr in &attributes {
                    self.root_open
                        .push_str(&attribute_text(&attr.name, &attr.value));
                }
                self.root_open.push('>');
                self.root_close = ["</", &name, ">"].concat();
            }
            TopEvent::Record(_) => unreachable!("records are emitted through Emitter::record"),
            TopEvent::Misc(misc) => {
                self.ensure_root_open()?;
                self.out.write_all(misc_bytes(&misc).as_bytes())?;
            }
            TopEvent::RootEnd if self.root_open_written => {
                self.out.write_all(self.root_close.as_bytes())?;
            }
            TopEvent::RootEnd => {
                // No visible children: the serializer self-closes the root.
                let without_gt = &self.root_open[..self.root_open.len() - 1];
                self.out.write_all(without_gt.as_bytes())?;
                self.out.write_all(b"/>")?;
            }
            TopEvent::TrailingMisc(misc) => self.out.write_all(misc_bytes(&misc).as_bytes())?,
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), StreamError> {
        self.out.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_core::{EncoderConfig, MarkableAttr};
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_rewrite::SchemaBinding;

    fn binding() -> SchemaBinding {
        SchemaBinding::new(
            "db1",
            vec![EntityBinding::new(
                "book",
                "/db/book",
                "title",
                vec![
                    ("title", AttrBinding::ChildText("title".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn config() -> EncoderConfig {
        EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)])
    }

    fn doc(n: usize) -> String {
        let mut s = String::from("<db>");
        for i in 0..n {
            s.push_str(&format!(
                "<book><title>B{i}</title><year>{}</year></book>",
                1990 + (i % 7)
            ));
        }
        s.push_str("</db>");
        s
    }

    fn run_embed(input: &str) -> (String, StreamEmbedReport) {
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        let mut out = Vec::new();
        let report = stream_embed(input.as_bytes(), &mut out, ctx, &key, &wm).unwrap();
        (String::from_utf8(out).unwrap(), report)
    }

    #[test]
    fn embed_matches_dom_engine_bytes() {
        let input = doc(40);
        let (stream_out, report) = run_embed(&input);

        let mut dom = wmx_xml::parse(&input).unwrap();
        let binding = binding();
        let dom_report = wmx_core::embed(
            &mut dom,
            &binding,
            &[],
            &config(),
            &SecretKey::from_passphrase("drv"),
            &Watermark::parse("1011").unwrap(),
        )
        .unwrap();
        assert_eq!(stream_out, wmx_xml::to_string(&dom));
        assert_eq!(report.report.total_units, dom_report.total_units);
        assert_eq!(report.report.selected_units, dom_report.selected_units);
        assert_eq!(report.report.marked_units, dom_report.marked_units);
        assert_eq!(report.report.marked_nodes, dom_report.marked_nodes);
        assert_eq!(report.records, 40);
    }

    #[test]
    fn detect_recovers_the_mark_without_queries() {
        let input = doc(60);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let d = stream_detect(
            marked.as_bytes(),
            ctx,
            &SecretKey::from_passphrase("drv"),
            &Watermark::parse("1011").unwrap(),
            0.85,
        )
        .unwrap();
        assert!(d.report.detected);
        assert_eq!(d.report.match_fraction(), 1.0);
        // Wrong key does not detect.
        let wrong = stream_detect(
            marked.as_bytes(),
            ctx,
            &SecretKey::from_passphrase("oops"),
            &Watermark::parse("1011").unwrap(),
            0.85,
        )
        .unwrap();
        assert!(wrong.report.match_fraction() < 1.0 || !wrong.report.detected);
    }

    #[test]
    fn resident_nodes_stay_bounded() {
        let input = doc(500);
        let (_, report) = run_embed(&input);
        let full = wmx_xml::parse(&input).unwrap().arena_len();
        assert!(
            report.peak_resident_nodes * 10 < full,
            "streaming kept {} nodes resident vs {} in the DOM",
            report.peak_resident_nodes,
            full
        );
    }

    #[test]
    fn empty_and_prolog_edge_cases_roundtrip() {
        for input in [
            "<db/>",
            "<?xml version=\"1.0\"?><db/>",
            "<!-- a --><db></db><!-- b -->",
            "<db>text only</db>",
            "<db><![CDATA[x<y]]></db>",
            "<!DOCTYPE db><db><book><title>T</title><year>2000</year></book></db>",
        ] {
            let (out, _) = run_embed(input);
            let mut dom = wmx_xml::parse(input).unwrap();
            wmx_core::embed(
                &mut dom,
                &binding(),
                &[],
                &config(),
                &SecretKey::from_passphrase("drv"),
                &Watermark::parse("1011").unwrap(),
            )
            .unwrap();
            assert_eq!(out, wmx_xml::to_string(&dom), "input {input:?}");
        }
    }

    #[test]
    fn forensic_detect_matches_plain_on_clean_stream() {
        let input = doc(80);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        let plain = stream_detect(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        let forensic = stream_detect_forensic(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        assert_eq!(forensic.report.bit_votes, plain.report.bit_votes);
        assert_eq!(forensic.report.detected, plain.report.detected);
        assert!(forensic.fault.is_none());
        let f = forensic.report.forensics.unwrap();
        assert!(!f.tampered);
        assert_eq!(f.total_units, 80);
    }

    #[test]
    fn truncated_stream_yields_partial_verdict_not_error() {
        let input = doc(100);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        // Chop the marked stream at 60% — mid-record, no closing root.
        let cut = marked.len() * 60 / 100;
        let truncated = &marked[..cut];
        // The strict driver errors...
        assert!(stream_detect(truncated.as_bytes(), ctx, &key, &wm, 0.85).is_err());
        // ...the forensic driver salvages a partial verdict.
        let partial = stream_detect_forensic(truncated.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        let fault = partial.fault.expect("truncation must be reported");
        assert!(fault.truncated);
        assert!(fault.records_processed > 0 && fault.records_processed < 100);
        assert_eq!(fault.records_processed, partial.records);
        assert!(partial.report.detected, "surviving records still testify");
        let f = partial.report.forensics.unwrap();
        assert!(!f.tampered, "surviving records are clean");
    }

    #[test]
    fn root_bound_entity_is_rejected() {
        let binding = SchemaBinding::new(
            "weird",
            vec![EntityBinding::new(
                "db",
                "/db",
                "title",
                vec![
                    ("title", AttrBinding::Attribute("title".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                ],
            )
            .unwrap()],
        );
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("db", "year", 1)]);
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let err = stream_embed(
            "<db title=\"t\"><year>2000</year></db>".as_bytes(),
            Vec::new(),
            ctx,
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("1").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Unsupported(_)), "{err}");
    }
}
