//! Batches and workers: how the driver spreads records over threads.
//!
//! A multi-worker pass reads records into a [`Batch`] until it holds
//! `workers ×` [`BATCH_BYTES_PER_WORKER`] content bytes, then [`fan_out`]
//! splits it into one contiguous chunk per [`Worker`]. A worker keeps its
//! output buffer, its record scratch and its timing across batches, so
//! the buffers and the FD-group decisions warm up once. Because chunks
//! are contiguous and records are emitted and partials merged in worker
//! order, the output and the report equal the one-worker pass.

use crate::engine::{RecordEngine, RecordScratch};
use crate::reader::{Misc, TopEvent};
use crate::report::ChunkTiming;
use crate::StreamError;
use std::ops::Range;
use std::time::Instant;
use wmx_xml::Position;

/// Raw record bytes collected per worker before a multi-worker batch
/// fans out.
pub(crate) const BATCH_BYTES_PER_WORKER: usize = 256 * 1024;

/// Most worker threads a pass uses. Larger requests are clamped: the
/// worker pool and the batch budget grow with the count.
pub(crate) const MAX_WORKERS: usize = 256;

/// One worker's state, kept across batches.
pub(crate) struct Worker<P> {
    /// The first worker's partial accumulates the whole pass; the others
    /// cover their chunk of the current batch.
    pub partial: P,
    /// This batch's record outputs, back to back.
    pub out: String,
    /// Record-independent state for this worker's records. Unlike the
    /// partial, it is never replaced between batches.
    pub scratch: RecordScratch,
    /// One entry per record of this batch's chunk, in order: its span in
    /// `out`, or its error. Strict mode stops the chunk at its first
    /// error.
    pub results: Vec<Result<Range<usize>, StreamError>>,
    /// `None` until the worker is first given records.
    pub timing: Option<ChunkTiming>,
}

impl<P> Worker<P> {
    pub fn new(partial: P) -> Self {
        Worker {
            partial,
            out: String::new(),
            scratch: RecordScratch::default(),
            results: Vec::new(),
            timing: None,
        }
    }

    /// Runs `work` over a chunk of records, taking each record's bytes.
    pub fn run<'a, F>(
        &mut self,
        engine: &RecordEngine<'a>,
        work: &F,
        chunk: &mut [(String, Position)],
        strict: bool,
    ) where
        F: Fn(
            &RecordEngine<'a>,
            String,
            Position,
            &mut RecordScratch,
            &mut P,
            &mut String,
        ) -> Result<(), StreamError>,
    {
        let start = Instant::now();
        let timing = self.timing.get_or_insert(ChunkTiming {
            records: 0,
            micros: 0,
        });
        for (record, at) in chunk {
            let begin = self.out.len();
            let record = std::mem::take(record);
            let result = work(
                engine,
                record,
                *at,
                &mut self.scratch,
                &mut self.partial,
                &mut self.out,
            );
            let result = result.map(|()| begin..self.out.len());
            let failed = result.is_err();
            timing.records += usize::from(!failed);
            self.results.push(result);
            if failed && strict {
                break;
            }
        }
        timing.micros += start.elapsed().as_micros();
    }
}

/// Records read since the last flush, with the non-record events between
/// them.
#[derive(Default)]
pub(crate) struct Batch {
    /// Each record's bytes and where it starts in the input.
    pub records: Vec<(String, Position)>,
    /// Non-record events, each tagged with the number of batch records
    /// that precede it.
    pub events: Vec<(usize, TopEvent)>,
    /// Content bytes held: records plus text, comments and PIs between
    /// them, so mixed content counts against the budget too.
    pub bytes: usize,
    /// Stream index of the first record.
    pub first: usize,
}

impl Batch {
    /// Adds `event`; a record starts at `at` in the input.
    pub fn push(&mut self, event: TopEvent, at: Position) {
        match event {
            TopEvent::Record(raw) => {
                self.bytes += raw.len();
                self.records.push((raw, at));
            }
            event => {
                if let TopEvent::Misc(misc) | TopEvent::TrailingMisc(misc) = &event {
                    self.bytes += match misc {
                        Misc::Text(t) | Misc::CData(t) | Misc::Comment(t) => t.len(),
                        Misc::Pi { target, data } => target.len() + data.len(),
                    };
                }
                self.events.push((self.records.len(), event));
            }
        }
    }

    /// Empties the batch after a flush.
    pub fn clear(&mut self) {
        self.first += self.records.len();
        self.records.clear();
        self.events.clear();
        self.bytes = 0;
    }
}

/// Splits `records` into at most one contiguous chunk per worker and runs
/// `work` on each: the first chunk on the calling thread, the others on
/// scoped threads. Returns the number of chunks, so `workers[..n]` ran.
pub(crate) fn fan_out<R: Send, T: Send>(
    records: &mut [R],
    workers: &mut [T],
    work: impl Fn(&mut [R], &mut T) + Sync,
) -> usize {
    let size = records.len().div_ceil(workers.len()).max(1);
    let used = records.len().div_ceil(size);
    let mut chunks = records.chunks_mut(size).zip(workers);
    let Some((head, lead)) = chunks.next() else {
        return 0;
    };
    if used == 1 {
        work(head, lead);
        return used;
    }
    std::thread::scope(|scope| {
        for (chunk, worker) in chunks {
            let work = &work;
            scope.spawn(move || work(chunk, worker));
        }
        work(head, lead);
    });
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed, par_detect, par_detect_forensic, par_embed, StreamContext};
    use std::cell::Cell;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::rc::Rc;
    use wmx_core::{EncoderConfig, MarkableAttr, Watermark};
    use wmx_crypto::SecretKey;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_rewrite::SchemaBinding;
    use wmx_schema::Fd;

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

    fn config() -> EncoderConfig {
        EncoderConfig::new(
            2,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "publisher"),
            ],
        )
    }

    fn fd() -> Fd {
        Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).unwrap()
    }

    fn doc(n: usize) -> String {
        let mut s = String::from("<db>");
        for i in 0..n {
            s.push_str(&format!(
                "<book publisher=\"pub{}\"><title>B{i}</title><editor>Ed{}</editor><year>{}</year></book>",
                i % 4,
                i % 4,
                1980 + (i % 30)
            ));
        }
        s.push_str("</db>");
        s
    }

    #[test]
    fn parallel_output_equals_sequential_and_dom() {
        let input = doc(120);
        let binding = binding();
        let config = config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par");
        let wm = Watermark::parse("10110100").unwrap();

        let mut seq_out = Vec::new();
        let seq_report =
            crate::stream_embed(input.as_bytes(), &mut seq_out, ctx, &key, &wm).unwrap();
        let seq_out = String::from_utf8(seq_out).unwrap();

        for workers in [1usize, 2, 4, 7] {
            let (par_out, par_report) = par_embed(&input, workers, ctx, &key, &wm).unwrap();
            assert_eq!(par_out, seq_out, "workers={workers}");
            assert_eq!(
                par_report.report.total_units, seq_report.report.total_units,
                "workers={workers}"
            );
            assert_eq!(
                par_report.report.marked_units, seq_report.report.marked_units,
                "workers={workers}"
            );
            assert_eq!(
                par_report.report.marked_nodes, seq_report.report.marked_nodes,
                "workers={workers}"
            );
        }

        // Idle workers report no timing: 3 records on 8 workers time 3.
        let (_, few) = par_embed(&doc(3), 8, ctx, &key, &wm).unwrap();
        assert_eq!(few.chunk_timings.len(), 3);
        assert!(few.chunk_timings.iter().all(|t| t.records == 1));

        let mut dom = wmx_xml::parse(&input).unwrap();
        wmx_core::embed(&mut dom, &binding, &fds, &config, &key, &wm).unwrap();
        assert_eq!(seq_out, wmx_xml::to_string(&dom));
    }

    #[test]
    fn forensics_are_worker_count_invariant() {
        let input = doc(130);
        let binding = binding();
        let config = config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par-forensic");
        let wm = Watermark::parse("10110100").unwrap();
        let (marked, _) = par_embed(&input, 4, ctx, &key, &wm).unwrap();
        // Vandalize every 9th year by +7 (odd: guaranteed parity flip)
        // so there is something to localize.
        let mut dom = wmx_xml::parse(&marked).unwrap();
        let years = wmx_xpath::Query::compile("/db/book/year")
            .unwrap()
            .select(&dom);
        for node in years.iter().step_by(9) {
            let v: i64 = node.string_value(&dom).parse().unwrap();
            wmx_core::write_value(&mut dom, node, &(v + 7).to_string()).unwrap();
        }
        let damaged = wmx_xml::to_string(&dom);
        let seq = crate::stream_detect_forensic(damaged.as_bytes(), ctx, &key, &wm, 0.85)
            .unwrap()
            .report
            .forensics
            .unwrap();
        assert!(seq.tampered);
        for workers in [1usize, 2, 3, 5, 8] {
            let par = par_detect_forensic(&damaged, workers, ctx, &key, &wm, 0.85)
                .unwrap()
                .report
                .forensics
                .unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_forensic_skips_garbled_records() {
        let input = doc(90);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("par-skip");
        let wm = Watermark::parse("1011").unwrap();
        let (marked, _) = par_embed(&input, 2, ctx, &key, &wm).unwrap();
        // Truncate mid-stream: the tolerant collector salvages the head.
        let cut = marked.len() * 70 / 100;
        let report = par_detect_forensic(&marked[..cut], 4, ctx, &key, &wm, 0.85).unwrap();
        let fault = report.fault.expect("truncation reported");
        assert!(fault.truncated);
        assert!(report.report.detected);
        // And the partial forensics agree with the sequential salvage.
        let seq =
            crate::stream_detect_forensic(&marked.as_bytes()[..cut], ctx, &key, &wm, 0.85).unwrap();
        assert_eq!(
            report.report.forensics.unwrap(),
            seq.report.forensics.unwrap()
        );
        assert_eq!(report.records, seq.records);
    }

    #[test]
    fn parallel_detect_votes_merge_exactly() {
        let input = doc(150);
        let binding = binding();
        let config = config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par");
        let wm = Watermark::parse("10110100").unwrap();
        let (marked, _) = par_embed(&input, 4, ctx, &key, &wm).unwrap();

        let seq = crate::stream_detect(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        assert!(seq.report.detected);
        for workers in [2usize, 3, 8, usize::MAX] {
            let par = par_detect(&marked, workers, ctx, &key, &wm, 0.85).unwrap();
            assert_eq!(
                par.report.bit_votes, seq.report.bit_votes,
                "workers={workers}"
            );
            assert_eq!(par.report.votes_cast, seq.report.votes_cast);
            assert_eq!(par.report.matched_bits, seq.report.matched_bits);
            assert!(par.report.detected);
        }
    }

    /// A source that counts the bytes the driver has consumed.
    struct CountingReader<R> {
        inner: R,
        consumed: Rc<Cell<usize>>,
    }

    impl<R: BufRead> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed.set(self.consumed.get() + n);
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for CountingReader<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.consumed.set(self.consumed.get() + amt);
            self.inner.consume(amt);
        }
    }

    /// A sink that records, at every write, how far the output lags
    /// behind the input consumed so far.
    struct GapWriter {
        consumed: Rc<Cell<usize>>,
        written: usize,
        max_gap: usize,
    }

    impl Write for GapWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let gap = self.consumed.get().saturating_sub(self.written);
            self.max_gap = self.max_gap.max(gap);
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn input_output_gap_is_bounded_for_every_worker_count() {
        const READ_CHUNK: usize = 8 * 1024;
        let binding = binding();
        // Integer parity marks keep every value's length, so output
        // bytes track input bytes one for one.
        let config = EncoderConfig::new(2, vec![MarkableAttr::integer("book", "year", 1)]);
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("gap");
        let wm = Watermark::parse("10110100").unwrap();
        for records in [2_000usize, 20_000] {
            let input = doc(records);
            let largest = input
                .split_inclusive("</book>")
                .map(str::len)
                .max()
                .unwrap();
            let mut one_worker_queries = Vec::new();
            for workers in [1usize, 4] {
                let consumed = Rc::new(Cell::new(0));
                let source = CountingReader {
                    inner: BufReader::with_capacity(READ_CHUNK, input.as_bytes()),
                    consumed: Rc::clone(&consumed),
                };
                let mut sink = GapWriter {
                    consumed,
                    written: 0,
                    max_gap: 0,
                };
                let report = embed(source, &mut sink, workers, ctx, &key, &wm).unwrap();
                assert_eq!(report.records, records);
                // Several batches still store the queries in stream order.
                if workers == 1 {
                    one_worker_queries = report.report.queries;
                } else {
                    assert_eq!(report.report.queries, one_worker_queries);
                }
                assert_eq!(
                    sink.written,
                    input.len(),
                    "records={records} workers={workers}"
                );
                let batch = if workers == 1 {
                    0 // one record at a time
                } else {
                    BATCH_BYTES_PER_WORKER * workers
                };
                let bound = batch + largest + READ_CHUNK;
                assert!(
                    sink.max_gap < bound,
                    "records={records} workers={workers}: output lagged input by {} bytes (bound {bound})",
                    sink.max_gap
                );
            }
        }
    }
}
