//! Equivalence property suite: the streaming engine must be
//! indistinguishable from the DOM engine.
//!
//! * Embed: byte-identical output to `to_string(dom_embedded)` on every
//!   generated corpus (publications, jobs, library), both pretty and
//!   compact inputs, sequential and parallel, plus adversarial documents
//!   (CDATA, mixed content, deep nesting, comments, entities).
//! * Detect: identical per-bit vote tallies and match ratio on marked
//!   corpora, and the stream-produced query set equals the DOM query set
//!   as a set (so either engine's artifacts drive the other's decoder).
//! * Memory: the streaming engine never materializes more than
//!   O(depth + one record) nodes (asserted via the resident-node
//!   high-water mark vs the full DOM arena).

use proptest::prelude::*;
use wmx_attacks::{AlterationAttack, GarbleAttack, GarbleMode, ShuffleAttack, TruncationAttack};
use wmx_core::{
    detect, detect_forensic, embed, DetectionInput, ForensicContext, ForensicsReport, StoredQuery,
    Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications, Dataset};
use wmx_stream::{
    par_detect, par_detect_forensic, par_embed, stream_detect, stream_detect_forensic,
    stream_embed, DetectMode, StreamContext, StreamFault,
};
use wmx_xml::{parse, to_pretty_string, to_string};

fn datasets() -> Vec<Dataset> {
    vec![
        publications::generate(&publications::PublicationsConfig {
            records: 220,
            editors: 9,
            seed: 41,
            gamma: 3,
        }),
        jobs::generate(&jobs::JobsConfig {
            records: 220,
            companies: 8,
            seed: 42,
            gamma: 3,
        }),
        library::generate(&library::LibraryConfig {
            records: 120,
            image_size: 12,
            seed: 43,
            gamma: 2,
        }),
    ]
}

fn ctx(dataset: &Dataset) -> StreamContext<'_> {
    StreamContext {
        binding: &dataset.binding,
        fds: &dataset.fds,
        config: &dataset.config,
    }
}

fn key() -> SecretKey {
    SecretKey::from_passphrase("equivalence-key")
}

fn wm() -> Watermark {
    Watermark::from_message("© equivalence", 24)
}

/// DOM reference pipeline for a serialized input: parse → embed →
/// compact serialize.
fn dom_embed_bytes(input: &str, dataset: &Dataset) -> (String, wmx_core::EmbedReport) {
    let mut doc = parse(input).expect("reference parse");
    let report = embed(
        &mut doc,
        &dataset.binding,
        &dataset.fds,
        &dataset.config,
        &key(),
        &wm(),
    )
    .expect("reference embed");
    (to_string(&doc), report)
}

fn query_set(queries: &[StoredQuery]) -> std::collections::BTreeSet<(String, String)> {
    queries
        .iter()
        .map(|q| (q.unit_id.clone(), q.xpath.clone()))
        .collect()
}

#[test]
fn embed_is_byte_identical_on_every_corpus() {
    for dataset in datasets() {
        // Both serialization conventions must stream identically: the
        // CLI generates pretty files, tests often use compact ones.
        for input in [to_string(&dataset.doc), to_pretty_string(&dataset.doc)] {
            let (dom_out, dom_report) = dom_embed_bytes(&input, &dataset);
            let mut stream_out = Vec::new();
            let stream_report = stream_embed(
                input.as_bytes(),
                &mut stream_out,
                ctx(&dataset),
                &key(),
                &wm(),
            )
            .unwrap_or_else(|e| panic!("{}: stream embed failed: {e}", dataset.name));
            assert_eq!(
                String::from_utf8(stream_out).unwrap(),
                dom_out,
                "{}: streaming bytes diverge from DOM bytes",
                dataset.name
            );
            assert_eq!(
                stream_report.report.total_units, dom_report.total_units,
                "{}: total units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.selected_units, dom_report.selected_units,
                "{}: selected units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.marked_units, dom_report.marked_units,
                "{}: marked units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.marked_nodes, dom_report.marked_nodes,
                "{}: marked nodes",
                dataset.name
            );
            assert_eq!(
                query_set(&stream_report.report.queries),
                query_set(&dom_report.queries),
                "{}: safeguarded query sets differ",
                dataset.name
            );
        }
    }
}

#[test]
fn parallel_chunking_is_deterministic() {
    for dataset in datasets() {
        let input = to_string(&dataset.doc);
        let mut seq_out = Vec::new();
        let seq_report =
            stream_embed(input.as_bytes(), &mut seq_out, ctx(&dataset), &key(), &wm()).unwrap();
        let seq_out = String::from_utf8(seq_out).unwrap();
        for workers in [2usize, 3, 8] {
            let (par_out, par_report) =
                par_embed(&input, workers, ctx(&dataset), &key(), &wm()).unwrap();
            assert_eq!(par_out, seq_out, "{} workers={workers}", dataset.name);
            assert_eq!(
                par_report.report.marked_units, seq_report.report.marked_units,
                "{} workers={workers}",
                dataset.name
            );
            assert_eq!(
                query_set(&par_report.report.queries),
                query_set(&seq_report.report.queries),
                "{} workers={workers}",
                dataset.name
            );
        }
    }
}

#[test]
fn detect_votes_and_ratio_match_the_dom_decoder() {
    for dataset in datasets() {
        let input = to_string(&dataset.doc);
        let (marked, dom_report) = dom_embed_bytes(&input, &dataset);

        // DOM decoder over the safeguarded query set.
        let marked_doc = parse(&marked).unwrap();
        let dom_detect = detect(
            &marked_doc,
            &DetectionInput {
                queries: &dom_report.queries,
                key: key(),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        );
        assert!(dom_detect.detected, "{}", dataset.name);
        assert_eq!(dom_detect.match_fraction(), 1.0, "{}", dataset.name);

        // Streaming decoder: no query set, same votes.
        let stream = stream_detect(marked.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85)
            .unwrap_or_else(|e| panic!("{}: stream detect failed: {e}", dataset.name));
        assert!(stream.report.detected, "{}", dataset.name);
        assert_eq!(
            stream.report.match_fraction(),
            dom_detect.match_fraction(),
            "{}: match ratio diverges",
            dataset.name
        );
        assert_eq!(
            stream.report.bit_votes, dom_detect.bit_votes,
            "{}: per-bit vote tallies diverge",
            dataset.name
        );
        assert_eq!(
            stream.report.votes_cast, dom_detect.votes_cast,
            "{}",
            dataset.name
        );

        // Parallel detection merges to the same tally.
        let par = par_detect(&marked, 4, ctx(&dataset), &key(), &wm(), 0.85).unwrap();
        assert_eq!(
            par.report.bit_votes, stream.report.bit_votes,
            "{}",
            dataset.name
        );

        // Wrong key: both engines reject.
        let wrong = stream_detect(
            marked.as_bytes(),
            ctx(&dataset),
            &SecretKey::from_passphrase("intruder"),
            &wm(),
            0.85,
        )
        .unwrap();
        assert!(
            !wrong.report.detected,
            "{}: wrong key detected",
            dataset.name
        );
    }
}

#[test]
fn streaming_memory_stays_bounded_by_one_record() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 2000,
        editors: 25,
        seed: 44,
        gamma: 3,
    });
    let input = to_string(&dataset.doc);
    let full_nodes = parse(&input).unwrap().arena_len();
    let mut out = Vec::new();
    let report = stream_embed(input.as_bytes(), &mut out, ctx(&dataset), &key(), &wm()).unwrap();
    assert_eq!(report.records, 2000);
    // O(depth + one record): three orders of magnitude below the DOM.
    assert!(
        report.peak_resident_nodes * 100 < full_nodes,
        "peak resident {} vs full DOM {}",
        report.peak_resident_nodes,
        full_nodes
    );
}

/// A small custom semantic package for hand-written adversarial docs.
fn adversarial_package() -> (wmx_rewrite::SchemaBinding, wmx_core::EncoderConfig) {
    use wmx_core::{EncoderConfig, MarkableAttr};
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    let binding = wmx_rewrite::SchemaBinding::new(
        "adv",
        vec![EntityBinding::new(
            "book",
            "/db/book",
            "title",
            vec![
                ("title", AttrBinding::ChildText("title".into())),
                ("year", AttrBinding::ChildText("year".into())),
                ("note", AttrBinding::ChildText("note".into())),
                ("author", AttrBinding::ChildText("author".into())),
            ],
        )
        .unwrap()],
    );
    let config = EncoderConfig::new(
        1,
        vec![
            MarkableAttr::integer("book", "year", 1),
            MarkableAttr::text("book", "note"),
        ],
    )
    .with_structural("book", "author");
    (binding, config)
}

#[test]
fn adversarial_documents_stream_identically() {
    let (binding, config) = adversarial_package();
    let ctx = StreamContext {
        binding: &binding,
        fds: &[],
        config: &config,
    };
    let deep = {
        // Deep nesting inside a record (300 levels) around a marked value.
        let mut s = String::from("<db><book><title>deep</title><year>1998</year><note>n</note>");
        for i in 0..300 {
            s.push_str(&format!("<n{i}>"));
        }
        s.push_str("leaf");
        for i in (0..300).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        s.push_str("</book></db>");
        s
    };
    let cases: Vec<String> = vec![
        // CDATA inside a marked value and at record level.
        "<db><book><title>c1</title><year>2001</year><note><![CDATA[a<b&c]]></note></book>\
         <![CDATA[stray]]></db>"
            .into(),
        // Mixed content between records, comments, PIs, entities.
        "<?xml version=\"1.0\"?><!-- head --><db owner=\"a&amp;b\">intro \
         <book><title>m&amp;m</title><year>1999</year><note>x &lt; y</note></book>\
         <?app run?>outro<!-- mid --></db><!-- tail -->"
            .into(),
        // Multi-author order marks + self-closing records.
        "<db><book><title>o</title><year>2000</year><note>t</note>\
         <author>Zed</author><author>Ann</author></book><marker/>\
         <book><title>p</title><year>2002</year><note>u</note>\
         <author>Bo</author><author>Cy</author></book></db>"
            .into(),
        deep,
        // Unicode content and attribute entities.
        "<db><book lang=\"中文\"><title>Ünïcode – √</title><year>2003</year>\
         <note>naïve &#65;Z</note></book></db>"
            .into(),
    ];
    for input in cases {
        let mut dom = parse(&input).unwrap_or_else(|e| panic!("parse {input:?}: {e}"));
        let dom_report = embed(&mut dom, &binding, &[], &config, &key(), &wm())
            .unwrap_or_else(|e| panic!("dom embed {input:?}: {e}"));
        let dom_out = to_string(&dom);

        let mut stream_out = Vec::new();
        let stream_report = stream_embed(input.as_bytes(), &mut stream_out, ctx, &key(), &wm())
            .unwrap_or_else(|e| panic!("stream embed {input:?}: {e}"));
        assert_eq!(
            String::from_utf8(stream_out).unwrap(),
            dom_out,
            "bytes diverge for {input:?}"
        );
        assert_eq!(
            query_set(&stream_report.report.queries),
            query_set(&dom_report.queries),
            "query sets diverge for {input:?}"
        );

        // Detection parity on the marked bytes.
        let marked_doc = parse(&dom_out).unwrap();
        let dom_detect = detect(
            &marked_doc,
            &DetectionInput {
                queries: &dom_report.queries,
                key: key(),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        );
        let stream = stream_detect(dom_out.as_bytes(), ctx, &key(), &wm(), 0.85).unwrap();
        assert_eq!(
            stream.report.bit_votes, dom_detect.bit_votes,
            "votes diverge for {input:?}"
        );
    }
}

/// DOM reference forensics for a (possibly attacked) serialized
/// document.
fn dom_forensics(text: &str, dataset: &Dataset, queries: &[StoredQuery]) -> ForensicsReport {
    let doc = parse(text).expect("attacked document still parses");
    let report = detect_forensic(
        &doc,
        &DetectionInput {
            queries,
            key: key(),
            watermark: wm(),
            threshold: 0.85,
            mapping: None,
        },
        ForensicContext {
            binding: &dataset.binding,
            fds: &dataset.fds,
            config: &dataset.config,
        },
    )
    .expect("forensic detect");
    report.forensics.expect("forensics attached")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On attacked corpora, the per-record forensics — unit tallies,
    /// statuses, record rollups, the lot — are invariant across the DOM
    /// decoder, the sequential stream decoder, and every parallel
    /// worker count.
    #[test]
    fn forensics_are_engine_and_worker_invariant_on_attacked_corpora(
        seed in 0u64..1000,
        attack in 0usize..3,
    ) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: 80,
            editors: 6,
            seed: 4600 + seed,
            gamma: 3,
        });
        let input = to_string(&dataset.doc);
        let (marked, report) = dom_embed_bytes(&input, &dataset);
        let attacked = match attack {
            0 => {
                // Seeded value alteration on the marked year family.
                let mut doc = parse(&marked).unwrap();
                AlterationAttack::values(0.15, vec!["//book/year".to_string()], seed)
                    .apply(&mut doc);
                to_string(&doc)
            }
            1 => {
                // Seeded digit garbling at a seed-dependent offset.
                let offset = 0.2 + (seed % 6) as f64 * 0.1;
                String::from_utf8(
                    GarbleAttack::new(offset, 400, GarbleMode::ScrambleDigits, seed)
                        .apply(&marked),
                )
                .unwrap()
            }
            _ => {
                // Seeded record shuffle: localization is order-free.
                let mut doc = parse(&marked).unwrap();
                ShuffleAttack::new(seed).apply(&mut doc);
                to_string(&doc)
            }
        };

        let reference = dom_forensics(&attacked, &dataset, &report.queries);
        let seq =
            stream_detect_forensic(attacked.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85)
                .unwrap();
        prop_assert!(seq.fault.is_none());
        prop_assert_eq!(seq.report.forensics.as_ref().unwrap(), &reference);
        for workers in [2usize, 3, 5, 8] {
            let par =
                par_detect_forensic(&attacked, workers, ctx(&dataset), &key(), &wm(), 0.85)
                    .unwrap();
            prop_assert!(par.fault.is_none());
            prop_assert_eq!(par.report.forensics.as_ref().unwrap(), &reference);
        }
    }

    /// Truncating the stream at an arbitrary byte yields a partial
    /// verdict over the salvaged prefix — never an error, never a panic
    /// — and the sequential and parallel drivers salvage identically.
    #[test]
    fn truncation_yields_identical_partial_verdicts(keep_pct in 15u32..95) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: 100,
            editors: 5,
            seed: 47,
            gamma: 3,
        });
        let input = to_string(&dataset.doc);
        let (marked, _) = dom_embed_bytes(&input, &dataset);
        let cut = TruncationAttack::new(keep_pct as f64 / 100.0).apply(&marked);

        let seq =
            stream_detect_forensic(cut.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85).unwrap();
        let fault = seq.fault.clone().expect("truncation must be reported");
        prop_assert!(fault.truncated);
        prop_assert!(seq.records < 100);
        prop_assert_eq!(fault.records_processed, seq.records);
        for workers in [2usize, 5] {
            let par = par_detect_forensic(&cut, workers, ctx(&dataset), &key(), &wm(), 0.85)
                .unwrap();
            prop_assert_eq!(par.records, seq.records);
            prop_assert_eq!(&par.report.bit_votes, &seq.report.bit_votes);
            prop_assert_eq!(&par.report.forensics, &seq.report.forensics);
            prop_assert!(par.fault.as_ref().is_some_and(|f| f.truncated));
        }
    }
}

/// A reader yielding at most 5 bytes per call: the pull parser must
/// resume across arbitrary buffer boundaries without changing output.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = 5usize.min(self.data.len() - self.pos).min(buf.len());
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

#[test]
fn chunked_reads_do_not_change_output() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 40,
        editors: 5,
        seed: 45,
        gamma: 2,
    });
    let input = to_pretty_string(&dataset.doc);
    let mut whole = Vec::new();
    stream_embed(input.as_bytes(), &mut whole, ctx(&dataset), &key(), &wm()).unwrap();
    let mut trickled = Vec::new();
    let src = std::io::BufReader::with_capacity(
        7,
        Trickle {
            data: input.as_bytes(),
            pos: 0,
        },
    );
    stream_embed(src, &mut trickled, ctx(&dataset), &key(), &wm()).unwrap();
    assert_eq!(whole, trickled);
}

/// What one worker count made of one damaged input: the strict embed
/// and detect errors (`Display` text, `None` when accepted) and the
/// forensic outcome.
#[derive(Debug, PartialEq)]
struct Verdicts {
    strict_embed: Option<String>,
    strict_detect: Option<String>,
    forensic: Result<(Option<StreamFault>, usize, Option<ForensicsReport>), String>,
}

fn verdicts(input: &[u8], workers: usize, dataset: &Dataset) -> Verdicts {
    // Small reads put a mid-document encoding error after the root.
    let source = || std::io::BufReader::with_capacity(512, input);
    let detect = |mode| {
        wmx_stream::detect(source(), workers, mode, ctx(dataset), &key(), &wm(), 0.85)
            .map_err(|e| e.to_string())
    };
    let strict_embed = wmx_stream::embed(
        source(),
        std::io::sink(),
        workers,
        ctx(dataset),
        &key(),
        &wm(),
    )
    .err()
    .map(|e| e.to_string());
    let v = Verdicts {
        strict_embed,
        strict_detect: detect(DetectMode::Strict).err(),
        forensic: detect(DetectMode::Forensic).map(|r| (r.fault, r.records, r.report.forensics)),
    };
    // The named entry points are the same driver.
    let shim = match std::str::from_utf8(input) {
        Ok(text) => Verdicts {
            strict_embed: par_embed(text, workers, ctx(dataset), &key(), &wm())
                .err()
                .map(|e| e.to_string()),
            strict_detect: par_detect(text, workers, ctx(dataset), &key(), &wm(), 0.85)
                .err()
                .map(|e| e.to_string()),
            forensic: par_detect_forensic(text, workers, ctx(dataset), &key(), &wm(), 0.85)
                .map(|r| (r.fault, r.records, r.report.forensics))
                .map_err(|e| e.to_string()),
        },
        Err(_) if workers == 1 => Verdicts {
            strict_embed: stream_embed(source(), std::io::sink(), ctx(dataset), &key(), &wm())
                .err()
                .map(|e| e.to_string()),
            strict_detect: stream_detect(source(), ctx(dataset), &key(), &wm(), 0.85)
                .err()
                .map(|e| e.to_string()),
            forensic: stream_detect_forensic(source(), ctx(dataset), &key(), &wm(), 0.85)
                .map(|r| (r.fault, r.records, r.report.forensics))
                .map_err(|e| e.to_string()),
        },
        Err(_) => return v,
    };
    assert_eq!(shim, v, "workers={workers}: named entry point diverges");
    v
}

#[test]
fn every_worker_count_accepts_and_rejects_the_same_inputs() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 80,
        editors: 6,
        seed: 49,
        gamma: 2,
    });
    let (marked, _) = dom_embed_bytes(&to_string(&dataset.doc), &dataset);
    let cut = |text: &str, pct: usize| text.as_bytes()[..text.len() * pct / 100].to_vec();
    // Record 9's title closes as </year>: the top-level splitter's depth
    // count still balances, so only the record parse notices.
    let title_end = marked.match_indices("</title>").nth(9).unwrap().0;
    let mismatched = format!(
        "{}</year>{}",
        &marked[..title_end],
        &marked[title_end + "</title>".len()..]
    );
    let mut non_utf8 = marked.clone().into_bytes();
    let mid = marked[marked.len() / 2..].find("<year>").unwrap() + marked.len() / 2 + 6;
    non_utf8[mid] = 0xFF;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "truncated in the prolog",
            b"<?xml version=\"1.0\"?><!-- cut".to_vec(),
        ),
        ("truncated mid-record", cut(&marked, 55)),
        ("mismatched close tag, then truncated", cut(&mismatched, 80)),
        ("second root", format!("{marked}<db/>").into_bytes()),
        ("trailing text", format!("{marked}junk").into_bytes()),
        ("non-UTF-8 byte", non_utf8),
    ];
    for (i, (name, input)) in cases.iter().enumerate() {
        let reference = verdicts(input, 1, &dataset);
        assert!(
            reference.strict_embed.is_some() && reference.strict_detect.is_some(),
            "{name}: strict mode must reject the input"
        );
        // Only the prolog case breaks before the root; every other input
        // leaves a partial verdict to salvage.
        assert_eq!(reference.forensic.is_ok(), i > 0, "{name}");
        for workers in [2usize, 3, 8] {
            assert_eq!(
                verdicts(input, workers, &dataset),
                reference,
                "{name}: workers={workers}"
            );
        }
    }
    // Strict mode stops at the first error in stream order: the damaged
    // record, not the truncation after it; forensic mode skips it.
    let damaged = verdicts(&cases[2].1, 3, &dataset);
    let record_error = damaged.strict_detect.unwrap();
    assert!(
        record_error.contains("mismatched close tag"),
        "{record_error}"
    );
    assert_eq!(damaged.strict_embed.as_deref(), Some(record_error.as_str()));
    let (fault, ..) = damaged.forensic.unwrap();
    let fault = fault.expect("damage reported");
    assert_eq!(fault.skipped_records, vec![9]);
    assert!(fault.truncated);
}

/// The adversarial package's document with its second record damaged by
/// `damage`, which maps the clean record to the damaged bytes.
fn damaged_doc(damage: impl Fn(&str) -> String) -> String {
    let records = [
        "<book><title>A</title><year>1999</year></book>",
        "<book><title>B</title><year>2000</year><note>n</note></book>",
        "<book><title>C</title><year>2001</year></book>",
    ];
    format!(
        "<db version=\"2\">\n  {}\n  {}\n  {}\n</db>\n",
        records[0],
        damage(records[1]),
        records[2]
    )
}

#[test]
fn strict_errors_sit_where_the_dom_parser_puts_them() {
    let (binding, config) = adversarial_package();
    let ctx = StreamContext {
        binding: &binding,
        fds: &[],
        config: &config,
    };
    let cases: Vec<(&str, String)> = vec![
        (
            "mismatched close",
            damaged_doc(|r| r.replace("</year>", "</yaer>")),
        ),
        (
            "unquoted attribute value",
            damaged_doc(|r| r.replace("<title>", "<title a=1>")),
        ),
        (
            "raw < in an attribute value",
            damaged_doc(|r| r.replace("<title>", "<title a=\"x<y\">")),
        ),
        (
            "bad entity reference",
            damaged_doc(|r| r.replace(">B<", ">B &bogus;<")),
        ),
        (
            "unterminated comment inside a record",
            damaged_doc(|r| r.replace("<note>", "<!-- open <note>")),
        ),
        (
            "input cut mid-record",
            damaged_doc(|r| r.to_string())
                .split_once("<year>2000")
                .map(|(head, _)| format!("{head}<ye"))
                .unwrap(),
        ),
    ];
    for (name, doc) in &cases {
        let want = format!("xml error: {}", parse(doc).unwrap_err());
        for workers in [1usize, 2, 3, 8] {
            let detect = wmx_stream::detect(
                doc.as_bytes(),
                workers,
                DetectMode::Strict,
                ctx,
                &key(),
                &wm(),
                0.85,
            );
            let embed =
                wmx_stream::embed(doc.as_bytes(), std::io::sink(), workers, ctx, &key(), &wm());
            assert_eq!(
                detect.unwrap_err().to_string(),
                want,
                "{name}: workers={workers}"
            );
            assert_eq!(
                embed.unwrap_err().to_string(),
                want,
                "{name}: workers={workers}"
            );
        }
        let trickle = std::io::BufReader::with_capacity(
            5,
            Trickle {
                data: doc.as_bytes(),
                pos: 0,
            },
        );
        let err = stream_detect(trickle, ctx, &key(), &wm(), 0.85).unwrap_err();
        assert_eq!(err.to_string(), want, "{name}: 5-byte reads");
    }
    // The lexical errors sit in the second record's line.
    assert!(cases[..4]
        .iter()
        .all(|(_, doc)| parse(doc).unwrap_err().to_string().contains(" at 3:")));
}

#[test]
fn forensic_detection_salvages_the_records_after_a_lexically_damaged_one() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 60,
        editors: 6,
        seed: 51,
        gamma: 2,
    });
    let (marked, _) = dom_embed_bytes(&to_string(&dataset.doc), &dataset);
    // Record 9's title gets an unquoted attribute value: its tags still
    // balance, so the reader returns it and only its own parse fails.
    let at = marked.match_indices("<title>").nth(9).unwrap().0;
    let damaged = format!("{}<title a=1>{}", &marked[..at], &marked[at + 7..]);
    // Strict mode rejects what the DOM rejects, with the DOM's error.
    let dom_error = parse(&damaged).unwrap_err();
    let strict = stream_detect(damaged.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85);
    assert_eq!(
        strict.unwrap_err().to_string(),
        format!("xml error: {dom_error}")
    );
    // Forensic mode skips record 9 and keeps voting to the end: the
    // votes are those of the document without that record.
    let mut without = parse(&marked).unwrap();
    let root = without.root_element().unwrap();
    let ninth = without.child_elements(root).nth(9).unwrap();
    without.detach(ninth);
    let rest = stream_detect(
        to_string(&without).as_bytes(),
        ctx(&dataset),
        &key(),
        &wm(),
        0.85,
    )
    .unwrap();
    let reference = par_detect_forensic(&damaged, 1, ctx(&dataset), &key(), &wm(), 0.85).unwrap();
    let fault = reference.fault.clone().expect("damage reported");
    assert_eq!(fault.skipped_records, vec![9]);
    assert!(!fault.truncated);
    assert_eq!(fault.records_processed, 59);
    assert_eq!(reference.records, 59);
    assert_eq!(reference.report.bit_votes, rest.report.bit_votes);
    for workers in [2usize, 3, 8] {
        let par =
            par_detect_forensic(&damaged, workers, ctx(&dataset), &key(), &wm(), 0.85).unwrap();
        assert_eq!(par.fault, reference.fault, "workers={workers}");
        assert_eq!(par.records, reference.records, "workers={workers}");
        assert_eq!(
            par.report.bit_votes, reference.report.bit_votes,
            "workers={workers}"
        );
        assert_eq!(
            par.report.forensics, reference.report.forensics,
            "workers={workers}"
        );
    }
}

/// A detection report's counters and verdict, for cross-run comparison.
fn counters(report: &wmx_core::DetectionReport) -> (usize, usize, usize, usize, usize, bool) {
    (
        report.total_queries,
        report.located_queries,
        report.votes_cast,
        report.voted_bits,
        report.matched_bits,
        report.detected,
    )
}

/// Each worker decides an FD group once and keeps the decision across
/// batches. On a corpus that spans several batches per worker, with 4
/// editors recurring in every batch, every worker count must still embed
/// the DOM's bytes and queries and tally the same votes, counters and
/// forensics.
#[test]
fn fd_decisions_hold_across_batches_and_workers() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 3_500,
        editors: 4,
        seed: 53,
        gamma: 3,
    });
    let input = to_string(&dataset.doc);
    // Two workers fill a batch at 2 × 256 KiB of record bytes.
    assert!(input.len() > 2 * 256 * 1024, "corpus spans one batch");
    let (dom_out, dom_report) = dom_embed_bytes(&input, &dataset);
    let mut altered = parse(&dom_out).unwrap();
    AlterationAttack::values(0.1, vec!["//book/year".to_string()], 53).apply(&mut altered);
    let altered = to_string(&altered);
    let reference = dom_forensics(&altered, &dataset, &dom_report.queries);
    let intruder = SecretKey::from_passphrase("intruder");
    let mut first: Option<(wmx_core::DetectionReport, wmx_core::DetectionReport)> = None;
    for workers in [1usize, 2, 3, 8] {
        let (out, report) = par_embed(&input, workers, ctx(&dataset), &key(), &wm()).unwrap();
        assert!(out == dom_out, "workers={workers}: bytes diverge from DOM");
        assert_eq!(
            query_set(&report.report.queries),
            query_set(&dom_report.queries),
            "workers={workers}"
        );
        let found = par_detect_forensic(&altered, workers, ctx(&dataset), &key(), &wm(), 0.85)
            .unwrap()
            .report;
        assert_eq!(
            found.forensics.as_ref(),
            Some(&reference),
            "workers={workers}"
        );
        let wrong = par_detect(&dom_out, workers, ctx(&dataset), &intruder, &wm(), 0.85)
            .unwrap()
            .report;
        let (found_1, wrong_1) = first.get_or_insert_with(|| (found.clone(), wrong.clone()));
        assert_eq!(found.bit_votes, found_1.bit_votes, "workers={workers}");
        assert_eq!(counters(&found), counters(found_1), "workers={workers}");
        assert_eq!(wrong.bit_votes, wrong_1.bit_votes, "workers={workers}");
        assert_eq!(counters(&wrong), counters(wrong_1), "workers={workers}");
    }
}

/// Records are parsed into one recycled symbol table. A name only some
/// records use (`<note lang>`) must not change a later record's output
/// or votes, whether it comes first or last.
#[test]
fn record_only_names_do_not_leak_into_later_records() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 40,
        editors: 5,
        seed: 54,
        gamma: 2,
    });
    let plain = to_string(&dataset.doc);
    let note = "<note lang=\"en\">n</note></book>";
    let first = plain.replacen("</book>", note, 1);
    let last = {
        let at = plain.rfind("</book>").unwrap();
        [&plain[..at], note, &plain[at + "</book>".len()..]].concat()
    };
    for input in [first, last] {
        let (dom_out, dom_report) = dom_embed_bytes(&input, &dataset);
        let marked = parse(&dom_out).unwrap();
        let dom_votes = detect(
            &marked,
            &DetectionInput {
                queries: &dom_report.queries,
                key: key(),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        )
        .bit_votes;
        for workers in [1usize, 2] {
            let (out, _) = par_embed(&input, workers, ctx(&dataset), &key(), &wm()).unwrap();
            assert_eq!(out, dom_out, "workers={workers}");
            let found = par_detect(&dom_out, workers, ctx(&dataset), &key(), &wm(), 0.85).unwrap();
            assert_eq!(found.report.bit_votes, dom_votes, "workers={workers}");
        }
    }
}
