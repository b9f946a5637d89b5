//! Telemetry end-to-end: drive both engines through a real workload,
//! then prove the observability layer reports it faithfully —
//! snapshot → JSON text → the in-tree JSON reader → schema validation,
//! registry counters consistent with engine reports, and audit events
//! round-tripping through a sink for both verdict outcomes.

use std::sync::{Arc, Mutex};

use wmx_core::{detect, embed, global_plan_cache, DetectionInput, Watermark};
use wmx_crypto::SecretKey;
use wmx_data::{publications, Dataset};
use wmx_stream::{par_detect, stream_embed, StreamContext};
use wmx_telemetry::Json;

fn dataset() -> Dataset {
    publications::generate(&publications::PublicationsConfig {
        records: 150,
        editors: 6,
        seed: 77,
        gamma: 3,
    })
}

fn key() -> SecretKey {
    SecretKey::from_passphrase("telemetry-key")
}

fn wm() -> Watermark {
    Watermark::from_message("© telemetry", 24)
}

/// One full pipeline pass: DOM embed + detect, streaming embed,
/// parallel detect. Returns (dom report, detection, stream report).
fn exercise() -> (
    wmx_core::EmbedReport,
    wmx_core::DetectionReport,
    wmx_stream::StreamDetectReport,
) {
    let d = dataset();
    let mut marked = d.doc.clone();
    let report = embed(&mut marked, &d.binding, &d.fds, &d.config, &key(), &wm()).expect("embed");
    let detection = detect(
        &marked,
        &DetectionInput {
            queries: &report.queries,
            key: key(),
            watermark: wm(),
            threshold: 0.85,
            mapping: None,
        },
    );
    assert!(detection.detected);

    let input = wmx_xml::to_string(&d.doc);
    let ctx = StreamContext {
        binding: &d.binding,
        fds: &d.fds,
        config: &d.config,
    };
    let mut out = Vec::new();
    stream_embed(input.as_bytes(), &mut out, ctx, &key(), &wm()).expect("stream embed");
    let marked_text = String::from_utf8(out).expect("utf8");
    let stream_detection =
        par_detect(&marked_text, 3, ctx, &key(), &wm(), 0.85).expect("par detect");
    assert!(stream_detection.report.detected);
    (report, detection, stream_detection)
}

#[test]
fn snapshot_roundtrips_through_the_bench_reader_and_reflects_the_run() {
    let plan_lookups_before = global_plan_cache().hits() + global_plan_cache().misses();
    let registry = wmx_telemetry::global();
    let chunks_before = registry.counter("stream.chunks").get();
    let votes_before = registry.counter("stream.votes").get();
    let batch_calls_before = registry.counter("xpath.batch.calls").get();

    let (_, detection, stream_detection) = exercise();

    // Serialize the global registry and read it back with the JSON
    // reader the bench reports use.
    let snapshot = wmx_telemetry::global_snapshot();
    let text = snapshot.to_pretty_string();
    let parsed = Json::parse(&text).expect("bench reader parses the snapshot");
    wmx_telemetry::validate_snapshot(&parsed).expect("snapshot schema holds");
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_usize),
        Some(wmx_telemetry::SNAPSHOT_SCHEMA_VERSION as usize)
    );

    let counter = |name: &str| -> u64 {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot")) as u64
    };

    // Plan-cache traffic: the DOM embed and the streaming engines all
    // resolve plans through the global cache.
    assert!(
        counter("core.plan_cache.hits") + counter("core.plan_cache.misses") > plan_lookups_before,
        "pipeline pass must hit the global plan cache"
    );
    // Chunk metrics: sequential embed contributes 1 chunk, par_detect
    // one per worker chunk; other parallel tests may add more.
    assert!(
        counter("stream.chunks") >= chunks_before + 1 + stream_detection.chunk_timings.len() as u64
    );
    assert!(counter("stream.votes") >= votes_before + stream_detection.report.votes_cast as u64);
    // Batched detection went through batch_select at least once.
    assert!(counter("xpath.batch.calls") > batch_calls_before);
    assert!(
        counter("xpath.batch.answered") + counter("xpath.batch.fallback")
            >= detection.total_queries as u64 - detection.unrewritable_queries as u64
    );

    // Phase histograms recorded the spans this thread just ran.
    for phase in [
        "span.embed",
        "span.embed.plan",
        "span.embed.select",
        "span.embed.mark",
        "span.detect",
        "span.detect.resolve",
        "span.detect.select",
        "span.detect.extract",
    ] {
        let count = parsed
            .get("histograms")
            .and_then(|h| h.get(phase))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("histogram {phase} missing from snapshot"));
        assert!(count > 0, "{phase} recorded nothing");
    }

    // The chunk summary surfaces what used to be silently dropped.
    let summary = stream_detection.chunk_summary().expect("timed chunks");
    assert_eq!(summary.chunks, stream_detection.chunk_timings.len());
    assert_eq!(summary.records, stream_detection.records);
    assert!(summary.min_micros <= summary.mean_micros());
    assert!(summary.mean_micros() <= summary.max_micros);
}

/// A clonable in-memory writer so the test can read the sink's output.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Buf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn audit_events_for_both_verdicts_roundtrip_through_a_sink() {
    let d = dataset();
    let mut marked = d.doc.clone();
    let report = embed(&mut marked, &d.binding, &d.fds, &d.config, &key(), &wm()).expect("embed");

    let buf = Buf::default();
    let sink = wmx_telemetry::AuditSink::from_writer(Box::new(buf.clone()));

    for (passphrase, expect_detected) in [("telemetry-key", true), ("wrong-key", false)] {
        let detection = detect(
            &marked,
            &DetectionInput {
                queries: &report.queries,
                key: SecretKey::from_passphrase(passphrase),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        );
        assert_eq!(detection.detected, expect_detected);
        let (ones, zeros) = detection.vote_totals();
        sink.record(&wmx_telemetry::AuditEvent {
            operation: "detect".to_string(),
            engine: "dom".to_string(),
            workload: "publications-150".to_string(),
            records: Some(150),
            phases: vec![("detect".to_string(), 1)],
            counts: vec![
                ("votes_ones".to_string(), ones as u64),
                ("votes_zeros".to_string(), zeros as u64),
            ],
            detected: Some(detection.detected),
            p_value: Some(detection.p_value),
        })
        .expect("audit append");
    }

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one audit line per detection");
    for line in &lines {
        wmx_telemetry::validate_audit_line(line).expect("audit schema holds");
    }
    let verdict = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("detected")
            .and_then(Json::as_bool)
    };
    assert_eq!(verdict(lines[0]), Some(true));
    assert_eq!(verdict(lines[1]), Some(false));
    // The detected line's vote totals dominate the undetected line's
    // correct-bit votes (wrong key ⇒ votes scatter).
    let ones_of = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("counts")
            .and_then(|c| c.get("votes_ones"))
            .and_then(Json::as_usize)
            .unwrap()
    };
    assert!(ones_of(lines[0]) + ones_of(lines[1]) > 0);
}
