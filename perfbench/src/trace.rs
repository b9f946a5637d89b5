//! The traced run: per-layer times, work counters and allocations.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions, not inside the library. The stream engines are replayed
//! from outside (split, wrap and parse with the engine's seeded symbol
//! table, plan execution, selection, mark or extract, serialize) and the
//! replay's layer times are set against the engine's own untraced wall
//! clock in the same round. The DOM operations are timed around parse,
//! the core call and serialize, and read the library's own phase spans
//! and counters from `wmx_telemetry::global_snapshot()` deltas.

use crate::inputs::{Inputs, THRESHOLD};
use crate::ops::{detection_input, Checks, Op, Output, Verdict};
use crate::stats::{median, Metrics};
use crate::AllocStats;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wmx_core::{
    detect, detect_forensic, embed, global_plan_cache, DomNodes, DomNodesMut, ForensicContext,
    StoredQuery, UnitKey, UnitMarker, UnitTag,
};
use wmx_rewrite::AttrBinding;
use wmx_stream::{TopEvent, TopLevelReader};
use wmx_telemetry::Json;
use wmx_xml::serialize::{attribute_text, node_to_string_into};
use wmx_xml::{parse_seeded_owned, Interner, ParseOptions};

/// One reading of the process-wide telemetry registry.
struct Snap(Json);

impl Snap {
    fn take() -> Snap {
        Snap(wmx_telemetry::global_snapshot())
    }

    fn counter(&self, name: &str) -> f64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Summed duration of the library span `name`, in ms.
    fn span_ms(&self, name: &str) -> f64 {
        self.0
            .get("histograms")
            .and_then(|h| h.get(&format!("span.{name}")))
            .and_then(|h| h.get("sum"))
            .and_then(Json::as_f64)
            .map_or(0.0, |micros| micros / 1e3)
    }
}

/// Per-round samples, reported in insertion order.
#[derive(Default)]
struct Series(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Series {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layer times of one stream replay.
#[derive(Default)]
struct StreamLayers {
    split: Duration,
    build: Duration,
    plan: Duration,
    select: Duration,
    extract: Duration,
    mark: Duration,
    query: Duration,
    serialize: Duration,
}

impl StreamLayers {
    fn total(&self) -> Duration {
        self.split
            + self.build
            + self.plan
            + self.select
            + self.extract
            + self.mark
            + self.query
            + self.serialize
    }
}

/// What a replay of a stream engine did.
#[derive(Default)]
struct Replay {
    layers: StreamLayers,
    wall: Duration,
    records: usize,
    units: usize,
    selected: usize,
    votes: usize,
    bit_votes: Vec<(usize, usize)>,
    stored_queries: usize,
    output: String,
}

/// The symbol table every record's parse starts from, as the stream
/// engine seeds it: the root's names plus every name the binding uses,
/// so records share symbol ids.
fn record_prototype(
    inputs: &Inputs,
    root_open: &str,
    root_close: &str,
) -> Result<Interner, String> {
    let probe = wmx_xml::parse(&format!("{root_open}{root_close}")).map_err(|e| e.to_string())?;
    let mut prototype = probe.interner().clone();
    let mut seed = |path: &str| {
        for part in path.split(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))) {
            if part.chars().next().is_some_and(|c| !c.is_ascii_digit()) {
                prototype.intern(part);
            }
        }
    };
    for entity in inputs.dataset.binding.entities.values() {
        seed(&entity.instance_path);
        for access in entity.attrs.values() {
            match access {
                AttrBinding::ChildText(path)
                | AttrBinding::Attribute(path)
                | AttrBinding::Path(path) => seed(path),
                AttrBinding::SelfText => {}
            }
        }
    }
    Ok(prototype)
}

/// Adds the time since the previous phase boundary `t` to `layer`.
fn lap(layer: &mut Duration, t: &mut Instant) {
    let now = Instant::now();
    *layer += now - *t;
    *t = now;
}

/// Replays `stream_detect` (or, with `embed`, `stream_embed`) over
/// `text` through the public functions the engine calls per record.
fn replay_stream(inputs: &Inputs, text: &str, embed: bool) -> Result<Replay, String> {
    let start = Instant::now();
    let ctx = inputs.ctx();
    let plan = global_plan_cache()
        .get_or_compile(ctx.binding, ctx.fds, ctx.config)
        .map_err(|e| e.to_string())?;
    let table = plan.table();
    let marker = UnitMarker::new(inputs.key.clone());
    let wm_len = inputs.watermark.len();
    let mut r = Replay {
        bit_votes: vec![(0, 0); wm_len],
        ..Replay::default()
    };
    let mut marked_fd_groups: BTreeSet<UnitKey> = BTreeSet::new();
    let (mut root_open, mut root_close) = (String::new(), String::new());
    let mut prototype = Interner::default();
    let mut reader = TopLevelReader::new(text.as_bytes());
    let mut t = Instant::now();
    loop {
        let event = reader.next_event().map_err(|e| e.to_string())?;
        lap(&mut r.layers.split, &mut t);
        match event {
            None => break,
            Some(TopEvent::RootStart { name, attributes }) => {
                root_open = format!("<{name}");
                for a in &attributes {
                    root_open.push_str(&attribute_text(&a.name, &a.value));
                }
                root_open.push('>');
                root_close = format!("</{name}>");
                prototype = record_prototype(inputs, &root_open, &root_close)?;
                if embed {
                    r.output.push_str(&root_open);
                }
            }
            Some(TopEvent::Record(raw)) => {
                let mut wrapped =
                    String::with_capacity(root_open.len() + raw.len() + root_close.len());
                wrapped.push_str(&root_open);
                wrapped.push_str(&raw);
                wrapped.push_str(&root_close);
                drop(raw);
                let mut mini =
                    parse_seeded_owned(wrapped, ParseOptions::default(), prototype.clone())
                        .map_err(|e| e.to_string())?;
                lap(&mut r.layers.build, &mut t);
                let units = plan.execute(&mini);
                lap(&mut r.layers.plan, &mut t);
                r.units += units.len();
                for unit in &units {
                    let id = unit.key.id(table);
                    let selected = marker.is_selected(&id, ctx.config.gamma);
                    lap(&mut r.layers.select, &mut t);
                    if !selected {
                        continue;
                    }
                    r.selected += 1;
                    if embed {
                        let marked = marker
                            .mark_unit(
                                &mut DomNodesMut::new(&mut mini, &unit.nodes),
                                &id,
                                unit.mark,
                                &inputs.watermark,
                            )
                            .map_err(|e| e.to_string())?;
                        lap(&mut r.layers.mark, &mut t);
                        let first_mark = marked > 0
                            && (unit.key.tag != UnitTag::FdGroup
                                || marked_fd_groups.insert(unit.key.clone()));
                        if first_mark {
                            let (query, logical) = unit
                                .query_and_logical(table, ctx.binding, ctx.fds)
                                .map_err(|e| e.to_string())?;
                            black_box(StoredQuery {
                                unit_id: unit.key.display(table),
                                xpath: query.to_string(),
                                logical,
                                mark: unit.mark,
                            });
                            r.stored_queries += 1;
                        }
                        lap(&mut r.layers.query, &mut t);
                    } else {
                        let votes = marker.extract_unit(
                            &DomNodes::new(&mini, &unit.nodes),
                            &id,
                            unit.mark,
                            wm_len,
                        );
                        for bit in votes.bits {
                            r.votes += 1;
                            let slot = &mut r.bit_votes[votes.bit_index];
                            if bit {
                                slot.0 += 1;
                            } else {
                                slot.1 += 1;
                            }
                        }
                        lap(&mut r.layers.extract, &mut t);
                    }
                }
                if embed {
                    let root = mini.root_element().ok_or("record lost its wrapper")?;
                    let record = mini
                        .child_elements(root)
                        .next()
                        .ok_or("wrapper lost its record")?;
                    node_to_string_into(&mini, record, &mut r.output);
                    lap(&mut r.layers.serialize, &mut t);
                }
                drop(units);
                drop(mini);
                lap(&mut r.layers.build, &mut t);
                r.records += 1;
            }
            Some(TopEvent::RootEnd) => {
                if embed {
                    r.output.push_str(&root_close);
                }
            }
            Some(other) => {
                return Err(format!(
                    "the replay reads generated documents only, not {other:?}"
                ))
            }
        }
    }
    r.wall = start.elapsed();
    Ok(r)
}

/// Bytes the top-level split allocates per input byte.
fn split_alloc_bytes_per_byte(text: &str) -> Result<f64, String> {
    let (result, stats) = crate::count_allocs(|| {
        let mut reader = TopLevelReader::new(text.as_bytes());
        while let Some(event) = reader.next_event()? {
            black_box(event);
        }
        Ok::<(), wmx_stream::StreamError>(())
    });
    result.map_err(|e| e.to_string())?;
    Ok(stats.bytes as f64 / text.len() as f64)
}

/// A DOM operation timed around its parts.
struct DomTrace {
    parse: Duration,
    call: Duration,
    serialize: Duration,
    drop: Duration,
    before: Snap,
    after: Snap,
}

impl DomTrace {
    fn wall(&self) -> Duration {
        self.parse + self.call + self.serialize + self.drop
    }
}

fn traced_dom_detect(
    inputs: &Inputs,
    text: &str,
    through_mapping: bool,
) -> Result<(DomTrace, Verdict), String> {
    let before = Snap::take();
    let t0 = Instant::now();
    let doc = wmx_xml::parse(text).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let report = detect(&doc, &detection_input(inputs, through_mapping));
    let t2 = Instant::now();
    drop(doc);
    let t3 = Instant::now();
    let trace = DomTrace {
        parse: t1 - t0,
        call: t2 - t1,
        serialize: Duration::ZERO,
        drop: t3 - t2,
        before,
        after: Snap::take(),
    };
    Ok((trace, Verdict::from_dom(report)))
}

fn traced_dom_embed(inputs: &Inputs) -> Result<(DomTrace, String), String> {
    let ds = &inputs.dataset;
    let before = Snap::take();
    let t0 = Instant::now();
    let mut doc = wmx_xml::parse(&inputs.original).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    embed(
        &mut doc,
        &ds.binding,
        &ds.fds,
        &ds.config,
        &inputs.key,
        &inputs.watermark,
    )
    .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let text = wmx_xml::to_string(&doc);
    let t3 = Instant::now();
    drop(doc);
    let t4 = Instant::now();
    let trace = DomTrace {
        parse: t1 - t0,
        call: t2 - t1,
        serialize: t3 - t2,
        drop: t4 - t3,
        before,
        after: Snap::take(),
    };
    Ok((trace, text))
}

/// Times `op` untraced and checks its output.
fn untraced(op: Op, inputs: &Inputs, workers: usize, checks: &mut Checks) -> (Duration, Output) {
    let start = Instant::now();
    let output = black_box(op.run(black_box(inputs), workers));
    let wall = start.elapsed();
    checks.check_output(op, inputs, &output);
    (wall, output)
}

/// Runs traced rounds until `deadline` and reports every per-layer
/// metric.
pub fn run(
    inputs: &Inputs,
    workers: usize,
    deadline: Instant,
    allocs: &[AllocStats],
    checks: &mut Checks,
) -> Metrics {
    let mut s = Series::default();
    let mut first_counts: Option<BTreeMap<&'static str, f64>> = None;
    let mut rounds = 0usize;
    while rounds < crate::MIN_ROUNDS || Instant::now() < deadline {
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        round(inputs, workers, &mut s, &mut counts, checks);
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) => checks.check(*first == counts, || {
                format!("work counters changed between rounds: {first:?} vs {counts:?}")
            }),
        }
        rounds += 1;
    }

    let mut m = Metrics::default();
    for (name, unit, values) in &s.0 {
        // Times and within-round ratios alike are medians over rounds,
        // like the end-to-end metrics.
        m.sampled(
            name,
            median(values),
            unit,
            format!("median of {}", values.len()),
        );
    }
    let median_of = |name: &str| {
        s.0.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, values)| median(values))
    };
    m.sampled(
        "core.forensic_extra_ms",
        median_of("core.detect_forensic_ms") - median_of("core.detect_same_tree_ms"),
        "ms",
        "median forensic minus median plain detect".into(),
    );
    let counts = first_counts.expect("at least one round");
    for (name, value) in &counts {
        m.value(name, *value, "count");
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.value(
        "marker.selected_frac",
        ratio(count("marker.selected_units"), count("plan.units")),
        "fraction",
    );
    let spans = count("xml.zero_copy_spans") + count("xml.materialized_spans");
    m.value(
        "xml.zero_copy_frac",
        ratio(count("xml.zero_copy_spans"), spans),
        "fraction",
    );
    let batched = count("xpath.batch_fallback") + count("xpath.batch_answered");
    m.value(
        "xpath.batch_fallback_frac",
        ratio(count("xpath.batch_fallback"), batched),
        "fraction",
    );
    m.value(
        "plan.cache_misses",
        Snap::take().counter("core.plan_cache.misses"),
        "count",
    );
    m.value("par.workers", workers as f64, "count");
    let detect_text = &inputs.detect_copies[0].text;
    match split_alloc_bytes_per_byte(detect_text) {
        Ok(v) => m.value("stream.split_alloc_bytes_per_byte", v, "B/B"),
        Err(e) => checks.check(false, || format!("split-only pass: {e}")),
    }
    let stream_detect = &allocs[Op::ALL
        .iter()
        .position(|&o| o == Op::StreamDetect)
        .expect("op")];
    m.value(
        "xml.allocs_per_record",
        ratio(stream_detect.count as f64, count("stream.records")),
        "count",
    );
    for (op, a) in Op::ALL.iter().zip(allocs) {
        m.value(
            &format!("alloc.count.{}", op.name()),
            a.count as f64,
            "count",
        );
        m.value(&format!("alloc.bytes.{}", op.name()), a.bytes as f64, "B");
    }
    m
}

/// One traced round: every replay and traced call once, next to the
/// untraced calls it is compared with.
fn round(
    inputs: &Inputs,
    workers: usize,
    s: &mut Series,
    counts: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    // Stream engines, untraced and replayed.
    let (engine_detect, detect_output) = untraced(Op::StreamDetect, inputs, workers, checks);
    let (engine_embed, _) = untraced(Op::StreamEmbed, inputs, workers, checks);
    let engine_verdicts = match &detect_output {
        Output::Verdicts(v) => v.as_slice(),
        Output::Marked(_) => &[],
    };
    let mut replays = Vec::new();
    for (copy, engine) in inputs.detect_copies.iter().zip(engine_verdicts) {
        match replay_stream(inputs, &copy.text, false) {
            Ok(r) => {
                let same = engine
                    .as_ref()
                    .is_ok_and(|e| e.bit_votes == r.bit_votes && e.records == Some(r.records));
                checks.check(same, || {
                    format!(
                        "replayed vote tally on {} differs from stream_detect's",
                        copy.name
                    )
                });
                if let Ok(e) = engine {
                    *counts.entry("stream.peak_resident_nodes").or_default() +=
                        e.peak_resident_nodes as f64;
                }
                replays.push(r);
            }
            Err(e) => checks.check(false, || format!("stream_detect replay: {e}")),
        }
    }
    match replay_stream(inputs, &inputs.original, true) {
        Ok(r) => {
            checks.check(r.output == inputs.marked, || {
                "replayed stream_embed output differs from the marked bytes".into()
            });
            checks.check(r.stored_queries == inputs.queries.len(), || {
                format!(
                    "replayed stream_embed stored {} queries, the DOM engine {}",
                    r.stored_queries,
                    inputs.queries.len()
                )
            });
            replays.push(r);
        }
        Err(e) => checks.check(false, || format!("stream_embed replay: {e}")),
    }
    let layer = |f: fn(&StreamLayers) -> Duration| -> f64 {
        replays.iter().map(|r| ms(f(&r.layers))).sum()
    };
    s.add("stream.split_ms", "ms", layer(|l| l.split));
    s.add("xml.record_build_ms", "ms", layer(|l| l.build));
    s.add("plan.execute_ms", "ms", layer(|l| l.plan));
    s.add("marker.select_ms", "ms", layer(|l| l.select));
    s.add("marker.extract_ms", "ms", layer(|l| l.extract));
    s.add("marker.mark_ms", "ms", layer(|l| l.mark));
    s.add("core.query_build_ms", "ms", layer(|l| l.query));
    s.add("xml.record_serialize_ms", "ms", layer(|l| l.serialize));
    let engine_wall = ms(engine_detect + engine_embed);
    s.add(
        "trace.coverage.stream",
        "ratio",
        layer(StreamLayers::total) / engine_wall,
    );
    s.add(
        "trace.overhead.stream",
        "ratio",
        replays.iter().map(|r| ms(r.wall)).sum::<f64>() / engine_wall,
    );
    if let Some(detect_replay) = replays.first() {
        counts.insert("stream.records", detect_replay.records as f64);
        counts.insert("plan.units", detect_replay.units as f64);
        counts.insert("marker.selected_units", detect_replay.selected as f64);
        counts.insert("marker.votes", detect_replay.votes as f64);
    }
    counts.insert("core.stored_queries", inputs.queries.len() as f64);

    // DOM engine: untraced, then timed around parse, the core call,
    // serialize and the tree's drop; the core call splits into the
    // library's own phase spans.
    let (dom_detect_wall, _) = untraced(Op::DomDetect, inputs, workers, checks);
    let (dom_embed_wall, _) = untraced(Op::DomEmbed, inputs, workers, checks);
    const SPANS: [(&str, &str); 6] = [
        ("core.detect_resolve_ms", "detect.resolve"),
        ("xpath.batch_select_ms", "detect.select"),
        ("core.detect_extract_ms", "detect.extract"),
        ("plan.cache_lookup_ms", "embed.plan"),
        ("plan.dom_execute_ms", "embed.select"),
        ("core.embed_mark_ms", "embed.mark"),
    ];
    let mut spans = [0.0f64; SPANS.len()];
    let (mut parse, mut serialize, mut teardown, mut traced_wall) = (0.0, 0.0, 0.0, 0.0);
    let mut note = |t: &DomTrace| {
        parse += ms(t.parse);
        serialize += ms(t.serialize);
        teardown += ms(t.drop);
        traced_wall += ms(t.wall());
        for (sum, (_, span)) in spans.iter_mut().zip(SPANS) {
            *sum += t.after.span_ms(span) - t.before.span_ms(span);
        }
    };
    let mut detect_ms = 0.0;
    let mut verdicts = Vec::new();
    for copy in &inputs.detect_copies {
        match traced_dom_detect(inputs, &copy.text, false) {
            Ok((t, verdict)) => {
                note(&t);
                detect_ms += ms(t.call);
                for (name, counter) in [
                    ("xml.zero_copy_spans", "lexer.text_spans_zero_copy"),
                    ("xml.materialized_spans", "lexer.text_spans_materialized"),
                    ("xpath.batch_groups", "xpath.batch.groups"),
                    ("xpath.batch_answered", "xpath.batch.answered"),
                    ("xpath.batch_fallback", "xpath.batch.fallback"),
                ] {
                    *counts.entry(name).or_default() +=
                        t.after.counter(counter) - t.before.counter(counter);
                }
                verdicts.push(Ok(verdict));
            }
            Err(e) => verdicts.push(Err(e)),
        }
    }
    checks.check_output(Op::DomDetect, inputs, &Output::Verdicts(verdicts));
    let mut embed_ms = 0.0;
    match traced_dom_embed(inputs) {
        Ok((t, text)) => {
            note(&t);
            embed_ms = ms(t.call);
            checks.check_output(Op::DomEmbed, inputs, &Output::Marked(Ok(text)));
        }
        Err(e) => checks.check_output(Op::DomEmbed, inputs, &Output::Marked(Err(e))),
    }
    s.add("xml.parse_ms", "ms", parse);
    s.add("core.detect_ms", "ms", detect_ms);
    s.add("core.embed_ms", "ms", embed_ms);
    for ((name, _), sum) in SPANS.iter().zip(spans) {
        s.add(name, "ms", sum);
    }
    s.add("xml.serialize_ms", "ms", serialize);
    s.add("xml.drop_ms", "ms", teardown);
    let dom_wall = ms(dom_detect_wall + dom_embed_wall);
    s.add(
        "trace.coverage.dom",
        "ratio",
        (parse + spans.iter().sum::<f64>() + serialize + teardown) / dom_wall,
    );
    s.add("trace.overhead.dom", "ratio", traced_wall / dom_wall);

    // Parallel stream engine against the sequential one.
    let start = Instant::now();
    let mut skews = Vec::new();
    for copy in &inputs.detect_copies {
        match wmx_stream::par_detect(
            &copy.text,
            workers,
            inputs.ctx(),
            &inputs.key,
            &inputs.watermark,
            THRESHOLD,
        ) {
            Ok(r) => {
                if let Some(c) = r.chunk_summary() {
                    skews.push(c.max_micros as f64 / c.mean_micros().max(1) as f64);
                }
                checks.check(r.report.detected, || "par_detect lost the mark".into());
            }
            Err(e) => checks.check(false, || format!("par_detect: {e}")),
        }
    }
    let par_wall = start.elapsed();
    s.add("par.speedup", "ratio", ms(engine_detect) / ms(par_wall));
    if !skews.is_empty() {
        s.add("par.chunk_skew", "ratio", median(&skews));
    }

    // Forensic detection against plain detection on the same tree.
    let (mut forensic_ms, mut plain_ms) = (0.0, 0.0);
    for copy in &inputs.dom_forensic_copies {
        let Ok(doc) = wmx_xml::parse(&copy.text) else {
            checks.check(false, || format!("parse {} for forensics", copy.name));
            continue;
        };
        let ds = &inputs.dataset;
        let before = Snap::take();
        let t0 = Instant::now();
        let forensic = detect_forensic(
            &doc,
            &detection_input(inputs, false),
            ForensicContext {
                binding: &ds.binding,
                fds: &ds.fds,
                config: &ds.config,
            },
        );
        let t1 = Instant::now();
        let plain = detect(&doc, &detection_input(inputs, false));
        let t2 = Instant::now();
        let after = Snap::take();
        forensic_ms += ms(t1 - t0);
        plain_ms += ms(t2 - t1);
        *counts.entry("core.suspect_units").or_default() +=
            after.counter("detect.suspect_units") - before.counter("detect.suspect_units");
        checks.check(
            forensic
                .as_ref()
                .is_ok_and(|f| f.detected == plain.detected && f.bit_votes == plain.bit_votes),
            || format!("forensic and plain detection disagree on {}", copy.name),
        );
    }
    s.add("core.detect_forensic_ms", "ms", forensic_ms);
    s.add("core.detect_same_tree_ms", "ms", plain_ms);

    // Detection through the schema mapping.
    let mut rewrite_ms = 0.0;
    let mut verdicts = Vec::new();
    for copy in &inputs.reorg_copies {
        let before = Snap::take();
        let doc = wmx_xml::parse(&copy.text);
        let report = doc
            .map(|doc| detect(&doc, &detection_input(inputs, true)))
            .map_err(|e| e.to_string());
        let after = Snap::take();
        rewrite_ms += after.span_ms("detect.resolve") - before.span_ms("detect.resolve");
        if let Ok(r) = &report {
            *counts.entry("rewrite.unrewritable_queries").or_default() +=
                r.unrewritable_queries as f64;
        }
        verdicts.push(report.map(Verdict::from_dom));
    }
    checks.check_output(Op::ReorgDetect, inputs, &Output::Verdicts(verdicts));
    s.add("rewrite.query_rewrite_ms", "ms", rewrite_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build_sized, Workload};

    /// One test on purpose: allocation counting and the telemetry
    /// registry are process-wide, so a second test running alongside
    /// would leak its work into these counts.
    #[test]
    fn work_counters_repeat_exactly() {
        for workload in Workload::ALL {
            let inputs = build_sized(workload, 7, 120);
            let mut checks = Checks::default();
            let counts = |checks: &mut Checks| {
                let mut counts = BTreeMap::new();
                round(&inputs, 2, &mut Series::default(), &mut counts, checks);
                counts
            };
            let first = counts(&mut checks);
            assert_eq!(first, counts(&mut checks), "{}", workload.name());
            assert!(first["plan.units"] > 0.0 && first["marker.votes"] > 0.0);

            for op in Op::ALL {
                let once = || crate::count_allocs(|| op.run(&inputs, 2)).1;
                let (a, b) = (once(), once());
                assert_eq!((a.count, a.bytes), (b.count, b.bytes), "{}", op.name());
            }
            checks.check_unmarked(&inputs, 2);
            assert_eq!(
                checks.failed,
                0,
                "{}: {:?}",
                workload.name(),
                checks.failures()
            );
        }
    }
}
