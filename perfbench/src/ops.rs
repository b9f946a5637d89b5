//! The ten end-to-end operations and the checks on their outputs.
//!
//! Each operation is what a user of the system runs on a whole
//! document: bytes in, marked bytes or a verdict out. DOM operations
//! therefore include parse (and, for embed, serialize).

use crate::inputs::{DocCopy, Expect, Inputs, THRESHOLD};
use wmx_core::{detect, detect_forensic, embed, DetectionInput, DetectionReport, ForensicContext};
use wmx_stream::StreamDetectReport;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Dom,
    Stream,
    Par,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Dom, Engine::Stream, Engine::Par];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Dom => "dom",
            Engine::Stream => "stream",
            Engine::Par => "par",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    DomEmbed,
    StreamEmbed,
    ParEmbed,
    DomDetect,
    StreamDetect,
    ParDetect,
    DomForensic,
    StreamForensic,
    ParForensic,
    ReorgDetect,
}

impl Op {
    pub const ALL: [Op; 10] = [
        Op::DomEmbed,
        Op::StreamEmbed,
        Op::ParEmbed,
        Op::DomDetect,
        Op::StreamDetect,
        Op::ParDetect,
        Op::DomForensic,
        Op::StreamForensic,
        Op::ParForensic,
        Op::ReorgDetect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::DomEmbed => "dom_embed",
            Op::StreamEmbed => "stream_embed",
            Op::ParEmbed => "par_embed",
            Op::DomDetect => "dom_detect",
            Op::StreamDetect => "stream_detect",
            Op::ParDetect => "par_detect",
            Op::DomForensic => "dom_forensic",
            Op::StreamForensic => "stream_forensic",
            Op::ParForensic => "par_forensic",
            Op::ReorgDetect => "reorg_detect",
        }
    }

    pub fn engine(self) -> Engine {
        match self {
            Op::DomEmbed | Op::DomDetect | Op::DomForensic | Op::ReorgDetect => Engine::Dom,
            Op::StreamEmbed | Op::StreamDetect | Op::StreamForensic => Engine::Stream,
            Op::ParEmbed | Op::ParDetect | Op::ParForensic => Engine::Par,
        }
    }

    /// The documents the operation reads, in order.
    pub fn copies(self, inputs: &Inputs) -> &[DocCopy] {
        match self {
            Op::DomEmbed | Op::StreamEmbed | Op::ParEmbed => &[],
            Op::DomDetect | Op::StreamDetect | Op::ParDetect => &inputs.detect_copies,
            Op::DomForensic => &inputs.dom_forensic_copies,
            Op::StreamForensic | Op::ParForensic => &inputs.stream_forensic_copies,
            Op::ReorgDetect => &inputs.reorg_copies,
        }
    }

    /// Input bytes one call reads (the throughput numerator).
    pub fn input_bytes(self, inputs: &Inputs) -> usize {
        match self {
            Op::DomEmbed | Op::StreamEmbed | Op::ParEmbed => inputs.original.len(),
            _ => self.copies(inputs).iter().map(|c| c.text.len()).sum(),
        }
    }

    /// Runs the operation once. Only this call is timed.
    pub fn run(self, inputs: &Inputs, workers: usize) -> Output {
        match self {
            Op::DomEmbed => Output::Marked(dom_embed(inputs)),
            Op::StreamEmbed => {
                let mut out = Vec::with_capacity(inputs.original.len() + inputs.original.len() / 8);
                Output::Marked(
                    wmx_stream::stream_embed(
                        inputs.original.as_bytes(),
                        &mut out,
                        inputs.ctx(),
                        &inputs.key,
                        &inputs.watermark,
                    )
                    .map_err(|e| e.to_string())
                    .and_then(|_| String::from_utf8(out).map_err(|e| e.to_string())),
                )
            }
            Op::ParEmbed => Output::Marked(
                wmx_stream::par_embed(
                    &inputs.original,
                    workers,
                    inputs.ctx(),
                    &inputs.key,
                    &inputs.watermark,
                )
                .map(|(text, _)| text)
                .map_err(|e| e.to_string()),
            ),
            _ => Output::Verdicts(
                self.copies(inputs)
                    .iter()
                    .map(|copy| self.detect_copy(inputs, copy, workers))
                    .collect(),
            ),
        }
    }

    fn detect_copy(
        self,
        inputs: &Inputs,
        copy: &DocCopy,
        workers: usize,
    ) -> Result<Verdict, String> {
        let text = copy.text.as_str();
        let (ctx, key, wm) = (inputs.ctx(), &inputs.key, &inputs.watermark);
        match self {
            Op::DomDetect => dom_detect(inputs, text, false).map(Verdict::from_dom),
            Op::ReorgDetect => dom_detect(inputs, text, true).map(Verdict::from_dom),
            Op::DomForensic => {
                let doc = wmx_xml::parse(text).map_err(|e| e.to_string())?;
                detect_forensic(
                    &doc,
                    &detection_input(inputs, false),
                    ForensicContext {
                        binding: &inputs.dataset.binding,
                        fds: &inputs.dataset.fds,
                        config: &inputs.dataset.config,
                    },
                )
                .map(Verdict::from_dom)
                .map_err(|e| e.to_string())
            }
            Op::StreamDetect => wmx_stream::stream_detect(text.as_bytes(), ctx, key, wm, THRESHOLD)
                .map(Verdict::from_stream)
                .map_err(|e| e.to_string()),
            Op::ParDetect => wmx_stream::par_detect(text, workers, ctx, key, wm, THRESHOLD)
                .map(Verdict::from_stream)
                .map_err(|e| e.to_string()),
            Op::StreamForensic => {
                wmx_stream::stream_detect_forensic(text.as_bytes(), ctx, key, wm, THRESHOLD)
                    .map(Verdict::from_stream)
                    .map_err(|e| e.to_string())
            }
            Op::ParForensic => {
                wmx_stream::par_detect_forensic(text, workers, ctx, key, wm, THRESHOLD)
                    .map(Verdict::from_stream)
                    .map_err(|e| e.to_string())
            }
            Op::DomEmbed | Op::StreamEmbed | Op::ParEmbed => unreachable!("embed reads no copy"),
        }
    }
}

pub fn detection_input(inputs: &Inputs, through_mapping: bool) -> DetectionInput<'_> {
    DetectionInput {
        queries: &inputs.queries,
        key: inputs.key.clone(),
        watermark: inputs.watermark.clone(),
        threshold: THRESHOLD,
        mapping: through_mapping.then_some(&inputs.mapping),
    }
}

/// Parse, embed, serialize.
pub fn dom_embed(inputs: &Inputs) -> Result<String, String> {
    let mut doc = wmx_xml::parse(&inputs.original).map_err(|e| e.to_string())?;
    let ds = &inputs.dataset;
    embed(
        &mut doc,
        &ds.binding,
        &ds.fds,
        &ds.config,
        &inputs.key,
        &inputs.watermark,
    )
    .map_err(|e| e.to_string())?;
    Ok(wmx_xml::to_string(&doc))
}

/// Parse, then answer the stored queries (through the mapping if asked).
pub fn dom_detect(
    inputs: &Inputs,
    text: &str,
    through_mapping: bool,
) -> Result<DetectionReport, String> {
    let doc = wmx_xml::parse(text).map_err(|e| e.to_string())?;
    Ok(detect(&doc, &detection_input(inputs, through_mapping)))
}

/// What one operation call produced.
pub enum Output {
    Marked(Result<String, String>),
    Verdicts(Vec<Result<Verdict, String>>),
}

/// The parts of a detection report the checks read.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub detected: bool,
    pub match_frac: f64,
    /// `Some` on forensic passes.
    pub tampered: Option<bool>,
    pub suspect_records: usize,
    /// Records the stream engines read (`None` for the DOM).
    pub records: Option<usize>,
    pub truncated: bool,
    pub bit_votes: Vec<(usize, usize)>,
    /// Highest count of nodes the stream engines held at once.
    pub peak_resident_nodes: usize,
}

impl Verdict {
    pub fn from_dom(r: DetectionReport) -> Verdict {
        Verdict {
            detected: r.detected,
            match_frac: r.match_fraction(),
            tampered: r.forensics.as_ref().map(|f| f.tampered),
            suspect_records: r.forensics.as_ref().map_or(0, |f| f.suspect_records),
            records: None,
            truncated: false,
            bit_votes: r.bit_votes.iter().map(|b| (b.ones, b.zeros)).collect(),
            peak_resident_nodes: 0,
        }
    }

    pub fn from_stream(r: StreamDetectReport) -> Verdict {
        let mut v = Verdict::from_dom(r.report);
        v.records = Some(r.records);
        v.truncated = r.fault.as_ref().is_some_and(|f| f.truncated);
        v.peak_resident_nodes = r.peak_resident_nodes;
        v
    }
}

/// Tally of correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Lowest matched-bit fraction over every detection of marked data.
    pub min_match_frac: Option<f64>,
    first_failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }

    /// Checks one operation call's output against the workload's
    /// expectations.
    pub fn check_output(&mut self, op: Op, inputs: &Inputs, output: &Output) {
        match output {
            Output::Marked(result) => self.check(
                result.as_ref().is_ok_and(|text| *text == inputs.marked),
                || match result {
                    Ok(_) => format!("{}: marked bytes differ from the DOM engine's", op.name()),
                    Err(e) => format!("{}: {e}", op.name()),
                },
            ),
            Output::Verdicts(verdicts) => {
                for (copy, verdict) in op.copies(inputs).iter().zip(verdicts) {
                    match verdict {
                        Ok(v) => self.check_verdict(op, inputs, copy, v),
                        Err(e) => {
                            self.check(false, || format!("{} on {}: {e}", op.name(), copy.name))
                        }
                    }
                }
            }
        }
    }

    fn check_verdict(&mut self, op: Op, inputs: &Inputs, copy: &DocCopy, v: &Verdict) {
        let forensic = matches!(op, Op::DomForensic | Op::StreamForensic | Op::ParForensic);
        let ok = v.detected
            && match copy.expect {
                Expect::Clean => !forensic || v.tampered == Some(false),
                Expect::Tampered => {
                    !forensic
                        || (v.tampered == Some(true)
                            && v.suspect_records > 0
                            && v.suspect_records < inputs.records)
                }
                Expect::Truncated => {
                    v.truncated && v.records.is_some_and(|n| n > 0 && n < inputs.records)
                }
            };
        self.check(ok, || {
            format!("{} on {}: unexpected verdict {v:?}", op.name(), copy.name)
        });
        self.min_match_frac = Some(
            self.min_match_frac
                .map_or(v.match_frac, |m| m.min(v.match_frac)),
        );
    }

    /// The false-positive probe: the unmarked original under the owner's
    /// key must not be reported as marked, by any engine.
    pub fn check_unmarked(&mut self, inputs: &Inputs, workers: usize) {
        let text = inputs.original.as_str();
        let (ctx, key, wm) = (inputs.ctx(), &inputs.key, &inputs.watermark);
        let dom = dom_detect(inputs, text, false).map(|r| r.detected);
        let stream = wmx_stream::stream_detect(text.as_bytes(), ctx, key, wm, THRESHOLD)
            .map(|r| r.report.detected)
            .map_err(|e| e.to_string());
        let par = wmx_stream::par_detect(text, workers, ctx, key, wm, THRESHOLD)
            .map(|r| r.report.detected)
            .map_err(|e| e.to_string());
        for (engine, result) in [("dom", dom), ("stream", stream), ("par", par)] {
            self.check(result == Ok(false), || {
                format!("{engine}_detect on the unmarked original: {result:?} (expected Ok(false))")
            });
        }
    }
}
