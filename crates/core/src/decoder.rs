//! Watermark detection (§2.2 step 3).
//!
//! The decoder re-executes the safeguarded query set `Q` (rewriting each
//! query through a schema mapping when the suspect document was
//! reorganized — the paper's Fig. 2), extracts one vote per located value
//! node, majority-votes each watermark bit, and decides detection by
//! comparing the recovered bits against the claimed watermark under a
//! threshold τ. A sign-test false-positive probability quantifies how
//! likely the observed agreement would be for an unrelated document.

use crate::encoder::StoredQuery;
use crate::nodectx::{DomNodes, UnitMarker, UnitVotes};
use crate::wm::Watermark;
use wmx_crypto::SecretKey;
use wmx_rewrite::{rewrite::rewrite_through, SchemaMapping};
use wmx_xml::Document;
use wmx_xpath::{Evaluator, NodeRef, Query};

/// Detection parameters.
#[derive(Debug, Clone)]
pub struct DetectionInput<'a> {
    /// The safeguarded query set.
    pub queries: &'a [StoredQuery],
    /// The secret key used at embedding.
    pub key: SecretKey,
    /// The claimed watermark.
    pub watermark: Watermark,
    /// Detection threshold τ on the matched-bit fraction (e.g. 0.85).
    pub threshold: f64,
    /// Mapping to rewrite queries through when the suspect document uses
    /// a reorganized schema.
    pub mapping: Option<&'a SchemaMapping>,
}

/// Per-bit vote tally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVotes {
    /// Votes for 1.
    pub ones: usize,
    /// Votes for 0.
    pub zeros: usize,
}

impl BitVotes {
    /// Majority decision (`None` on tie or no votes).
    pub fn majority(&self) -> Option<bool> {
        match self.ones.cmp(&self.zeros) {
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Records one vote.
    pub fn add(&mut self, bit: bool) {
        if bit {
            self.ones += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Adds another tally into this one (used when merging detection
    /// results from parallel chunks).
    pub fn merge(&mut self, other: &BitVotes) {
        self.ones += other.ones;
        self.zeros += other.zeros;
    }
}

/// Detection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Queries executed.
    pub total_queries: usize,
    /// Queries that located at least one node.
    pub located_queries: usize,
    /// Queries that could not be rewritten to the target schema.
    pub unrewritable_queries: usize,
    /// Individual node votes cast.
    pub votes_cast: usize,
    /// Vote tallies per watermark bit.
    pub bit_votes: Vec<BitVotes>,
    /// Majority-recovered bits (`None` where no votes or tie).
    pub recovered: Vec<Option<bool>>,
    /// Bits with at least one vote.
    pub voted_bits: usize,
    /// Voted bits whose majority equals the claimed watermark bit.
    pub matched_bits: usize,
    /// Whether the watermark is declared detected.
    pub detected: bool,
    /// Sign-test probability of observing ≥ `matched_bits` agreements
    /// among `voted_bits` fair coin flips (the false-positive odds).
    pub p_value: f64,
    /// Per-unit/per-record tamper localization (`None` on the default
    /// detect path; populated by the opt-in forensic passes).
    pub forensics: Option<crate::forensics::ForensicsReport>,
}

impl DetectionReport {
    /// Matched fraction over voted bits (0 when nothing voted).
    pub fn match_fraction(&self) -> f64 {
        if self.voted_bits == 0 {
            0.0
        } else {
            self.matched_bits as f64 / self.voted_bits as f64
        }
    }

    /// Fraction of watermark bits that received any vote.
    pub fn coverage(&self) -> f64 {
        if self.bit_votes.is_empty() {
            0.0
        } else {
            self.voted_bits as f64 / self.bit_votes.len() as f64
        }
    }

    /// Total (ones, zeros) votes summed across all watermark bits — the
    /// raw tally telemetry reports record alongside the verdict.
    pub fn vote_totals(&self) -> (usize, usize) {
        self.bit_votes.iter().fold((0, 0), |(ones, zeros), bv| {
            (ones + bv.ones, zeros + bv.zeros)
        })
    }
}

/// Runs detection over `doc`.
pub fn detect(doc: &Document, input: &DetectionInput<'_>) -> DetectionReport {
    let _detect_span = wmx_telemetry::span("detect");
    let (bit_votes, counters) = collect_query_votes(doc, input, input.watermark.len(), None);
    report_from_votes(bit_votes, &input.watermark, input.threshold, counters)
}

/// What the query pass located for one stored query: kept in forensic
/// mode, so the forensic scan can reuse the votes of every unit it meets
/// again with the same nodes.
pub(crate) struct LocatedQuery {
    /// Index into [`DetectionInput::queries`] (the unit id and the mark).
    pub stored: usize,
    /// The nodes the query located (never empty).
    pub nodes: Vec<NodeRef>,
    /// The votes extracted from `nodes`.
    pub votes: UnitVotes,
}

/// The query-driven extraction pass shared by [`detect`] and the
/// forensic decoder: resolves and batch-answers the stored query set and
/// tallies one vote per located value node into `wm_len` bit slots
/// (`wm_len` is the *effective* watermark width — base length times the
/// redundancy factor). With `located`, each located query's nodes and
/// votes are also pushed there, in stored-query order.
pub(crate) fn collect_query_votes(
    doc: &Document,
    input: &DetectionInput<'_>,
    wm_len: usize,
    mut located: Option<&mut Vec<LocatedQuery>>,
) -> (Vec<BitVotes>, VoteCounters) {
    let marker = UnitMarker::new(input.key.clone());
    let mut bit_votes = vec![BitVotes::default(); wm_len];
    let mut located_queries = 0usize;
    let mut unrewritable = 0usize;
    let mut votes_cast = 0usize;
    // One evaluator for the whole query set: name→symbol resolutions
    // are memoized across queries (identity queries share a small
    // vocabulary), so each name is resolved once per detection run
    // instead of once per candidate node per query.
    let evaluator = Evaluator::new(doc);

    // Resolve every stored query up front, then answer whole families
    // through `batch_select`: identity queries of one (entity, attr)
    // family share their instance scan and per-candidate key-path
    // evaluation instead of repeating both per query. Non-batchable
    // queries fall back to per-query evaluation; either way the node
    // lists — and therefore every vote — are identical to the
    // query-at-a-time loop.
    // `compiled[slot]` is the resolved form of `input.queries[stored_of[slot]]`.
    let mut stored_of: Vec<usize> = Vec::with_capacity(input.queries.len());
    let mut compiled: Vec<Query> = Vec::with_capacity(input.queries.len());
    {
        let _s = wmx_telemetry::span("detect.resolve");
        for (i, stored) in input.queries.iter().enumerate() {
            match resolve_query(stored, input.mapping) {
                Ok(q) => {
                    stored_of.push(i);
                    compiled.push(q);
                }
                Err(()) => unrewritable += 1,
            }
        }
    }
    let mut batched = {
        let _s = wmx_telemetry::span("detect.select");
        wmx_xpath::batch_select(&evaluator, &compiled)
    };

    let _extract_span = wmx_telemetry::span("detect.extract");
    for (slot, &stored_idx) in stored_of.iter().enumerate() {
        let stored = &input.queries[stored_idx];
        let nodes = match batched[slot].take() {
            Some(nodes) => nodes,
            None => compiled[slot].select_with(&evaluator),
        };
        if nodes.is_empty() {
            continue;
        }
        located_queries += 1;
        // Extraction shares `UnitMarker` with the encoder and the
        // streaming engine; this path feeds it the query-located nodes.
        let votes = marker.extract_unit(
            &DomNodes::new(doc, &nodes),
            &stored.unit_id,
            stored.mark,
            wm_len,
        );
        for &bit in &votes.bits {
            votes_cast += 1;
            bit_votes[votes.bit_index].add(bit);
        }
        if let Some(located) = located.as_deref_mut() {
            located.push(LocatedQuery {
                stored: stored_idx,
                nodes,
                votes,
            });
        }
    }
    drop(_extract_span);

    (
        bit_votes,
        VoteCounters {
            total_queries: input.queries.len(),
            located_queries,
            unrewritable_queries: unrewritable,
            votes_cast,
        },
    )
}

/// Query-level counters accompanying a vote tally (how many identity
/// queries/units were executed, located, unrewritable, and how many node
/// votes they produced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteCounters {
    /// Queries (or streaming units) considered.
    pub total_queries: usize,
    /// Queries/units that located at least one node.
    pub located_queries: usize,
    /// Queries that could not be rewritten to the target schema.
    pub unrewritable_queries: usize,
    /// Individual node votes cast.
    pub votes_cast: usize,
}

/// Turns a per-bit vote tally into a full [`DetectionReport`]: majority
/// decision, matched-bit count, sign-test p-value, and the τ decision.
/// Shared by [`detect`] and the `wmx-stream` engine (which accumulates
/// `bit_votes` across record chunks before finalizing).
pub fn report_from_votes(
    bit_votes: Vec<BitVotes>,
    watermark: &Watermark,
    threshold: f64,
    counters: VoteCounters,
) -> DetectionReport {
    let recovered = bit_votes.iter().map(BitVotes::majority).collect();
    report_from_decode(bit_votes, recovered, watermark, threshold, counters)
}

/// The verdict every detection path ends in: given each bit's votes
/// and its decoded value, counts the voted bits and the decoded bits
/// that match the watermark, runs the sign test, and applies τ. The
/// plain decode passes each bit's vote majority; the redundant decode
/// passes its group-majority bits with the pooled votes.
pub(crate) fn report_from_decode(
    bit_votes: Vec<BitVotes>,
    recovered: Vec<Option<bool>>,
    watermark: &Watermark,
    threshold: f64,
    counters: VoteCounters,
) -> DetectionReport {
    let mut voted_bits = 0usize;
    let mut matched_bits = 0usize;
    for (i, (votes, r)) in bit_votes.iter().zip(&recovered).enumerate() {
        if votes.ones + votes.zeros > 0 {
            voted_bits += 1;
            if *r == Some(watermark.bit(i)) {
                matched_bits += 1;
            }
        }
    }

    let p_value = sign_test_p(voted_bits, matched_bits);
    let match_fraction = if voted_bits == 0 {
        0.0
    } else {
        matched_bits as f64 / voted_bits as f64
    };
    let detected = voted_bits > 0 && match_fraction >= threshold;

    DetectionReport {
        total_queries: counters.total_queries,
        located_queries: counters.located_queries,
        unrewritable_queries: counters.unrewritable_queries,
        votes_cast: counters.votes_cast,
        bit_votes,
        recovered,
        voted_bits,
        matched_bits,
        detected,
        p_value,
        forensics: None,
    }
}

/// Resolves a stored query: rewrite through the mapping when present
/// (logical recompile first, concrete pattern rewrite as fallback),
/// otherwise compile the stored text.
fn resolve_query(stored: &StoredQuery, mapping: Option<&SchemaMapping>) -> Result<Query, ()> {
    match mapping {
        None => Query::compile(&stored.xpath).map_err(|_| ()),
        Some(m) => {
            if let Some(logical) = &stored.logical {
                if let Ok(q) = logical.compile(&m.to) {
                    return Ok(q);
                }
            }
            let original = Query::compile(&stored.xpath).map_err(|_| ())?;
            rewrite_through(&original, m).map_err(|_| ())
        }
    }
}

/// P[X ≥ matched] for X ~ Binomial(voted, 1/2), computed in log space.
fn sign_test_p(voted: usize, matched: usize) -> f64 {
    if voted == 0 {
        return 1.0;
    }
    // ln C(n, k) via cumulative sums of logs.
    let n = voted;
    let ln2 = std::f64::consts::LN_2;
    let mut ln_fact = vec![0.0f64; n + 1];
    for i in 1..=n {
        ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
    }
    let mut p = 0.0f64;
    for k in matched..=n {
        let ln_choose = ln_fact[n] - ln_fact[k] - ln_fact[n - k];
        p += (ln_choose - n as f64 * ln2).exp();
    }
    p.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderConfig, MarkableAttr};
    use crate::encoder::embed;
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_rewrite::SchemaBinding;
    use wmx_xml::parse;

    fn doc(n: usize) -> Document {
        let mut body = String::from("<db>");
        for i in 0..n {
            body.push_str(&format!(
                "<book publisher=\"pub{}\"><title>Book {i}</title><year>{}</year></book>",
                i % 3,
                1950 + (i % 60)
            ));
        }
        body.push_str("</db>");
        parse(&body).unwrap()
    }

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
                    ("publisher", AttrBinding::Attribute("publisher".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn config(gamma: u32) -> EncoderConfig {
        EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)])
    }

    fn embed_and_report(
        n: usize,
        gamma: u32,
        key: &str,
        wm: &str,
    ) -> (Document, crate::encoder::EmbedReport, Watermark, SecretKey) {
        let mut d = doc(n);
        let key = SecretKey::from_passphrase(key);
        let wm = Watermark::parse(wm).unwrap();
        let report = embed(&mut d, &binding(), &[], &config(gamma), &key, &wm).unwrap();
        (d, report, wm, key)
    }

    #[test]
    fn detects_own_watermark_perfectly() {
        let (d, report, wm, key) = embed_and_report(300, 3, "k", "10110100");
        let detection = detect(
            &d,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: wm,
                threshold: 0.85,
                mapping: None,
            },
        );
        assert!(detection.detected);
        assert_eq!(detection.match_fraction(), 1.0);
        assert_eq!(detection.coverage(), 1.0);
        assert_eq!(detection.located_queries, report.queries.len());
        assert!(detection.p_value < 0.01);
    }

    #[test]
    fn wrong_key_fails_detection() {
        let (d, report, wm, _key) = embed_and_report(300, 3, "right", "10110100");
        let detection = detect(
            &d,
            &DetectionInput {
                queries: &report.queries,
                key: SecretKey::from_passphrase("wrong"),
                watermark: wm,
                threshold: 0.85,
                mapping: None,
            },
        );
        // Wrong key scrambles bit indices and nonces: agreement ≈ 50%.
        assert!(!detection.detected, "wrong key must not detect");
        assert!(detection.match_fraction() < 0.85);
    }

    #[test]
    fn wrong_watermark_fails_detection() {
        let (d, report, _wm, key) = embed_and_report(300, 3, "k", "10110100");
        let detection = detect(
            &d,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: Watermark::parse("01001011").unwrap(), // complement
                threshold: 0.85,
                mapping: None,
            },
        );
        assert!(!detection.detected);
        assert_eq!(detection.matched_bits, 0);
    }

    #[test]
    fn unmarked_document_fails_detection() {
        let (_, report, wm, key) = embed_and_report(300, 3, "k", "10110100");
        let clean = doc(300);
        let detection = detect(
            &clean,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: wm,
                threshold: 0.85,
                mapping: None,
            },
        );
        // Queries still locate nodes (clean data), but parities are
        // arbitrary: p_value should not be tiny AND detection at a sane
        // threshold should fail with high probability. With years from a
        // fixed distribution the parities are balanced enough.
        assert!(!detection.detected || detection.p_value > 1e-6);
    }

    #[test]
    fn majority_voting_tolerates_minority_damage() {
        let (mut d, report, wm, key) = embed_and_report(600, 2, "k", "1011");
        // Damage 10% of years by +7 (beyond tolerance, random parity).
        let years = Query::compile("/db/book/year").unwrap().select(&d);
        for (i, node) in years.iter().enumerate() {
            if i % 10 == 0 {
                let v: i64 = node.string_value(&d).parse().unwrap();
                crate::write_value(&mut d, node, &(v + 7).to_string()).unwrap();
            }
        }
        let detection = detect(
            &d,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: wm,
                threshold: 0.85,
                mapping: None,
            },
        );
        assert!(
            detection.detected,
            "10% damage should not kill a 4-bit mark"
        );
    }

    #[test]
    fn sign_test_behaviour() {
        assert_eq!(sign_test_p(0, 0), 1.0);
        assert!((sign_test_p(1, 0) - 1.0).abs() < 1e-12);
        assert!((sign_test_p(1, 1) - 0.5).abs() < 1e-12);
        assert!((sign_test_p(10, 10) - (0.5f64).powi(10)).abs() < 1e-12);
        // Monotone in matched.
        assert!(sign_test_p(100, 90) < sign_test_p(100, 60));
        // Large n stays finite and sane.
        let p = sign_test_p(5000, 2500);
        assert!(p > 0.4 && p <= 1.0);
    }

    #[test]
    fn bit_votes_majority() {
        assert_eq!(BitVotes { ones: 3, zeros: 1 }.majority(), Some(true));
        assert_eq!(BitVotes { ones: 1, zeros: 3 }.majority(), Some(false));
        assert_eq!(BitVotes { ones: 2, zeros: 2 }.majority(), None);
        assert_eq!(BitVotes::default().majority(), None);
    }

    #[test]
    fn p_value_rises_with_damage() {
        let (d, report, wm, key) = embed_and_report(600, 2, "k", "10110100");
        let p_at_damage = |fraction: f64| {
            let mut damaged = d.clone();
            let years = Query::compile("/db/book/year").unwrap().select(&damaged);
            let step = (1.0 / fraction.max(0.001)) as usize;
            for (i, node) in years.iter().enumerate() {
                if fraction > 0.0 && i % step.max(1) == 0 {
                    let v: i64 = node.string_value(&damaged).parse().unwrap();
                    crate::write_value(&mut damaged, node, &(v + 5).to_string()).unwrap();
                }
            }
            detect(
                &damaged,
                &DetectionInput {
                    queries: &report.queries,
                    key: key.clone(),
                    watermark: wm.clone(),
                    threshold: 0.85,
                    mapping: None,
                },
            )
            .p_value
        };
        let clean = p_at_damage(0.0);
        let half = p_at_damage(0.5);
        let full = p_at_damage(1.0);
        assert!(
            clean <= half,
            "p-value must not drop with damage: {clean} vs {half}"
        );
        assert!(
            half <= full,
            "p-value must not drop with damage: {half} vs {full}"
        );
        assert!(clean < 1e-2 && full > 1e-2);
    }

    #[test]
    fn coverage_reflects_missing_queries() {
        let (d, report, wm, key) = embed_and_report(400, 2, "k", "10110100");
        // Keep only a third of the queries: coverage and located counts
        // must reflect the loss while matching stays perfect.
        let subset: Vec<_> = report.queries.iter().step_by(3).cloned().collect();
        let detection = detect(
            &d,
            &DetectionInput {
                queries: &subset,
                key,
                watermark: wm,
                threshold: 0.85,
                mapping: None,
            },
        );
        assert_eq!(detection.total_queries, subset.len());
        assert_eq!(detection.located_queries, subset.len());
        assert_eq!(detection.match_fraction(), 1.0);
        assert!(
            detection.coverage() > 0.5,
            "a third of ~67 queries still covers most bits"
        );
    }

    #[test]
    fn embedding_never_touches_key_values() {
        // Invariant: identity depends on keys, so keys must be byte-identical
        // before and after embedding.
        let original = doc(300);
        let mut marked = doc(300);
        embed(
            &mut marked,
            &binding(),
            &[],
            &config(1),
            &SecretKey::from_passphrase("keys"),
            &Watermark::parse("101101").unwrap(),
        )
        .unwrap();
        let titles = |d: &Document| -> Vec<String> {
            Query::compile("/db/book/title")
                .unwrap()
                .select(d)
                .iter()
                .map(|n| n.string_value(d))
                .collect()
        };
        assert_eq!(titles(&original), titles(&marked));
    }
}
