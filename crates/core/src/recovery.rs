//! Error-correcting redundancy decode and suspect-unit repair.
//!
//! In redundancy mode ([`EncoderConfig::redundancy`] > 1) the embedded
//! watermark is the base watermark repeated `r` times, so each base bit
//! is carried by `r` disjoint unit populations ("groups"). Detection
//! decodes each base bit by majority *of group verdicts*: a locally
//! concentrated distortion that flips one whole group's votes is
//! outvoted by the untouched groups — the plain pooled majority would
//! have been swamped. Ties among group verdicts fall back to the pooled
//! per-node majority, so the decode degrades to the plain scheme, never
//! below it.
//!
//! [`EncoderConfig::redundancy`]: crate::config::EncoderConfig::redundancy

use crate::decoder::{report_from_decode, BitVotes, DetectionReport, VoteCounters};
use crate::forensics::ForensicContext;
use crate::nodectx::{DomNodes, DomNodesMut, UnitMarker};
use crate::plan::global_plan_cache;
use crate::wm::Watermark;
use crate::WmError;
use wmx_crypto::SecretKey;
use wmx_xml::Document;

/// The group-majority decode of an effective-width vote tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundantDecode {
    /// Base watermark length `L`.
    pub base_len: usize,
    /// Redundancy factor `r` (number of groups).
    pub groups: usize,
    /// Pooled per-base-bit votes (all groups merged) — what the plain
    /// scheme would have tallied.
    pub pooled: Vec<BitVotes>,
    /// Per-base-bit group verdicts (`group_verdicts[j][g]` is group `g`'s
    /// majority for base bit `j`; `None` when the group cast no votes or
    /// tied).
    pub group_verdicts: Vec<Vec<Option<bool>>>,
    /// Decoded base bits: majority of group verdicts, pooled majority on
    /// a group-verdict tie.
    pub decoded: Vec<Option<bool>>,
}

/// Decodes an effective-width tally (`base_len * redundancy` slots) into
/// base bits by group majority.
pub fn decode_redundant(
    bit_votes_eff: &[BitVotes],
    base_len: usize,
    redundancy: u32,
) -> RedundantDecode {
    let groups = redundancy.max(1) as usize;
    debug_assert_eq!(bit_votes_eff.len(), base_len * groups);
    let mut pooled = vec![BitVotes::default(); base_len];
    let mut group_verdicts = vec![Vec::with_capacity(groups); base_len];
    let mut decoded = vec![None; base_len];
    for j in 0..base_len {
        let mut yes = 0usize;
        let mut no = 0usize;
        for g in 0..groups {
            let slot = &bit_votes_eff[g * base_len + j];
            pooled[j].merge(slot);
            let verdict = slot.majority();
            match verdict {
                Some(true) => yes += 1,
                Some(false) => no += 1,
                None => {}
            }
            group_verdicts[j].push(verdict);
        }
        decoded[j] = match yes.cmp(&no) {
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Equal => pooled[j].majority(),
        };
    }
    RedundantDecode {
        base_len,
        groups,
        pooled,
        group_verdicts,
        decoded,
    }
}

/// Builds a base-width [`DetectionReport`] from a redundant decode: the
/// reported `bit_votes` are the pooled per-base-bit tallies, `recovered`
/// is the group-majority decode, and the τ decision / sign test run over
/// the decoded bits.
pub fn report_from_redundant_votes(
    decode: &RedundantDecode,
    watermark: &Watermark,
    threshold: f64,
    counters: VoteCounters,
) -> DetectionReport {
    report_from_decode(
        decode.pooled.clone(),
        decode.decoded.clone(),
        watermark,
        threshold,
        counters,
    )
}

/// Outcome of [`repair_document`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Selected units whose observed votes contradicted the expected
    /// bit (or that yielded no vote).
    pub suspect_units: usize,
    /// Suspect units whose expected bit was re-embedded.
    pub repaired_units: usize,
    /// Individual node values rewritten during repair.
    pub repaired_nodes: usize,
    /// Suspect units whose value could no longer accept the mark.
    pub unrecoverable_units: usize,
}

/// Re-embeds the expected watermark bit into every *suspect* unit of
/// `doc`, leaving clean and unselected units untouched by construction
/// (they are never rewritten, only read). The owner must supply the same
/// key/watermark/config used at embedding.
///
/// Degrades gracefully: a unit whose value can no longer carry the mark
/// is counted `unrecoverable`, never an error.
pub fn repair_document(
    doc: &mut Document,
    ctx: ForensicContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<RepairReport, WmError> {
    let _span = wmx_telemetry::span("recovery.repair");
    let plan = global_plan_cache().get_or_compile(ctx.binding, ctx.fds, ctx.config)?;
    let table = plan.table();
    let redundancy = ctx.config.redundancy.max(1) as usize;
    let eff;
    let wm_eff = if redundancy > 1 {
        eff = watermark.repeat(redundancy);
        &eff
    } else {
        watermark
    };
    let marker = UnitMarker::new(key.clone());
    let units = plan.execute(doc);
    let mut report = RepairReport::default();
    for unit in units {
        if !marker.is_selected(&unit.key.id(table), ctx.config.gamma) {
            continue;
        }
        let votes = marker.extract_unit(
            &DomNodes::new(doc, &unit.nodes),
            &unit.key.id(table),
            unit.mark,
            wm_eff.len(),
        );
        let expected = wm_eff.bit(votes.bit_index);
        let clean = !votes.bits.is_empty() && votes.bits.iter().all(|&b| b == expected);
        if clean {
            continue;
        }
        report.suspect_units += 1;
        let repaired_nodes = marker.mark_unit(
            &mut DomNodesMut::new(doc, &unit.nodes),
            &unit.key.id(table),
            unit.mark,
            wm_eff,
        )?;
        if repaired_nodes == 0 {
            report.unrecoverable_units += 1;
        } else {
            report.repaired_units += 1;
            report.repaired_nodes += repaired_nodes;
        }
    }
    wmx_telemetry::global()
        .counter("recovery.repaired_nodes")
        .add(report.repaired_nodes as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderConfig, MarkableAttr};
    use crate::decoder::{detect, DetectionInput};
    use crate::encoder::embed;
    use crate::forensics::{detect_forensic, UnitStatus};
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_rewrite::SchemaBinding;
    use wmx_xpath::Query;

    fn votes(ones: usize, zeros: usize) -> BitVotes {
        BitVotes { ones, zeros }
    }

    #[test]
    fn group_majority_overrules_one_flipped_group() {
        // L = 2, r = 3. Base bit 0 is true; group 0 was flipped hard
        // (8 zeros), groups 1 and 2 agree (3 ones each). Pooled majority
        // would say false (8 zeros vs 6 ones); group decode says true.
        let eff = vec![
            votes(0, 8), // g0 bit0 (flipped)
            votes(5, 0), // g0 bit1
            votes(3, 0), // g1 bit0
            votes(4, 0), // g1 bit1
            votes(3, 0), // g2 bit0
            votes(2, 0), // g2 bit1
        ];
        let d = decode_redundant(&eff, 2, 3);
        assert_eq!(d.decoded, vec![Some(true), Some(true)]);
        assert_eq!(d.pooled[0], votes(6, 8));
        assert_eq!(d.pooled[0].majority(), Some(false), "pooled alone fails");
        assert_eq!(
            d.group_verdicts[0],
            vec![Some(false), Some(true), Some(true)]
        );
    }

    #[test]
    fn group_verdict_tie_falls_back_to_pooled() {
        // r = 2, the two groups disagree; pooled votes break the tie.
        let eff = vec![
            votes(1, 0), // g0 bit0 -> true
            votes(0, 9), // g1 bit0 -> false, and pooled is 1:9
        ];
        let d = decode_redundant(&eff, 1, 2);
        assert_eq!(d.decoded, vec![Some(false)]);
    }

    #[test]
    fn empty_groups_do_not_vote() {
        let eff = vec![
            votes(0, 0), // g0: silent
            votes(2, 0), // g1 -> true
            votes(0, 0), // g2: silent
        ];
        let d = decode_redundant(&eff, 1, 3);
        assert_eq!(d.decoded, vec![Some(true)]);
        assert_eq!(d.group_verdicts[0], vec![None, Some(true), None]);
    }

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
        wmx_xml::parse(&body).unwrap()
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

    fn config(gamma: u32, r: u32) -> EncoderConfig {
        EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)]).with_redundancy(r)
    }

    #[test]
    fn redundant_embed_detect_roundtrip_clean() {
        let mut d = doc(400);
        let key = SecretKey::from_passphrase("r3");
        let wm = Watermark::parse("101101").unwrap();
        let cfg = config(1, 3);
        let b = binding();
        let report = embed(&mut d, &b, &[], &cfg, &key, &wm).unwrap();
        assert_eq!(report.marked_units, report.selected_units);
        let input = DetectionInput {
            queries: &report.queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.85,
            mapping: None,
        };
        let ctx = ForensicContext {
            binding: &b,
            fds: &[],
            config: &cfg,
        };
        let det = detect_forensic(&d, &input, ctx).unwrap();
        assert!(det.detected);
        assert_eq!(det.match_fraction(), 1.0);
        // The report is base-width even though embedding was 3x wide.
        assert_eq!(det.bit_votes.len(), wm.len());
        assert_eq!(
            det.recovered,
            wm.bits().iter().map(|&b| Some(b)).collect::<Vec<_>>()
        );
        assert!(!det.forensics.unwrap().tampered);
    }

    #[test]
    fn localized_damage_is_recovered_by_groups() {
        let mut d = doc(600);
        let key = SecretKey::from_passphrase("r3-damage");
        let wm = Watermark::parse("1011").unwrap();
        let cfg = config(1, 3);
        let b = binding();
        let report = embed(&mut d, &b, &[], &cfg, &key, &wm).unwrap();
        // Damage ~12% of the years (+7: beyond tolerance, parity flip).
        let years = Query::compile("/db/book/year").unwrap().select(&d);
        for (i, node) in years.iter().enumerate() {
            if i % 8 == 0 {
                let v: i64 = node.string_value(&d).parse().unwrap();
                crate::write_value(&mut d, node, &(v + 7).to_string()).unwrap();
            }
        }
        let input = DetectionInput {
            queries: &report.queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.85,
            mapping: None,
        };
        let ctx = ForensicContext {
            binding: &b,
            fds: &[],
            config: &cfg,
        };
        let det = detect_forensic(&d, &input, ctx).unwrap();
        assert!(det.detected, "12% damage must not defeat r=3");
        let f = det.forensics.unwrap();
        assert!(f.tampered);
        assert!(f.recovered_units > 0, "damaged units should be recovered");
        assert_eq!(f.unrecoverable_units, 0, "group decode should hold");
        assert_eq!(f.suspect_units, 0, "r>1 splits suspects into rec/unrec");
        // Damage is localized to altered records only.
        for unit in &f.units {
            if unit.status == UnitStatus::Recovered {
                assert!(unit.votes_against > 0);
            }
        }
    }

    #[test]
    fn repair_restores_clean_detection() {
        let mut d = doc(300);
        let key = SecretKey::from_passphrase("repair");
        let wm = Watermark::parse("10110100").unwrap();
        let cfg = config(1, 1);
        let b = binding();
        let report = embed(&mut d, &b, &[], &cfg, &key, &wm).unwrap();
        // Vandalize a handful of marked years.
        let years = Query::compile("/db/book/year").unwrap().select(&d);
        for idx in [5usize, 50, 150, 250] {
            let v: i64 = years[idx].string_value(&d).parse().unwrap();
            crate::write_value(&mut d, &years[idx], &(v + 7).to_string()).unwrap();
        }
        let ctx = ForensicContext {
            binding: &b,
            fds: &[],
            config: &cfg,
        };
        let rep = repair_document(&mut d, ctx, &key, &wm).unwrap();
        assert!(rep.suspect_units > 0 && rep.suspect_units <= 4);
        assert_eq!(rep.repaired_units, rep.suspect_units);
        assert_eq!(rep.unrecoverable_units, 0);
        // Detection is perfect again and forensics finds nothing.
        let input = DetectionInput {
            queries: &report.queries,
            key: key.clone(),
            watermark: wm.clone(),
            threshold: 0.85,
            mapping: None,
        };
        let det = detect(&d, &input);
        assert!(det.detected);
        assert_eq!(det.match_fraction(), 1.0);
        let f = detect_forensic(&d, &input, ctx).unwrap().forensics.unwrap();
        assert!(!f.tampered, "repair must leave no suspects behind");
        // Repair is idempotent: a second pass finds nothing to do.
        let again = repair_document(&mut d, ctx, &key, &wm).unwrap();
        assert_eq!(again.suspect_units, 0);
        assert_eq!(again, RepairReport::default());
    }

    #[test]
    fn repair_leaves_clean_regions_untouched() {
        let mut d = doc(200);
        let key = SecretKey::from_passphrase("repair-clean");
        let wm = Watermark::parse("1011").unwrap();
        let cfg = config(2, 1);
        let b = binding();
        embed(&mut d, &b, &[], &cfg, &key, &wm).unwrap();
        let before = wmx_xml::to_canonical_string(&d);
        let ctx = ForensicContext {
            binding: &b,
            fds: &[],
            config: &cfg,
        };
        let rep = repair_document(&mut d, ctx, &key, &wm).unwrap();
        assert_eq!(rep, RepairReport::default());
        assert_eq!(
            wmx_xml::to_canonical_string(&d),
            before,
            "repair of a clean document must be a no-op"
        );
    }
}
