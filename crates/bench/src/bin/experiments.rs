//! The WmXML experiment harness: regenerates every experiment of the
//! paper's demonstration (§4) as a parameter-swept text table.
//!
//! ```text
//! cargo run -p wmx-bench --bin experiments                    # all experiments
//! cargo run -p wmx-bench --bin experiments -- e2 e5           # a subset
//! cargo run -p wmx-bench --bin experiments -- --smoke e2 e3   # CI smoke mode
//! ```
//!
//! `--smoke` scales every workload down (~8x fewer records) so CI can
//! exercise the attack-robustness tables on every push without the
//! full-size run times; the tables are printed, not asserted.
//!
//! Experiment ids:
//!   e1  capacity & imperceptibility (demo part 1)
//!   e2  alteration attack (demo attack A)
//!   e3  reduction attack (demo attack B)
//!   e4  re-organization attack (demo attack C, Fig. 1/2)
//!   e5  redundancy removal (demo attack D, challenge C)
//!   e6  false positives / key security
//!   e8  structure units vs value units (ablation: fragility to reordering)
//!   e9  γ / τ ablation (selection density vs robustness)
//!   e10 rounding attack (documented robustness limit of parity marks)
//!   e11 streaming engine: DOM vs single-pass embed/detect (time + resident nodes)

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use wmx_attacks::redundancy::UnifyStrategy;
use wmx_attacks::{
    AlterationAttack, ReductionAttack, RedundancyRemovalAttack, ReorganizationAttack, ShuffleAttack,
};
use wmx_bench::table::{pct, yn, Table};
use wmx_bench::workloads::marked_publications;
use wmx_core::baseline::{baseline_detect, baseline_embed, BaselineConfig, BaselinePath};
use wmx_core::{
    detect, embed, measure_usability, DetectionInput, DetectionReport, EncoderConfig, MarkableAttr,
    Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications};
use wmx_rewrite::SchemaMapping;
use wmx_schema::DataType;
use wmx_xml::Document;

const THRESHOLD: f64 = 0.85;

/// Set by `--smoke`: scale workloads down for CI exercise runs.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// The effective record count: full size normally, ~8x smaller (with a
/// floor that keeps the attack statistics meaningful) under `--smoke`.
fn scaled(records: usize) -> usize {
    if SMOKE.load(Ordering::Relaxed) {
        (records / 8).max(60)
    } else {
        records
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    for arg in argv {
        match arg.as_str() {
            "--smoke" => SMOKE.store(true, Ordering::Relaxed),
            a if a.starts_with("--") => {
                eprintln!("unknown flag {a:?} (only --smoke is recognized)");
                std::process::exit(1);
            }
            _ => ids.push(arg),
        }
    }
    let all = ids.is_empty();
    let want = |id: &str| all || ids.iter().any(|a| a == id);

    println!("WmXML experiment harness (threshold τ = {THRESHOLD})");
    if SMOKE.load(Ordering::Relaxed) {
        println!("(smoke mode: workloads scaled down for CI)");
    }
    if want("e1") {
        e1_capacity_and_imperceptibility();
    }
    if want("e2") {
        e2_alteration();
    }
    if want("e3") {
        e3_reduction();
    }
    if want("e4") {
        e4_reorganization();
    }
    if want("e5") {
        e5_redundancy_removal();
    }
    if want("e6") {
        e6_false_positives();
    }
    if want("e8") {
        e8_structure_units();
    }
    if want("e9") {
        e9_gamma_tau_ablation();
    }
    if want("e10") {
        e10_rounding();
    }
    if want("e11") {
        e11_streaming();
    }
}

fn detect_marked(
    doc: &Document,
    w: &wmx_bench::MarkedWorkload,
    mapping: Option<&SchemaMapping>,
) -> DetectionReport {
    detect(
        doc,
        &DetectionInput {
            queries: &w.report.queries,
            key: w.key.clone(),
            watermark: w.watermark.clone(),
            threshold: THRESHOLD,
            mapping,
        },
    )
}

fn usability_of(doc: &Document, w: &wmx_bench::MarkedWorkload) -> f64 {
    measure_usability(
        &w.original,
        &w.dataset.binding,
        doc,
        &w.dataset.binding,
        &w.dataset.templates,
        &w.dataset.config,
    )
    .map(|u| u.overall())
    .unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// E1 — capacity utilization & imperceptibility (demo part 1)
// ---------------------------------------------------------------------
fn e1_capacity_and_imperceptibility() {
    println!("\n[E1] capacity & imperceptibility — demo part 1");
    println!("claim: \"the watermark capacity is fully utilized by WmXML, and the");
    println!("usability of XML document would not be seriously degraded\"\n");

    let mut t = Table::new(&[
        "dataset",
        "records",
        "gamma",
        "units",
        "selected",
        "marked",
        "util %",
        "usability %",
    ]);
    for gamma in [3u32, 10, 30] {
        for name in ["publications", "jobs", "library"] {
            let (dataset, records) = match name {
                "publications" => (
                    publications::generate(&publications::PublicationsConfig {
                        records: scaled(1000),
                        editors: 20,
                        seed: 1,
                        gamma,
                    }),
                    scaled(1000),
                ),
                "jobs" => (
                    jobs::generate(&jobs::JobsConfig {
                        records: scaled(1000),
                        companies: 25,
                        seed: 2,
                        gamma,
                    }),
                    scaled(1000),
                ),
                _ => (
                    library::generate(&library::LibraryConfig {
                        records: scaled(400),
                        image_size: 12,
                        seed: 3,
                        gamma,
                    }),
                    scaled(400),
                ),
            };
            let key = SecretKey::from_passphrase("e1");
            let wm = Watermark::from_message("e1", 24);
            let mut marked = dataset.doc.clone();
            let report = embed(
                &mut marked,
                &dataset.binding,
                &dataset.fds,
                &dataset.config,
                &key,
                &wm,
            )
            .expect("embed");
            let usability = measure_usability(
                &dataset.doc,
                &dataset.binding,
                &marked,
                &dataset.binding,
                &dataset.templates,
                &dataset.config,
            )
            .map(|u| u.overall())
            .unwrap_or(0.0);
            t.row(vec![
                name.into(),
                records.to_string(),
                gamma.to_string(),
                report.total_units.to_string(),
                report.selected_units.to_string(),
                report.marked_units.to_string(),
                pct(report.capacity_utilization()),
                pct(usability),
            ]);
        }
    }
    t.print();

    // Challenge (A) companion: the value-identified baseline collapses
    // duplicated values into shared units, losing bandwidth.
    println!("\n[E1b] bandwidth: WmXML key-identified vs value-identified baseline");
    let mut t = Table::new(&[
        "records",
        "value nodes",
        "wmxml units",
        "baseline units",
        "collapse %",
    ]);
    for records in [250usize, 500, 1000, 2000].map(scaled) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records,
            editors: 20,
            seed: 4,
            gamma: 1,
        });
        // WmXML units over year only (to compare like with like).
        let cfg = EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)]);
        let units = wmx_core::SelectionPlan::compile(&dataset.binding, &[], &cfg)
            .expect("plan compiles")
            .execute(&dataset.doc)
            .len();
        let mut scratch = dataset.doc.clone();
        let baseline = baseline_embed(
            &mut scratch,
            &BaselineConfig {
                paths: vec![BaselinePath {
                    path: "//year".into(),
                    data_type: DataType::Integer,
                }],
                gamma: 1,
            },
            &SecretKey::from_passphrase("e1b"),
            &Watermark::from_message("e1b", 24),
        )
        .expect("baseline embed");
        t.row(vec![
            records.to_string(),
            baseline.total_nodes.to_string(),
            units.to_string(),
            baseline.total_units.to_string(),
            pct(baseline.collapse_fraction()),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E2 — alteration attack (demo attack A)
// ---------------------------------------------------------------------
fn e2_alteration() {
    println!("\n[E2] alteration attack (A) — perturb values beyond tolerance");
    println!("claim: the watermark dies only after usability dies\n");
    let w = marked_publications(scaled(1000), 20, 2, 10);
    let mut t = Table::new(&["alpha", "detected", "match %", "voted bits", "usability %"]);
    for alpha in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let mut attacked = w.marked.clone();
        AlterationAttack::values(
            alpha,
            vec!["//book/year".into()],
            100 + (alpha * 10.0) as u64,
        )
        .apply(&mut attacked);
        let d = detect_marked(&attacked, &w, None);
        t.row(vec![
            format!("{alpha:.1}"),
            yn(d.detected),
            pct(d.match_fraction()),
            d.voted_bits.to_string(),
            pct(usability_of(&attacked, &w)),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E3 — reduction attack (demo attack B)
// ---------------------------------------------------------------------
fn e3_reduction() {
    println!("\n[E3] reduction attack (B) — keep a random subset of records");
    println!("claim: detection survives subsetting; completeness usability falls\n");
    let w = marked_publications(scaled(1000), 20, 2, 20);
    let mut t = Table::new(&[
        "keep",
        "detected",
        "match %",
        "coverage %",
        "located queries",
        "usability %",
    ]);
    for keep in [1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.02] {
        let mut attacked = w.marked.clone();
        ReductionAttack::new(keep, "/db/book", 200).apply(&mut attacked);
        let d = detect_marked(&attacked, &w, None);
        t.row(vec![
            format!("{keep:.2}"),
            yn(d.detected),
            pct(d.match_fraction()),
            pct(d.coverage()),
            format!("{}/{}", d.located_queries, d.total_queries),
            pct(usability_of(&attacked, &w)),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E4 — re-organization attack (demo attack C; Fig. 1 + Fig. 2)
// ---------------------------------------------------------------------
fn e4_reorganization() {
    println!("\n[E4] re-organization attack (C) — db1.xml -> db2.xml + shuffle");
    println!("claim: rewriting recovers the mark; physical identification fails\n");
    let w = marked_publications(scaled(600), 15, 2, 30);

    // Baseline marks a separate copy.
    let mut baseline_marked = w.original.clone();
    let baseline_report = baseline_embed(
        &mut baseline_marked,
        &BaselineConfig {
            paths: vec![BaselinePath {
                path: "//year".into(),
                data_type: DataType::Integer,
            }],
            gamma: 2,
        },
        &w.key,
        &w.watermark,
    )
    .expect("baseline embed");

    let attack = ReorganizationAttack::new("book", "db", publications::db2_layout());
    let mut reorganized = attack.apply(&w.marked, &w.dataset.binding).expect("reorg");
    ShuffleAttack::new(300).apply(&mut reorganized);
    let mut baseline_reorganized = attack
        .apply(&baseline_marked, &w.dataset.binding)
        .expect("reorg");
    ShuffleAttack::new(300).apply(&mut baseline_reorganized);

    let mapping = SchemaMapping::new(w.dataset.binding.clone(), publications::db2_binding())
        .expect("mapping");
    let with = detect_marked(&reorganized, &w, Some(&mapping));
    let without = detect_marked(&reorganized, &w, None);
    let baseline = baseline_detect(
        &baseline_reorganized,
        &baseline_report.queries,
        &w.key,
        &w.watermark,
        THRESHOLD,
    );

    let usability = measure_usability(
        &w.original,
        &w.dataset.binding,
        &reorganized,
        &publications::db2_binding(),
        &[
            wmx_core::QueryTemplate::new("who-wrote", "book", "author"),
            wmx_core::QueryTemplate::new("published-when", "book", "year"),
            wmx_core::QueryTemplate::new("published-by", "book", "publisher"),
        ],
        &w.dataset.config,
    )
    .map(|u| u.overall())
    .unwrap_or(0.0);
    println!(
        "usability of reorganized copy (shared attributes): {} %",
        pct(usability)
    );

    let mut t = Table::new(&["scheme", "detected", "match %", "located queries"]);
    t.row(vec![
        "WmXML + rewriting".into(),
        yn(with.detected),
        pct(with.match_fraction()),
        format!("{}/{}", with.located_queries, with.total_queries),
    ]);
    t.row(vec![
        "WmXML, no rewriting".into(),
        yn(without.detected),
        pct(without.match_fraction()),
        format!("{}/{}", without.located_queries, without.total_queries),
    ]);
    t.row(vec![
        "value-identified baseline".into(),
        yn(baseline.detected),
        pct(baseline.match_fraction()),
        format!("{}/{}", baseline.located_queries, baseline.total_queries),
    ]);
    t.print();
}

// ---------------------------------------------------------------------
// E5 — redundancy removal (demo attack D; challenge C)
// ---------------------------------------------------------------------
fn e5_redundancy_removal() {
    println!("\n[E5] redundancy-removal attack (D) — unify FD duplicates");
    println!("claim: FD-aware marks survive; FD-unaware marks are erased with");
    println!("zero usability cost\n");

    let mut t = Table::new(&[
        "scheme",
        "dupes unified",
        "detected",
        "match %",
        "usability %",
    ]);
    for (label, fd_aware) in [("WmXML (FD groups)", true), ("FD-unaware ablation", false)] {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: scaled(800),
            editors: 12,
            seed: 50,
            gamma: 1,
        });
        let config = {
            let c = EncoderConfig::new(1, vec![MarkableAttr::text("book", "publisher")]);
            if fd_aware {
                c
            } else {
                c.without_fd_groups()
            }
        };
        let key = SecretKey::from_passphrase("e5");
        let wm = Watermark::from_message("e5", 16);
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &config,
            &key,
            &wm,
        )
        .expect("embed");
        let mut attacked = marked.clone();
        let unified =
            RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
                .apply(&mut attacked);
        let d = detect(
            &attacked,
            &DetectionInput {
                queries: &report.queries,
                key,
                watermark: wm,
                threshold: THRESHOLD,
                mapping: None,
            },
        );
        let usability = measure_usability(
            &dataset.doc,
            &dataset.binding,
            &attacked,
            &dataset.binding,
            &dataset.templates,
            &config,
        )
        .map(|u| u.overall())
        .unwrap_or(0.0);
        t.row(vec![
            label.into(),
            unified.to_string(),
            yn(d.detected),
            pct(d.match_fraction()),
            pct(usability),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E6 — false positives / key security
// ---------------------------------------------------------------------
fn e6_false_positives() {
    println!("\n[E6] false positives — wrong keys, wrong marks, unmarked data");
    println!("claim: only the correct secret key + watermark detect\n");
    let w = marked_publications(scaled(800), 16, 2, 60);

    // 100 wrong keys (20 in smoke mode).
    let trials = if SMOKE.load(Ordering::Relaxed) {
        20
    } else {
        100
    };
    let mut fractions = Vec::new();
    let mut detections = 0usize;
    for i in 0..trials {
        let d = detect(
            &w.marked,
            &DetectionInput {
                queries: &w.report.queries,
                key: SecretKey::from_passphrase(&format!("wrong-key-{i}")),
                watermark: w.watermark.clone(),
                threshold: THRESHOLD,
                mapping: None,
            },
        );
        fractions.push(d.match_fraction());
        if d.detected {
            detections += 1;
        }
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let max = fractions.iter().cloned().fold(0.0f64, f64::max);

    let right = detect_marked(&w.marked, &w, None);
    let wrong_wm = detect(
        &w.marked,
        &DetectionInput {
            queries: &w.report.queries,
            key: w.key.clone(),
            watermark: Watermark::from_message("not the mark", 24),
            threshold: THRESHOLD,
            mapping: None,
        },
    );
    let unmarked = detect_marked(&w.original, &w, None);

    let mut t = Table::new(&["attempt", "detected", "match %", "p-value"]);
    t.row(vec![
        "correct key + mark".into(),
        yn(right.detected),
        pct(right.match_fraction()),
        format!("{:.2e}", right.p_value),
    ]);
    t.row(vec![
        "correct key, wrong mark".into(),
        yn(wrong_wm.detected),
        pct(wrong_wm.match_fraction()),
        format!("{:.2e}", wrong_wm.p_value),
    ]);
    t.row(vec![
        "unmarked original".into(),
        yn(unmarked.detected),
        pct(unmarked.match_fraction()),
        format!("{:.2e}", unmarked.p_value),
    ]);
    t.row(vec![
        format!("{trials} wrong keys (mean)"),
        format!("{detections}/{trials}"),
        pct(mean),
        "-".into(),
    ]);
    t.row(vec![
        format!("{trials} wrong keys (max)"),
        "-".into(),
        pct(max),
        "-".into(),
    ]);
    t.print();
}

// ---------------------------------------------------------------------
// E8 — structure units vs value units (the paper: "both the data
// elements and structures ... could contain bandwidth for watermarking")
// ---------------------------------------------------------------------
fn e8_structure_units() {
    println!("\n[E8] structure units vs value units under element reordering");
    println!("claim: order marks add zero-perturbation bandwidth but are erased");
    println!("by sibling reordering; value marks survive it\n");

    let dataset = publications::generate(&publications::PublicationsConfig {
        records: scaled(600),
        editors: 12,
        seed: 80,
        gamma: 1,
    });
    let key = SecretKey::from_passphrase("e8");
    let wm = Watermark::from_message("e8", 16);

    let mut t = Table::new(&[
        "unit family",
        "units",
        "marked",
        "detect (no attack)",
        "detect (shuffle)",
        "match % (shuffle)",
    ]);
    for (label, value_units, order_units) in [
        ("value only (year)", true, false),
        ("order only (authors)", false, true),
        ("both", true, true),
    ] {
        let mut config = EncoderConfig::new(
            1,
            if value_units {
                vec![MarkableAttr::integer("book", "year", 1)]
            } else {
                vec![]
            },
        );
        if order_units {
            config = config.with_structural("book", "author");
        }
        let mut marked = dataset.doc.clone();
        let report = embed(&mut marked, &dataset.binding, &[], &config, &key, &wm).expect("embed");

        let run = |doc: &Document| {
            detect(
                doc,
                &DetectionInput {
                    queries: &report.queries,
                    key: key.clone(),
                    watermark: wm.clone(),
                    threshold: THRESHOLD,
                    mapping: None,
                },
            )
        };
        let clean = run(&marked);
        let mut shuffled = marked.clone();
        ShuffleAttack::new(81).apply(&mut shuffled);
        let after = run(&shuffled);

        t.row(vec![
            label.into(),
            report.total_units.to_string(),
            report.marked_units.to_string(),
            yn(clean.detected),
            yn(after.detected),
            pct(after.match_fraction()),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E9 — γ / τ ablation: selection density vs robustness to alteration
// ---------------------------------------------------------------------
fn e9_gamma_tau_ablation() {
    println!("\n[E9] gamma/tau ablation — marks per bit vs robustness to a fixed");
    println!("30% alteration attack (more marks per bit -> stronger majority)\n");

    let mut t = Table::new(&[
        "gamma",
        "marked units",
        "marks per bit",
        "match %",
        "det @ t=0.75",
        "det @ t=0.85",
        "det @ t=0.95",
    ]);
    for gamma in [1u32, 2, 4, 8, 16, 32] {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: scaled(800),
            editors: 16,
            seed: 90,
            gamma,
        });
        let config = EncoderConfig::new(gamma, vec![MarkableAttr::integer("book", "year", 1)]);
        let key = SecretKey::from_passphrase("e9");
        let wm = Watermark::from_message("e9", 16);
        let mut marked = dataset.doc.clone();
        let report = embed(&mut marked, &dataset.binding, &[], &config, &key, &wm).expect("embed");

        let mut attacked = marked.clone();
        AlterationAttack::values(0.30, vec!["//book/year".into()], 91).apply(&mut attacked);

        let run = |threshold: f64| {
            detect(
                &attacked,
                &DetectionInput {
                    queries: &report.queries,
                    key: key.clone(),
                    watermark: wm.clone(),
                    threshold,
                    mapping: None,
                },
            )
        };
        let d = run(0.85);
        t.row(vec![
            gamma.to_string(),
            report.marked_units.to_string(),
            format!("{:.1}", report.marked_units as f64 / wm.len() as f64),
            pct(d.match_fraction()),
            yn(run(0.75).detected),
            yn(d.detected),
            yn(run(0.95).detected),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E10 — rounding attack: an honest robustness limit of parity marks
// ---------------------------------------------------------------------
fn e10_rounding() {
    println!("\n[E10] rounding attack — snap numerics to multiples of 2");
    println!("limit: rounding moves every value by <= 1 (inside the owner's own");
    println!("tolerance) and zeroes every parity: numeric value marks are erased");
    println!("at negligible usability cost. Other families are unaffected; mixing");
    println!("families preserves detection.\n");

    let dataset = publications::generate(&publications::PublicationsConfig {
        records: scaled(600),
        editors: 12,
        seed: 100,
        gamma: 1,
    });
    let key = SecretKey::from_passphrase("e10");
    let wm = Watermark::from_message("e10", 16);

    let mut t = Table::new(&[
        "unit family",
        "detect (clean)",
        "detect (rounded)",
        "match % (rounded)",
        "usability %",
    ]);
    for (label, numeric, text_units, order_units) in [
        ("numeric (year) only", true, false, false),
        ("text (publisher FD) only", false, true, false),
        ("order (authors) only", false, false, true),
        ("all families", true, true, true),
    ] {
        let mut markable = vec![];
        if numeric {
            markable.push(MarkableAttr::integer("book", "year", 1));
        }
        if text_units {
            markable.push(MarkableAttr::text("book", "publisher"));
        }
        let mut config = EncoderConfig::new(1, markable);
        if order_units {
            config = config.with_structural("book", "author");
        }
        let mut marked = dataset.doc.clone();
        let report = embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &config,
            &key,
            &wm,
        )
        .expect("embed");

        let run = |doc: &Document| {
            detect(
                doc,
                &DetectionInput {
                    queries: &report.queries,
                    key: key.clone(),
                    watermark: wm.clone(),
                    threshold: THRESHOLD,
                    mapping: None,
                },
            )
        };
        let clean = run(&marked);
        let mut rounded = marked.clone();
        wmx_attacks::RoundingAttack::new(2, vec!["//book/year".into()]).apply(&mut rounded);
        let after = run(&rounded);
        let usability = measure_usability(
            &dataset.doc,
            &dataset.binding,
            &rounded,
            &dataset.binding,
            &dataset.templates,
            &config,
        )
        .map(|u| u.overall())
        .unwrap_or(0.0);

        t.row(vec![
            label.into(),
            yn(clean.detected),
            yn(after.detected),
            pct(after.match_fraction()),
            pct(usability),
        ]);
    }
    t.print();
    println!("\nmitigations (not in the 2005 paper): embed into a keyed digit");
    println!("position within a wider tolerance, or rely on the text/image/order");
    println!("families, which rounding cannot reach.");
}

// ---------------------------------------------------------------------
// E11 — streaming engine: DOM vs single-pass embed/detect
// ---------------------------------------------------------------------
fn e11_streaming() {
    println!("\n[E11] streaming engine — DOM vs single-pass (wmx-stream)");
    println!("claim: byte-identical output with O(one record) resident nodes and");
    println!("parallel record chunking; detection needs no safeguarded query file\n");

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let mut t = Table::new(&[
        "records",
        "doc KB",
        "dom embed ms",
        "stream ms",
        &format!("par×{workers} ms"),
        "dom nodes",
        "stream nodes",
        "bytes equal",
        "detect equal",
    ]);
    let sizes: &[usize] = if SMOKE.load(Ordering::Relaxed) {
        &[200, 500]
    } else {
        &[500, 2000, 4000]
    };
    for &records in sizes {
        let w = wmx_bench::streaming_publications(records, records / 50 + 2, 3, 110);
        let kb = w.input.len() / 1024;

        let start = Instant::now();
        let mut dom = wmx_xml::parse(&w.input).expect("parse");
        let dom_nodes = dom.arena_len();
        let dom_report = embed(
            &mut dom,
            &w.dataset.binding,
            &w.dataset.fds,
            &w.dataset.config,
            &w.key,
            &w.watermark,
        )
        .expect("embed");
        let dom_out = wmx_xml::to_string(&dom);
        let dom_ms = start.elapsed().as_secs_f64() * 1000.0;

        let start = Instant::now();
        let mut stream_out = Vec::with_capacity(w.input.len());
        let stream_report = wmx_stream::stream_embed(
            w.input.as_bytes(),
            &mut stream_out,
            w.ctx(),
            &w.key,
            &w.watermark,
        )
        .expect("stream embed");
        let stream_ms = start.elapsed().as_secs_f64() * 1000.0;

        let start = Instant::now();
        let (par_out, _) = wmx_stream::par_embed(&w.input, workers, w.ctx(), &w.key, &w.watermark)
            .expect("parallel embed");
        let par_ms = start.elapsed().as_secs_f64() * 1000.0;

        let bytes_equal = dom_out.as_bytes() == stream_out.as_slice() && dom_out == par_out;

        let dom_detect = detect(
            &dom,
            &DetectionInput {
                queries: &dom_report.queries,
                key: w.key.clone(),
                watermark: w.watermark.clone(),
                threshold: THRESHOLD,
                mapping: None,
            },
        );
        let stream_detect =
            wmx_stream::par_detect(&dom_out, workers, w.ctx(), &w.key, &w.watermark, THRESHOLD)
                .expect("stream detect");
        let detect_equal = dom_detect.detected == stream_detect.report.detected
            && (dom_detect.match_fraction() - stream_detect.report.match_fraction()).abs() < 1e-12;

        t.row(vec![
            records.to_string(),
            kb.to_string(),
            format!("{dom_ms:.1}"),
            format!("{stream_ms:.1}"),
            format!("{par_ms:.1}"),
            dom_nodes.to_string(),
            stream_report.peak_resident_nodes.to_string(),
            yn(bytes_equal),
            yn(detect_equal),
        ]);
    }
    t.print();
}
