//! Subcommand implementations.

use crate::args::Args;
use crate::obs::Obs;
use crate::profile::{resolve, PROFILE_NAMES};
use crate::queryfile;
use std::fs;
use std::io::{BufReader, BufWriter};
use wmx_attacks::redundancy::UnifyStrategy;
use wmx_attacks::{AlterationAttack, ReductionAttack, RedundancyRemovalAttack, ShuffleAttack};
use wmx_core::{
    detect, detect_forensic, embed, measure_usability, DetectionInput, ForensicContext,
    ForensicsReport, UnitStatus, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications};
use wmx_stream::DetectMode;
use wmx_telemetry::{span, AuditEvent};
use wmx_xml::{parse, to_pretty_string};

/// Runs a parsed command; returns the process exit code.
pub fn run(args: &Args) -> Result<i32, String> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "embed" => cmd_embed(args),
        "detect" => cmd_detect(args),
        "stream-embed" => cmd_stream_embed(args),
        "stream-detect" => cmd_stream_detect(args),
        "attack" => cmd_attack(args),
        "validate" => cmd_validate(args),
        "validate-telemetry" => cmd_validate_telemetry(args),
        "inspect" => cmd_inspect(args),
        "help" | "--help" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The usage text.
pub fn usage() -> String {
    format!(
        "wmxml — WmXML watermarking system (VLDB 2005 reproduction)

USAGE: wmxml <command> [--flag value ...]

COMMANDS
  generate  --profile P --records N [--seed S] --out FILE
            synthesize a dataset document
  embed     --profile P --in FILE --key K --message M [--bits N]
            [--gamma G] [--redundancy R] --out FILE --queries FILE
            watermark a document; writes the marked XML and the query
            set; --redundancy R embeds each bit into R disjoint unit
            groups for error-correcting recovery (detect with the same R)
  detect    --in FILE --key K --message M [--bits N] [--threshold T]
            --queries FILE [--forensics [json] --profile P
            [--gamma G] [--redundancy R]]
            detect the watermark (exit 0 = detected, 2 = not detected,
            3 = detected but tampered); --forensics re-derives the
            marked units from the profile and localizes tampering to
            records (bare flag = summary, `--forensics json` = the full
            per-unit report)
  stream-embed
            --profile P --in FILE --key K --message M [--bits N]
            [--gamma G] [--redundancy R] [--workers W]
            --out FILE --queries FILE
            single-pass streaming embed in bounded memory at every
            --workers value (W > 1 processes record batches on W
            threads); output bytes are identical to the DOM engine's
            compact serialization
  stream-detect
            --profile P --in FILE --key K --message M [--bits N]
            [--gamma G] [--redundancy R] [--threshold T] [--workers W]
            [--forensics [json]]
            single-pass detection without a query file (the key + profile
            re-derive the marked units); exit codes as for detect; with
            --forensics a truncated or garbled stream yields a partial
            verdict over the salvaged records instead of an error
  attack    --in FILE --kind alteration|reduction|shuffle|redundancy
            [--intensity X] [--seed S] [--profile P] --out FILE
            apply a demo attack
  validate  --profile P --in FILE
            validate against the profile schema, keys, and FDs
  validate-telemetry
            --in FILE [--audit FILE]
            check a --telemetry-json snapshot (and optionally an
            --audit-log file) against the telemetry schemas
            (exit 0 = valid, 2 = invalid)
  inspect   --in FILE
            print document statistics

OBSERVABILITY (embed, detect, stream-embed, stream-detect)
  --telemetry-json FILE   write a schema-versioned metrics snapshot
  --audit-log FILE        append one JSON line per invocation (workload,
                          per-phase timings, vote totals, verdict)
  --trace                 pretty-print the span tree after the run

PROFILES: {}",
        PROFILE_NAMES.join(", ")
    )
}

fn read_doc(path: &str) -> Result<wmx_xml::Document, String> {
    let _s = span("parse");
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

fn load_profile(args: &Args) -> Result<crate::profile::Profile, String> {
    let name = args.required("profile").map_err(|e| e.to_string())?;
    resolve(name).ok_or_else(|| {
        format!(
            "unknown profile {name:?}; available: {}",
            PROFILE_NAMES.join(", ")
        )
    })
}

/// The encoder configuration the embed/detect commands share: the
/// profile's defaults with the `--gamma` and `--redundancy` overrides
/// applied. Redundancy widens the effective watermark, so the same
/// value must be passed to embedding and (forensic) detection.
fn encoder_config(
    args: &Args,
    profile: &crate::profile::Profile,
) -> Result<wmx_core::EncoderConfig, String> {
    let mut config = profile.config.clone();
    config.gamma = args
        .parsed_or("gamma", config.gamma)
        .map_err(|e| e.to_string())?;
    let redundancy: u32 = args
        .parsed_or("redundancy", config.redundancy)
        .map_err(|e| e.to_string())?;
    if redundancy == 0 {
        return Err("--redundancy must be at least 1".to_string());
    }
    Ok(config.with_redundancy(redundancy))
}

/// How `--forensics` was requested on a detect command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForensicsMode {
    /// Flag absent: plain detection, no localization pass.
    Off,
    /// Bare `--forensics`: human-readable suspect-record summary.
    Summary,
    /// `--forensics json`: the full forensics report as JSON.
    Json,
}

fn forensics_mode(args: &Args) -> Result<ForensicsMode, String> {
    match args.optional("forensics") {
        None => Ok(ForensicsMode::Off),
        // A bare flag parses as the literal "true".
        Some("true") | Some("summary") => Ok(ForensicsMode::Summary),
        Some("json") => Ok(ForensicsMode::Json),
        Some(other) => Err(format!(
            "unknown --forensics mode {other:?}; use a bare --forensics for a summary or --forensics json"
        )),
    }
}

/// Renders the localization report: full JSON in `Json` mode, otherwise
/// a tally line plus the first flagged records.
fn print_forensics(f: &ForensicsReport, mode: ForensicsMode) {
    if mode == ForensicsMode::Json {
        println!("{}", f.to_json().to_pretty_string());
        return;
    }
    println!(
        "forensics: {} unit(s), {} selected: {} clean, {} suspect, {} recovered, {} unrecoverable",
        f.total_units,
        f.selected_units,
        f.clean_units,
        f.suspect_units,
        f.recovered_units,
        f.unrecoverable_units
    );
    println!("suspect records: {}/{}", f.suspect_records, f.records.len());
    let flagged: Vec<_> = f
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.status,
                UnitStatus::Suspect | UnitStatus::Recovered | UnitStatus::Unrecoverable
            )
        })
        .collect();
    for r in flagged.iter().take(10) {
        println!(
            "  {} [{}]: {}/{} selected unit(s) suspect, {} recovered",
            r.record,
            r.status.label(),
            r.suspect_units,
            r.selected_units,
            r.recovered_units
        );
    }
    if flagged.len() > 10 {
        println!("  … and {} more flagged record(s)", flagged.len() - 10);
    }
}

/// Appends the forensic tallies to an audit event's `counts`.
fn forensic_counts(counts: &mut Vec<(String, u64)>, f: &ForensicsReport) {
    counts.push((
        "suspect_units".to_string(),
        (f.suspect_units + f.unrecoverable_units) as u64,
    ));
    counts.push(("suspect_records".to_string(), f.suspect_records as u64));
    counts.push(("recovered_units".to_string(), f.recovered_units as u64));
}

fn watermark_from(args: &Args) -> Result<Watermark, String> {
    let message = args.required("message").map_err(|e| e.to_string())?;
    let bits: usize = args.parsed_or("bits", 24).map_err(|e| e.to_string())?;
    if bits == 0 {
        return Err("--bits must be positive".to_string());
    }
    Ok(Watermark::from_message(message, bits))
}

fn cmd_generate(args: &Args) -> Result<i32, String> {
    let profile = args.required("profile").map_err(|e| e.to_string())?;
    let records: usize = args.parsed_or("records", 200).map_err(|e| e.to_string())?;
    let seed: u64 = args.parsed_or("seed", 2005).map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let doc = match profile {
        "publications" => {
            publications::generate(&publications::PublicationsConfig {
                records,
                editors: (records / 20).max(2),
                seed,
                gamma: 3,
            })
            .doc
        }
        "jobs" => {
            jobs::generate(&jobs::JobsConfig {
                records,
                companies: (records / 25).max(2),
                seed,
                gamma: 3,
            })
            .doc
        }
        "library" => {
            library::generate(&library::LibraryConfig {
                records,
                image_size: 16,
                seed,
                gamma: 2,
            })
            .doc
        }
        other => return Err(format!("unknown profile {other:?}")),
    };
    write_file(out, &to_pretty_string(&doc))?;
    println!("wrote {records} {profile} records to {out}");
    Ok(0)
}

fn cmd_embed(args: &Args) -> Result<i32, String> {
    let profile = load_profile(args)?;
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let out_path = args.required("out").map_err(|e| e.to_string())?;
    let queries_path = args.required("queries").map_err(|e| e.to_string())?;
    let key = SecretKey::from_passphrase(args.required("key").map_err(|e| e.to_string())?);
    let watermark = watermark_from(args)?;
    let obs = Obs::from_args(args);
    obs.begin();

    let original = read_doc(in_path)?;
    let config = encoder_config(args, &profile)?;

    let issues = wmx_schema::validate(&original, &profile.schema);
    if !issues.is_empty() {
        eprintln!(
            "warning: document has {} schema issue(s); first:",
            issues.len()
        );
        eprintln!("  {}", issues[0]);
    }

    let mut marked = original.clone();
    let report = embed(
        &mut marked,
        &profile.binding,
        &profile.fds,
        &config,
        &key,
        &watermark,
    )
    .map_err(|e| format!("embedding failed: {e}"))?;

    let usability = measure_usability(
        &original,
        &profile.binding,
        &marked,
        &profile.binding,
        &profile.templates,
        &config,
    )
    .map_err(|e| format!("usability check failed: {e}"))?;

    {
        let _s = span("serialize");
        write_file(out_path, &to_pretty_string(&marked))?;
    }
    write_file(queries_path, &queryfile::to_string(&report.queries))?;
    obs.finish(AuditEvent {
        operation: "embed".to_string(),
        engine: "dom".to_string(),
        workload: in_path.to_string(),
        records: None,
        phases: Vec::new(),
        counts: vec![
            ("total_units".to_string(), report.total_units as u64),
            ("selected_units".to_string(), report.selected_units as u64),
            ("marked_units".to_string(), report.marked_units as u64),
            ("marked_nodes".to_string(), report.marked_nodes as u64),
        ],
        detected: None,
        p_value: None,
    })?;
    println!(
        "embedded {} marks across {} units (γ={}, utilization {:.1}%)",
        report.marked_units,
        report.total_units,
        config.gamma,
        100.0 * report.capacity_utilization()
    );
    println!(
        "usability after embedding: {:.1}%",
        100.0 * usability.overall()
    );
    println!("marked document: {out_path}");
    println!("query set (keep with your key!): {queries_path}");
    Ok(0)
}

fn cmd_detect(args: &Args) -> Result<i32, String> {
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let queries_path = args.required("queries").map_err(|e| e.to_string())?;
    let key = SecretKey::from_passphrase(args.required("key").map_err(|e| e.to_string())?);
    let watermark = watermark_from(args)?;
    let threshold: f64 = args
        .parsed_or("threshold", 0.85)
        .map_err(|e| e.to_string())?;
    let mode = forensics_mode(args)?;
    if mode == ForensicsMode::Off && args.optional("redundancy").is_some() {
        return Err(
            "--redundancy on detect requires --forensics (the group decode runs on the forensic path)"
                .to_string(),
        );
    }
    let obs = Obs::from_args(args);
    obs.begin();

    let doc = read_doc(in_path)?;
    let queries_text =
        fs::read_to_string(queries_path).map_err(|e| format!("cannot read {queries_path}: {e}"))?;
    let queries = queryfile::from_string(&queries_text).map_err(|e| e.to_string())?;

    let input = DetectionInput {
        queries: &queries,
        key,
        watermark,
        threshold,
        mapping: None,
    };
    let report = if mode == ForensicsMode::Off {
        detect(&doc, &input)
    } else {
        // Localization re-derives the marked units from the schema
        // binding, so the forensic path needs the profile the document
        // was embedded under.
        let profile = load_profile(args)
            .map_err(|e| format!("--forensics re-derives the marked units from a profile: {e}"))?;
        let config = encoder_config(args, &profile)?;
        detect_forensic(
            &doc,
            &input,
            ForensicContext {
                binding: &profile.binding,
                fds: &profile.fds,
                config: &config,
            },
        )
        .map_err(|e| format!("forensic detection failed: {e}"))?
    };
    let (votes_ones, votes_zeros) = report.vote_totals();
    let mut counts = vec![
        ("total_queries".to_string(), report.total_queries as u64),
        ("located_queries".to_string(), report.located_queries as u64),
        ("votes_cast".to_string(), report.votes_cast as u64),
        ("votes_ones".to_string(), votes_ones as u64),
        ("votes_zeros".to_string(), votes_zeros as u64),
        ("matched_bits".to_string(), report.matched_bits as u64),
        ("voted_bits".to_string(), report.voted_bits as u64),
    ];
    if let Some(f) = &report.forensics {
        forensic_counts(&mut counts, f);
    }
    obs.finish(AuditEvent {
        operation: "detect".to_string(),
        engine: "dom".to_string(),
        workload: in_path.to_string(),
        records: None,
        phases: Vec::new(),
        counts,
        detected: Some(report.detected),
        p_value: Some(report.p_value),
    })?;
    println!(
        "queries located: {}/{}; bits matched {}/{} ({:.1}%); p-value {:.2e}",
        report.located_queries,
        report.total_queries,
        report.matched_bits,
        report.voted_bits,
        100.0 * report.match_fraction(),
        report.p_value
    );
    if let Some(f) = &report.forensics {
        print_forensics(f, mode);
    }
    let tampered = report.forensics.as_ref().is_some_and(|f| f.tampered);
    if report.detected && tampered {
        println!("WATERMARK DETECTED but TAMPERED (τ = {threshold})");
        Ok(3)
    } else if report.detected {
        println!("WATERMARK DETECTED (τ = {threshold})");
        Ok(0)
    } else {
        println!("watermark NOT detected (τ = {threshold})");
        Ok(2)
    }
}

fn cmd_stream_embed(args: &Args) -> Result<i32, String> {
    let profile = load_profile(args)?;
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let out_path = args.required("out").map_err(|e| e.to_string())?;
    let queries_path = args.required("queries").map_err(|e| e.to_string())?;
    let key = SecretKey::from_passphrase(args.required("key").map_err(|e| e.to_string())?);
    let watermark = watermark_from(args)?;
    let workers: usize = args.parsed_or("workers", 1).map_err(|e| e.to_string())?;
    let obs = Obs::from_args(args);
    obs.begin();

    let config = encoder_config(args, &profile)?;
    let ctx = wmx_stream::StreamContext {
        binding: &profile.binding,
        fds: &profile.fds,
        config: &config,
    };

    let embed_span = span("stream_embed");
    // Stream into a sibling temp file and rename on success, so a failed
    // run never clobbers an existing output file.
    let tmp_path = format!("{out_path}.tmp");
    let input = fs::File::open(in_path).map_err(|e| format!("cannot read {in_path}: {e}"))?;
    let output =
        fs::File::create(&tmp_path).map_err(|e| format!("cannot write {tmp_path}: {e}"))?;
    let (input, output) = (BufReader::new(input), BufWriter::new(output));
    let report = wmx_stream::embed(input, output, workers, ctx, &key, &watermark).map_err(|e| {
        let _ = fs::remove_file(&tmp_path);
        format!("streaming embed failed: {e}")
    })?;
    fs::rename(&tmp_path, out_path)
        .map_err(|e| format!("cannot move {tmp_path} to {out_path}: {e}"))?;
    drop(embed_span);

    write_file(queries_path, &queryfile::to_string(&report.report.queries))?;
    obs.finish(AuditEvent {
        operation: "stream-embed".to_string(),
        engine: if workers > 1 { "parallel" } else { "stream" }.to_string(),
        workload: in_path.to_string(),
        records: Some(report.records as u64),
        phases: Vec::new(),
        counts: vec![
            ("total_units".to_string(), report.report.total_units as u64),
            (
                "marked_units".to_string(),
                report.report.marked_units as u64,
            ),
            (
                "chunks".to_string(),
                report.chunk_summary().map_or(0, |s| s.chunks as u64),
            ),
        ],
        detected: None,
        p_value: None,
    })?;
    println!(
        "stream-embedded {} marks across {} units in {} records (γ={}, workers {workers})",
        report.report.marked_units, report.report.total_units, report.records, config.gamma,
    );
    println!(
        "peak resident nodes: {} (one record at a time)",
        report.peak_resident_nodes
    );
    println!("marked document: {out_path}");
    println!("query set (keep with your key!): {queries_path}");
    Ok(0)
}

fn cmd_stream_detect(args: &Args) -> Result<i32, String> {
    let profile = load_profile(args)?;
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let key = SecretKey::from_passphrase(args.required("key").map_err(|e| e.to_string())?);
    let watermark = watermark_from(args)?;
    let threshold: f64 = args
        .parsed_or("threshold", 0.85)
        .map_err(|e| e.to_string())?;
    let workers: usize = args.parsed_or("workers", 1).map_err(|e| e.to_string())?;
    let mode = forensics_mode(args)?;
    let obs = Obs::from_args(args);
    obs.begin();

    let config = encoder_config(args, &profile)?;
    let ctx = wmx_stream::StreamContext {
        binding: &profile.binding,
        fds: &profile.fds,
        config: &config,
    };

    let detect_span = span("stream_detect");
    let input = fs::File::open(in_path).map_err(|e| format!("cannot read {in_path}: {e}"))?;
    let input = BufReader::new(input);
    let on_damage = match mode {
        ForensicsMode::Off => DetectMode::Strict,
        ForensicsMode::Summary | ForensicsMode::Json => DetectMode::Forensic,
    };
    let detection = wmx_stream::detect(input, workers, on_damage, ctx, &key, &watermark, threshold)
        .map_err(|e| format!("streaming detect failed: {e}"))?;
    drop(detect_span);

    let report = &detection.report;
    let (votes_ones, votes_zeros) = report.vote_totals();
    let mut counts = vec![
        ("total_units".to_string(), report.total_queries as u64),
        ("located_units".to_string(), report.located_queries as u64),
        ("votes_cast".to_string(), report.votes_cast as u64),
        ("votes_ones".to_string(), votes_ones as u64),
        ("votes_zeros".to_string(), votes_zeros as u64),
        (
            "chunks".to_string(),
            detection.chunk_summary().map_or(0, |s| s.chunks as u64),
        ),
    ];
    if let Some(f) = &report.forensics {
        forensic_counts(&mut counts, f);
    }
    if let Some(fault) = &detection.fault {
        counts.push((
            "skipped_records".to_string(),
            fault.skipped_records.len() as u64,
        ));
    }
    obs.finish(AuditEvent {
        operation: "stream-detect".to_string(),
        engine: if workers > 1 { "parallel" } else { "stream" }.to_string(),
        workload: in_path.to_string(),
        records: Some(detection.records as u64),
        phases: Vec::new(),
        counts,
        detected: Some(report.detected),
        p_value: Some(report.p_value),
    })?;
    if let Some(summary) = detection.chunk_summary() {
        println!(
            "chunks: {} ({} records; {}µs min / {}µs mean / {}µs max)",
            summary.chunks,
            summary.records,
            summary.min_micros,
            summary.mean_micros(),
            summary.max_micros
        );
    }
    println!(
        "units voted: {}/{} across {} records; bits matched {}/{} ({:.1}%); p-value {:.2e}",
        report.located_queries,
        report.total_queries,
        detection.records,
        report.matched_bits,
        report.voted_bits,
        100.0 * report.match_fraction(),
        report.p_value
    );
    if let Some(fault) = &detection.fault {
        if fault.truncated {
            println!(
                "stream fault: stream broke after {} record(s) ({}); verdict covers the salvaged prefix",
                fault.records_processed, fault.error
            );
        } else {
            println!(
                "stream fault: {} record(s) skipped ({})",
                fault.skipped_records.len(),
                fault.error
            );
        }
    }
    if let Some(f) = &report.forensics {
        print_forensics(f, mode);
    }
    // A stream fault is tampering evidence even when the salvaged
    // prefix itself is clean (the rest of the stream is gone).
    let tampered =
        report.forensics.as_ref().is_some_and(|f| f.tampered) || detection.fault.is_some();
    if report.detected && tampered {
        println!("WATERMARK DETECTED but TAMPERED (τ = {threshold})");
        Ok(3)
    } else if report.detected {
        println!("WATERMARK DETECTED (τ = {threshold})");
        Ok(0)
    } else {
        println!("watermark NOT detected (τ = {threshold})");
        Ok(2)
    }
}

fn cmd_attack(args: &Args) -> Result<i32, String> {
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let out_path = args.required("out").map_err(|e| e.to_string())?;
    let kind = args.required("kind").map_err(|e| e.to_string())?;
    let intensity: f64 = args
        .parsed_or("intensity", 0.3)
        .map_err(|e| e.to_string())?;
    let seed: u64 = args.parsed_or("seed", 7).map_err(|e| e.to_string())?;

    let mut doc = read_doc(in_path)?;
    let touched = match kind {
        "alteration" => AlterationAttack::values(
            intensity,
            vec!["//*[not(*)]".to_string()], // all leaf elements
            seed,
        )
        .apply(&mut doc),
        "reduction" => {
            // Reduce the root's child records.
            let root_name = doc
                .root_element()
                .and_then(|r| doc.name(r))
                .unwrap_or("db")
                .to_string();
            let record_path = format!("/{root_name}/*");
            ReductionAttack::new(intensity, &record_path, seed).apply(&mut doc)
        }
        "shuffle" => ShuffleAttack::new(seed).apply(&mut doc),
        "redundancy" => {
            let profile = load_profile(args)?;
            RedundancyRemovalAttack::new(profile.fds, UnifyStrategy::MajorityValue).apply(&mut doc)
        }
        other => {
            return Err(format!(
                "unknown attack kind {other:?}; use alteration|reduction|shuffle|redundancy"
            ))
        }
    };
    write_file(out_path, &to_pretty_string(&doc))?;
    println!("attack {kind} touched {touched} node(s); wrote {out_path}");
    Ok(0)
}

fn cmd_validate(args: &Args) -> Result<i32, String> {
    let profile = load_profile(args)?;
    let doc = read_doc(args.required("in").map_err(|e| e.to_string())?)?;
    let issues = wmx_schema::validate(&doc, &profile.schema);
    for issue in &issues {
        println!("schema: {issue}");
    }
    let mut violations = 0usize;
    for key in &profile.keys {
        for v in key.verify(&doc) {
            println!("key: {v}");
            violations += 1;
        }
    }
    for fd in &profile.fds {
        for v in fd.verify(&doc) {
            println!("fd: {v}");
            violations += 1;
        }
    }
    if issues.is_empty() && violations == 0 {
        println!("document is valid under profile {}", profile.name);
        Ok(0)
    } else {
        println!(
            "{} schema issue(s), {} key/FD violation(s)",
            issues.len(),
            violations
        );
        Ok(2)
    }
}

fn cmd_validate_telemetry(args: &Args) -> Result<i32, String> {
    let in_path = args.required("in").map_err(|e| e.to_string())?;
    let text = fs::read_to_string(in_path).map_err(|e| format!("cannot read {in_path}: {e}"))?;
    let mut problems = 0usize;
    match wmx_telemetry::Json::parse(&text) {
        Ok(snapshot) => match wmx_telemetry::validate_snapshot(&snapshot) {
            Ok(()) => println!("snapshot {in_path}: valid (schema v1)"),
            Err(e) => {
                println!("snapshot {in_path}: INVALID — {e}");
                problems += 1;
            }
        },
        Err(e) => {
            println!("snapshot {in_path}: INVALID — not JSON: {e}");
            problems += 1;
        }
    }
    if let Some(audit_path) = args.optional("audit") {
        let text =
            fs::read_to_string(audit_path).map_err(|e| format!("cannot read {audit_path}: {e}"))?;
        let mut lines = 0usize;
        for (idx, line) in text.lines().enumerate() {
            lines += 1;
            if let Err(e) = wmx_telemetry::validate_audit_line(line) {
                println!("audit {audit_path}:{}: INVALID — {e}", idx + 1);
                problems += 1;
            }
        }
        if lines == 0 {
            println!("audit {audit_path}: INVALID — no audit lines");
            problems += 1;
        } else if problems == 0 {
            println!("audit {audit_path}: {lines} valid line(s) (schema v1)");
        }
    }
    Ok(if problems == 0 { 0 } else { 2 })
}

fn cmd_inspect(args: &Args) -> Result<i32, String> {
    let doc = read_doc(args.required("in").map_err(|e| e.to_string())?)?;
    let root = doc.root_element();
    println!(
        "root element: {}",
        root.and_then(|r| doc.name(r)).unwrap_or("(none)")
    );
    println!("elements: {}", doc.element_count());
    if let Some(root) = root {
        let mut by_name: std::collections::BTreeMap<String, usize> = Default::default();
        for e in doc.descendant_elements(root) {
            *by_name
                .entry(doc.name(e).unwrap_or("?").to_string())
                .or_default() += 1;
        }
        let mut entries: Vec<_> = by_name.into_iter().collect();
        entries.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        for (name, count) in entries.into_iter().take(12) {
            println!("  <{name}>: {count}");
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("wmxml-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn end_to_end_generate_embed_detect() {
        let db = tmp("db.xml");
        let marked = tmp("marked.xml");
        let queries = tmp("q.wmxq");

        assert_eq!(
            run(&args(&[
                "generate",
                "--profile",
                "publications",
                "--records",
                "120",
                "--out",
                &db
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            run(&args(&[
                "embed",
                "--profile",
                "publications",
                "--in",
                &db,
                "--key",
                "cli-secret",
                "--message",
                "© cli",
                "--out",
                &marked,
                "--queries",
                &queries
            ]))
            .unwrap(),
            0
        );
        // Correct key detects.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "cli-secret",
                "--message",
                "© cli",
                "--queries",
                &queries
            ]))
            .unwrap(),
            0
        );
        // Wrong key does not (exit code 2).
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "oops",
                "--message",
                "© cli",
                "--queries",
                &queries
            ]))
            .unwrap(),
            2
        );
    }

    #[test]
    fn attack_then_detect_roundtrip() {
        let db = tmp("db2.xml");
        let marked = tmp("marked2.xml");
        let queries = tmp("q2.wmxq");
        let attacked = tmp("attacked2.xml");

        run(&args(&[
            "generate",
            "--profile",
            "jobs",
            "--records",
            "200",
            "--out",
            &db,
        ]))
        .unwrap();
        run(&args(&[
            "embed",
            "--profile",
            "jobs",
            "--in",
            &db,
            "--key",
            "k",
            "--message",
            "m",
            "--out",
            &marked,
            "--queries",
            &queries,
        ]))
        .unwrap();
        assert_eq!(
            run(&args(&[
                "attack", "--in", &marked, "--kind", "shuffle", "--out", &attacked
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &attacked,
                "--key",
                "k",
                "--message",
                "m",
                "--queries",
                &queries
            ]))
            .unwrap(),
            0,
            "shuffle must not defeat detection"
        );
    }

    #[test]
    fn validate_generated_documents() {
        let db = tmp("db3.xml");
        run(&args(&[
            "generate",
            "--profile",
            "library",
            "--records",
            "30",
            "--out",
            &db,
        ]))
        .unwrap();
        assert_eq!(
            run(&args(&["validate", "--profile", "library", "--in", &db])).unwrap(),
            0
        );
        assert_eq!(run(&args(&["inspect", "--in", &db])).unwrap(), 0);
    }

    #[test]
    fn stream_embed_detect_roundtrip_and_dom_interop() {
        let db = tmp("sdb.xml");
        let marked1 = tmp("smarked1.xml");
        let marked4 = tmp("smarked4.xml");
        let queries = tmp("sq.wmxq");

        run(&args(&[
            "generate",
            "--profile",
            "publications",
            "--records",
            "150",
            "--out",
            &db,
        ]))
        .unwrap();
        // Sequential (bounded-memory) and parallel paths agree byte-wise.
        assert_eq!(
            run(&args(&[
                "stream-embed",
                "--profile",
                "publications",
                "--in",
                &db,
                "--key",
                "stream-secret",
                "--message",
                "© stream",
                "--out",
                &marked1,
                "--queries",
                &queries,
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            run(&args(&[
                "stream-embed",
                "--profile",
                "publications",
                "--in",
                &db,
                "--key",
                "stream-secret",
                "--message",
                "© stream",
                "--workers",
                "4",
                "--out",
                &marked4,
                "--queries",
                &tmp("sq4.wmxq"),
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            fs::read_to_string(&marked1).unwrap(),
            fs::read_to_string(&marked4).unwrap()
        );
        // A failing parallel embed streams too: it never clobbers an
        // existing output file.
        let truncated = tmp("struncated.xml");
        let full = fs::read_to_string(&db).unwrap();
        fs::write(&truncated, &full.as_bytes()[..full.len() * 2 / 3]).unwrap();
        let before = fs::read(&marked4).unwrap();
        let err = run(&args(&[
            "stream-embed",
            "--profile",
            "publications",
            "--in",
            &truncated,
            "--key",
            "stream-secret",
            "--message",
            "© stream",
            "--workers",
            "4",
            "--out",
            &marked4,
            "--queries",
            &tmp("sq4t.wmxq"),
        ]))
        .unwrap_err();
        assert!(err.contains("streaming embed failed"), "{err}");
        assert_eq!(fs::read(&marked4).unwrap(), before);
        assert!(!std::path::Path::new(&format!("{marked4}.tmp")).exists());
        // Streaming detection needs no query file.
        assert_eq!(
            run(&args(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                &marked1,
                "--key",
                "stream-secret",
                "--message",
                "© stream",
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            run(&args(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                &marked1,
                "--key",
                "wrong",
                "--message",
                "© stream",
            ]))
            .unwrap(),
            2
        );
        // The stream-produced query set drives the DOM decoder too.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked1,
                "--key",
                "stream-secret",
                "--message",
                "© stream",
                "--queries",
                &queries,
            ]))
            .unwrap(),
            0
        );
    }

    #[test]
    fn telemetry_flags_emit_validated_snapshot_and_audit_lines() {
        let db = tmp("obs-db.xml");
        let marked = tmp("obs-marked.xml");
        let queries = tmp("obs-q.wmxq");
        let snapshot = tmp("obs-telemetry.json");
        let audit = tmp("obs-audit.jsonl");
        let _ = fs::remove_file(&audit); // append mode: start clean

        run(&args(&[
            "generate",
            "--profile",
            "publications",
            "--records",
            "80",
            "--out",
            &db,
        ]))
        .unwrap();
        assert_eq!(
            run(&args(&[
                "embed",
                "--profile",
                "publications",
                "--in",
                &db,
                "--key",
                "obs-secret",
                "--message",
                "© obs",
                "--out",
                &marked,
                "--queries",
                &queries,
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            0
        );
        // Detected verdict, with snapshot + audit + trace all on.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "obs-secret",
                "--message",
                "© obs",
                "--queries",
                &queries,
                "--telemetry-json",
                &snapshot,
                "--audit-log",
                &audit,
                "--trace",
            ]))
            .unwrap(),
            0
        );
        // Not-detected verdict must also append a valid audit line.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "wrong-key",
                "--message",
                "© obs",
                "--queries",
                &queries,
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            2
        );
        // Streaming detect rides the same flags.
        assert_eq!(
            run(&args(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                &marked,
                "--key",
                "obs-secret",
                "--message",
                "© obs",
                "--workers",
                "2",
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            0
        );

        // The snapshot validates and carries the warmed catalog: phase
        // spans, plan-cache counters, and chunk histograms are all
        // present even though this invocation only ran a DOM detect.
        let text = fs::read_to_string(&snapshot).unwrap();
        let parsed = wmx_telemetry::Json::parse(&text).unwrap();
        wmx_telemetry::validate_snapshot(&parsed).unwrap();
        let counters = parsed.get("counters").unwrap();
        for name in crate::obs::COUNTER_CATALOG {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        let histograms = parsed.get("histograms").unwrap();
        for name in crate::obs::HISTOGRAM_CATALOG {
            assert!(histograms.get(name).is_some(), "missing histogram {name}");
        }
        // The detect that wrote this snapshot actually timed its phases.
        for phase in ["span.parse", "span.detect", "span.detect.select"] {
            let count = histograms
                .get(phase)
                .and_then(|h| h.get("count"))
                .and_then(wmx_telemetry::Json::as_usize)
                .unwrap();
            assert!(count > 0, "{phase} recorded no observations");
        }

        // Audit log: one line per invocation, both verdict outcomes.
        let audit_text = fs::read_to_string(&audit).unwrap();
        let lines: Vec<&str> = audit_text.lines().collect();
        assert_eq!(lines.len(), 4, "one audit line per invocation");
        for line in &lines {
            wmx_telemetry::validate_audit_line(line).unwrap();
        }
        let verdicts: Vec<Option<bool>> = lines
            .iter()
            .map(|l| {
                wmx_telemetry::Json::parse(l)
                    .unwrap()
                    .get("detected")
                    .and_then(wmx_telemetry::Json::as_bool)
            })
            .collect();
        assert_eq!(verdicts, [None, Some(true), Some(false), Some(true)]);
        // Detect lines carry vote totals and phase timings.
        let detect_line = wmx_telemetry::Json::parse(lines[1]).unwrap();
        assert!(detect_line
            .get("counts")
            .and_then(|c| c.get("votes_ones"))
            .and_then(wmx_telemetry::Json::as_usize)
            .is_some_and(|v| v > 0));
        assert!(matches!(
            detect_line.get("phases"),
            Some(wmx_telemetry::Json::Object(phases)) if !phases.is_empty()
        ));

        // The validator subcommand agrees, and flags corruption.
        assert_eq!(
            run(&args(&[
                "validate-telemetry",
                "--in",
                &snapshot,
                "--audit",
                &audit
            ]))
            .unwrap(),
            0
        );
        let bad = tmp("obs-bad.json");
        fs::write(&bad, "{\"schema_version\": 99}").unwrap();
        assert_eq!(
            run(&args(&["validate-telemetry", "--in", &bad])).unwrap(),
            2
        );
        assert!(run(&args(&[
            "validate-telemetry",
            "--in",
            &tmp("obs-missing.json")
        ]))
        .is_err());
    }

    /// Bumps every `every`-th `//book/year` by 7 (a parity flip) and
    /// writes the damaged document to `out` — localized tampering that
    /// leaves the watermark detectable.
    fn bump_years(marked: &str, every: usize, out: &str) {
        let mut doc = parse(&fs::read_to_string(marked).unwrap()).unwrap();
        let years = wmx_xpath::Query::compile("//book/year")
            .unwrap()
            .select(&doc);
        assert!(!years.is_empty());
        for (i, node) in years.iter().enumerate() {
            if !i.is_multiple_of(every) {
                continue;
            }
            let year: i64 = node.string_value(&doc).trim().parse().unwrap();
            wmx_core::write_value(&mut doc, node, &(year + 7).to_string()).unwrap();
        }
        fs::write(out, to_pretty_string(&doc)).unwrap();
    }

    fn audit_count(line: &str, name: &str) -> usize {
        wmx_telemetry::Json::parse(line)
            .unwrap()
            .get("counts")
            .and_then(|c| c.get(name))
            .and_then(wmx_telemetry::Json::as_usize)
            .unwrap_or_else(|| panic!("audit line missing count {name}"))
    }

    #[test]
    fn forensics_flag_localizes_tampering_and_sets_exit_code_3() {
        let db = tmp("fx-db.xml");
        let marked = tmp("fx-marked.xml");
        let queries = tmp("fx-q.wmxq");
        let tampered = tmp("fx-tampered.xml");
        let audit = tmp("fx-audit.jsonl");
        let _ = fs::remove_file(&audit);

        run(&args(&[
            "generate",
            "--profile",
            "publications",
            "--records",
            "120",
            "--out",
            &db,
        ]))
        .unwrap();
        run(&args(&[
            "embed",
            "--profile",
            "publications",
            "--in",
            &db,
            "--key",
            "fx-secret",
            "--message",
            "© fx",
            "--out",
            &marked,
            "--queries",
            &queries,
        ]))
        .unwrap();
        bump_years(&marked, 8, &tampered);

        // A clean document stays exit 0 even with forensics on.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "fx-secret",
                "--message",
                "© fx",
                "--queries",
                &queries,
                "--forensics",
                "--profile",
                "publications",
            ]))
            .unwrap(),
            0
        );
        // The tampered one is still detected, but flagged: exit 3.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &tampered,
                "--key",
                "fx-secret",
                "--message",
                "© fx",
                "--queries",
                &queries,
                "--forensics",
                "--profile",
                "publications",
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            3
        );
        // JSON mode and the parallel streaming engine agree on the verdict.
        assert_eq!(
            run(&args(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                &tampered,
                "--key",
                "fx-secret",
                "--message",
                "© fx",
                "--workers",
                "2",
                "--forensics",
                "json",
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            3
        );
        // Without --forensics the same document collapses to plain exit 0:
        // the distortion is too small to defeat majority voting.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &tampered,
                "--key",
                "fx-secret",
                "--message",
                "© fx",
                "--queries",
                &queries,
            ]))
            .unwrap(),
            0
        );
        // --redundancy on detect only means something on the forensic path.
        assert!(run(&args(&[
            "detect",
            "--in",
            &tampered,
            "--key",
            "fx-secret",
            "--message",
            "© fx",
            "--queries",
            &queries,
            "--redundancy",
            "3",
        ]))
        .is_err());
        // Unknown --forensics modes are rejected.
        assert!(run(&args(&[
            "detect",
            "--in",
            &tampered,
            "--key",
            "fx-secret",
            "--message",
            "© fx",
            "--queries",
            &queries,
            "--forensics",
            "yaml",
            "--profile",
            "publications",
        ]))
        .is_err());

        // Both audit lines carry the suspect tallies, and the DOM and
        // stream engines agree on them.
        let audit_text = fs::read_to_string(&audit).unwrap();
        let lines: Vec<&str> = audit_text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            wmx_telemetry::validate_audit_line(line).unwrap();
            assert!(audit_count(line, "suspect_records") > 0);
            assert!(audit_count(line, "suspect_units") > 0);
            assert_eq!(audit_count(line, "recovered_units"), 0);
        }
        assert_eq!(
            audit_count(lines[0], "suspect_records"),
            audit_count(lines[1], "suspect_records")
        );
        assert_eq!(
            audit_count(lines[0], "suspect_units"),
            audit_count(lines[1], "suspect_units")
        );
    }

    #[test]
    fn redundancy_roundtrip_recovers_damage_via_cli() {
        let db = tmp("rx-db.xml");
        let marked = tmp("rx-marked.xml");
        let queries = tmp("rx-q.wmxq");
        let tampered = tmp("rx-tampered.xml");
        let audit = tmp("rx-audit.jsonl");
        let _ = fs::remove_file(&audit);

        run(&args(&[
            "generate",
            "--profile",
            "publications",
            "--records",
            "120",
            "--out",
            &db,
        ]))
        .unwrap();
        run(&args(&[
            "embed",
            "--profile",
            "publications",
            "--in",
            &db,
            "--key",
            "rx-secret",
            "--message",
            "rx",
            "--bits",
            "8",
            "--redundancy",
            "3",
            "--out",
            &marked,
            "--queries",
            &queries,
        ]))
        .unwrap();

        // Clean detection works on both engines when R matches.
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &marked,
                "--key",
                "rx-secret",
                "--message",
                "rx",
                "--bits",
                "8",
                "--queries",
                &queries,
            ]))
            .unwrap(),
            0
        );
        assert_eq!(
            run(&args(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                &marked,
                "--key",
                "rx-secret",
                "--message",
                "rx",
                "--bits",
                "8",
                "--redundancy",
                "3",
            ]))
            .unwrap(),
            0
        );

        // Thin damage is localized AND recovered by the group decode.
        bump_years(&marked, 10, &tampered);
        assert_eq!(
            run(&args(&[
                "detect",
                "--in",
                &tampered,
                "--key",
                "rx-secret",
                "--message",
                "rx",
                "--bits",
                "8",
                "--queries",
                &queries,
                "--forensics",
                "--profile",
                "publications",
                "--redundancy",
                "3",
                "--audit-log",
                &audit,
            ]))
            .unwrap(),
            3
        );
        let audit_text = fs::read_to_string(&audit).unwrap();
        let line = audit_text.lines().next().unwrap();
        assert!(audit_count(line, "recovered_units") > 0);

        // --redundancy 0 is rejected up front.
        assert!(run(&args(&[
            "embed",
            "--profile",
            "publications",
            "--in",
            &db,
            "--key",
            "rx-secret",
            "--message",
            "rx",
            "--redundancy",
            "0",
            "--out",
            &marked,
            "--queries",
            &queries,
        ]))
        .is_err());
    }

    #[test]
    fn unknown_command_and_profile_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[
            "generate",
            "--profile",
            "nope",
            "--records",
            "1",
            "--out",
            "/tmp/x.xml"
        ]))
        .is_err());
    }
}
