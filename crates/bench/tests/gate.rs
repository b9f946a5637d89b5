//! End-to-end tests for the regression gate: report emission, baseline
//! comparison, and the exit-code contract, on a tiny deterministic
//! suite so debug-mode CI stays fast.

use std::path::PathBuf;
use wmx_bench::{
    baseline_from_report, run_gate, run_suite, Baseline, BenchReport, GateOptions, SuiteParams,
};

fn tiny(workload: &str) -> SuiteParams {
    SuiteParams {
        workload: workload.into(),
        records: 60,
        editors: 6,
        gamma: 2,
        seed: 11,
        iters: 1,
        warmup: 0,
        workers: 2,
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmx-gate-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn suite_robustness_is_deterministic_and_roundtrips() {
    let params = tiny("det");
    let r1 = run_suite(&params);
    let r2 = run_suite(&params);
    // Fixed seeds: the whole attack grid reproduces bit-for-bit.
    assert_eq!(r1.robustness, r2.robustness);
    assert!(!r1.robustness.is_empty());

    // So does the forensic-scenario grid, one stat per scenario.
    assert_eq!(r1.forensics, r2.forensics);
    assert_eq!(r1.forensics.len(), 4);

    // And the demonstration-claim rows, one per pinned claim point.
    assert_eq!(r1.claims, r2.claims);
    assert_eq!(r1.claims.len(), wmx_bench::experiments::CLAIM_POINTS.len());

    let parsed = BenchReport::from_json_str(&r1.to_json_string()).expect("roundtrip");
    assert_eq!(parsed.robustness, r1.robustness);
    assert_eq!(parsed.claims, r1.claims);
    assert_eq!(parsed.context, r1.context);

    // The streaming stats carry the wmx-stream telemetry: resident-node
    // high-water mark and per-chunk timings (one sequential chunk, up
    // to `workers` parallel chunks).
    let stat = |name: &str| {
        r1.throughput
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("missing throughput stat {name}"))
    };
    assert!(stat("stream_embed").peak_resident_nodes.unwrap() > 0);
    assert_eq!(stat("stream_embed").chunk_ms.len(), 1);
    assert_eq!(stat("stream_detect").chunk_ms.len(), 1);
    assert_eq!(stat("par_embed").chunk_ms.len(), params.workers);
    assert_eq!(stat("par_detect").chunk_ms.len(), params.workers);
    assert!(stat("embed").peak_resident_nodes.is_none());
    assert!(stat("embed").records_per_s > 0.0);
}

#[test]
fn gate_exit_codes_cover_refresh_pass_regression_and_errors() {
    let dir = scratch_dir("codes");
    let baseline_path = dir.join("baseline.json");
    let mut opts = GateOptions {
        params: tiny("gatetest"),
        out_dir: dir.clone(),
        baseline_path: Some(baseline_path.clone()),
        write_baseline: true,
        skip_compare: false,
    };

    // --write-baseline refreshes and exits 0.
    let outcome = run_gate(&opts).expect("refresh run");
    assert_eq!(outcome.exit_code, 0);
    assert!(outcome.comparison.is_none());
    assert!(outcome.report_path.ends_with("BENCH_gatetest.json"));
    assert!(outcome.forensics_path.ends_with("FORENSICS_gatetest.json"));
    assert!(outcome.forensics_path.exists());
    assert!(baseline_path.exists());

    // A clean compare against the just-written baseline passes. The
    // re-run is timed afresh, so its throughput floors are scaled down
    // first (as the MISSING step below does) to keep timing noise from
    // failing the step; robustness and forensic metrics stay exact.
    opts.write_baseline = false;
    let fresh = Baseline::load(&baseline_path).unwrap();
    let mut scaled = fresh.clone();
    for m in &mut scaled.metrics {
        if m.name.starts_with("throughput/") {
            m.value /= 1000.0;
        }
    }
    scaled.save(&baseline_path).unwrap();
    let outcome = run_gate(&opts).expect("compare run");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.summary);
    assert!(outcome.comparison.as_ref().unwrap().passed());

    // Artificially inflating a pinned throughput metric makes the same
    // tree look regressed: exit 2.
    let mut inflated = fresh;
    for m in &mut inflated.metrics {
        if m.name == "throughput/embed/records_per_s" {
            m.value *= 1000.0;
        }
    }
    inflated.save(&baseline_path).unwrap();
    let outcome = run_gate(&opts).expect("regressed run");
    assert_eq!(outcome.exit_code, 2);
    assert!(outcome.summary.contains("REGRESSED"));

    // A pinned metric the report no longer produces also fails.
    let mut missing = Baseline::load(&baseline_path).unwrap();
    for m in &mut missing.metrics {
        if m.name == "throughput/embed/records_per_s" {
            m.value /= 1000.0;
            m.name = "throughput/vanished/records_per_s".into();
        }
    }
    missing.save(&baseline_path).unwrap();
    let outcome = run_gate(&opts).expect("missing-metric run");
    assert_eq!(outcome.exit_code, 2);
    assert!(outcome.summary.contains("MISSING"));

    // An unreadable baseline is an operational error (exit 1 in the
    // binary), not a gate verdict.
    opts.baseline_path = Some(dir.join("does-not-exist.json"));
    assert!(run_gate(&opts).is_err());

    // A baseline for a different workload is rejected.
    let report = run_suite(&tiny("otherload"));
    let other = baseline_from_report(&report);
    let other_path = dir.join("other.json");
    other.save(&other_path).unwrap();
    opts.baseline_path = Some(other_path);
    assert!(run_gate(&opts).unwrap_err().contains("workload"));

    // --no-compare writes the report and exits 0 without a baseline.
    opts.baseline_path = Some(dir.join("still-missing.json"));
    opts.skip_compare = true;
    let outcome = run_gate(&opts).expect("no-compare run");
    assert_eq!(outcome.exit_code, 0);
    assert!(outcome.comparison.is_none());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checked_in_smoke_baseline_parses_and_matches_the_schema() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("smoke.json");
    let baseline = Baseline::load(&path).expect("checked-in baseline parses");
    assert_eq!(baseline.workload, "smoke");
    assert_eq!(baseline.schema_version, wmx_bench::SCHEMA_VERSION);
    // Robustness, forensic and claim metrics are deterministic and
    // pinned exactly; throughput has slack.
    for m in &baseline.metrics {
        if m.name.starts_with("robustness/")
            || m.name.starts_with("forensics/")
            || m.name.starts_with("claims/")
        {
            assert_eq!(m.tolerance, 0.0, "{}", m.name);
        } else {
            assert!(m.tolerance > 0.0, "{}", m.name);
        }
    }
    // The forensic scenarios hold localization and recovery to
    // perfection under the smoke seeds, and every demonstration claim
    // holds: any drop fails the gate. Claim metrics read higher-is-better
    // (a negative claim is pinned as `rejected`), so a false positive
    // lowers them.
    let perfect = [
        "forensics/localize@0.05/precision",
        "forensics/localize@0.05/recall",
        "forensics/recover@r3/rate",
        "forensics/recover@r3/detected",
        "forensics/fault_truncate@0.60/partial",
        "forensics/fault_garble/isolated",
        "claims/e1_capacity/publications/utilization",
        "claims/e1_capacity/publications/usability",
        "claims/e1_capacity/jobs/utilization",
        "claims/e1_capacity/jobs/usability",
        "claims/e1_capacity/library/utilization",
        "claims/e1_capacity/library/usability",
        "claims/e4_reorganization/rewriting/detected",
        "claims/e4_reorganization/rewriting/match_fraction",
        "claims/e4_reorganization/no_rewriting/rejected",
        "claims/e4_reorganization/value_baseline/rejected",
        "claims/e6_key_security/correct_key/detected",
        "claims/e6_key_security/wrong_mark/rejected",
        "claims/e6_key_security/unmarked_original/rejected",
        "claims/e6_key_security/wrong_keys/rejected_frac",
        "claims/e8_shuffle/value_only/detected",
        "claims/e8_shuffle/order_only/rejected",
    ];
    for name in perfect {
        let m = baseline
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("missing pinned metric {name}"));
        assert_eq!(m.value, 1.0, "{name}");
    }
    for m in &baseline.metrics {
        if m.name.starts_with("claims/") {
            assert!(
                perfect.contains(&m.name.as_str()),
                "unlisted claim {}",
                m.name
            );
        }
    }
    // The smoke suite's metric names line up with what is pinned, so
    // the gate can never silently skip a metric.
    let expected: Vec<String> = SuiteParams::smoke()
        .expected_metric_names()
        .into_iter()
        .collect();
    let pinned: Vec<String> = baseline.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(pinned, expected);
}
