//! Shared workload setup, table rendering, and the perf/robustness
//! telemetry subsystem (measurement runtime, BENCH report schema,
//! baseline store, regression gate) for the experiment harness and the
//! `gate` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod gate;
pub mod json;
pub mod measure;
pub mod report;
pub mod table;
pub mod workloads;

pub use baseline::{baseline_from_report, compare, Baseline, BaselineMetric, Comparison};
pub use gate::{run_gate, run_suite, GateOptions, GateOutcome, SuiteParams};
pub use json::Json;
pub use measure::{peak_rss_kb, MeasureConfig, Measurement};
pub use report::{BenchReport, RobustnessStat, RunContext, ThroughputStat, SCHEMA_VERSION};
pub use table::Table;
pub use workloads::{
    marked_publications, streaming_publications, MarkedWorkload, StreamingWorkload,
};
