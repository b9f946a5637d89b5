//! Shared workload setup, table rendering, the paper's experiments as
//! scenario functions, and the perf/robustness telemetry subsystem
//! (measurement runtime, BENCH report schema, baseline store, regression
//! gate) behind the `gate` and `experiments` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod gate;
pub mod measure;
pub mod report;
pub mod table;
pub mod workloads;

pub use baseline::{baseline_from_report, compare, Baseline, BaselineMetric, Comparison};
pub use gate::{run_gate, run_suite, GateOptions, GateOutcome, SuiteParams};
pub use measure::{peak_rss_kb, MeasureConfig, Measurement};
pub use report::{
    BenchReport, RobustnessStat, RunContext, ScenarioStat, ThroughputStat, SCHEMA_VERSION,
};
pub use table::Table;
pub use workloads::{
    marked_publications, streaming_publications, MarkedWorkload, StreamingWorkload,
};
