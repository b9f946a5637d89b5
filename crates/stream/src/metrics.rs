//! Registry handles for the streaming driver's per-worker metrics.
//!
//! Resolved once per process via `OnceLock`; the handles themselves are
//! lock-free, so recording costs only Relaxed atomics. Per-record work
//! inside `RecordEngine` is left uninstrumented on purpose — worker
//! granularity is the finest level that doesn't tax the record loop.

use std::sync::{Arc, OnceLock};

use wmx_telemetry::{Counter, Histogram};

use crate::report::ChunkTiming;

pub(crate) struct StreamMetrics {
    /// Record-work wall-clock per worker (see `ChunkTiming`).
    pub chunk_micros: Arc<Histogram>,
    /// Records processed across all workers.
    pub records: Arc<Counter>,
    /// Worker timings recorded.
    pub chunks: Arc<Counter>,
    /// Node votes cast by detect passes.
    pub votes: Arc<Counter>,
    /// Cross-worker partial-report merges.
    pub merges: Arc<Counter>,
}

impl StreamMetrics {
    /// Folds one worker's timing into the histograms/counters.
    pub fn record_chunk(&self, timing: &ChunkTiming) {
        self.chunk_micros
            .record(u64::try_from(timing.micros).unwrap_or(u64::MAX));
        self.records.add(timing.records as u64);
        self.chunks.inc();
    }
}

pub(crate) fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = wmx_telemetry::global();
        StreamMetrics {
            chunk_micros: registry.histogram("stream.chunk_micros"),
            records: registry.counter("stream.records"),
            chunks: registry.counter("stream.chunks"),
            votes: registry.counter("stream.votes"),
            merges: registry.counter("stream.merges"),
        }
    })
}
