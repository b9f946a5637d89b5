//! Measurement runtime for the telemetry reports.
//!
//! The regression gate needs raw numbers it can serialize and compare,
//! not human-oriented summaries. This module provides
//! warmup/iteration control, wall-clock
//! percentiles, MB/s and records/s throughput derived from the median
//! iteration, and a peak-RSS probe.

use std::time::Instant;

/// Warmup and iteration counts for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Untimed warmup iterations (cache/allocator settling).
    pub warmup: usize,
    /// Timed iterations.
    pub iters: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            warmup: 1,
            iters: 5,
        }
    }
}

/// Wall-clock samples for one workload, plus the per-iteration work
/// volume that turns latency into throughput.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-iteration wall-clock durations in nanoseconds (run order).
    pub samples_ns: Vec<u128>,
    /// Bytes processed per iteration (0 = byte throughput unknown).
    pub bytes_per_iter: u64,
    /// Records processed per iteration (0 = record throughput unknown).
    pub records_per_iter: u64,
}

impl Measurement {
    /// Runs `f` for `cfg.warmup` untimed and `cfg.iters` timed rounds.
    pub fn run<F: FnMut()>(
        cfg: &MeasureConfig,
        bytes_per_iter: u64,
        records_per_iter: u64,
        mut f: F,
    ) -> Measurement {
        for _ in 0..cfg.warmup {
            f();
        }
        let iters = cfg.iters.max(1);
        let mut samples_ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            f();
            samples_ns.push(start.elapsed().as_nanos());
        }
        Measurement {
            samples_ns,
            bytes_per_iter,
            records_per_iter,
        }
    }

    fn sorted(&self) -> Vec<u128> {
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        s
    }

    /// Nearest-rank percentile (p in 0..=100) in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, sorted.len()) - 1;
        sorted[idx] as f64 / 1e6
    }

    /// Median latency in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// Fastest iteration in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.samples_ns
            .iter()
            .min()
            .map_or(0.0, |&n| n as f64 / 1e6)
    }

    /// Slowest iteration in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.samples_ns
            .iter()
            .max()
            .map_or(0.0, |&n| n as f64 / 1e6)
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let total: u128 = self.samples_ns.iter().sum();
        total as f64 / self.samples_ns.len() as f64 / 1e6
    }

    /// Throughput in MB/s over the median iteration (0 when unknown).
    pub fn mb_per_s(&self) -> f64 {
        let median_s = self.median_ms() / 1e3;
        if median_s <= 0.0 || self.bytes_per_iter == 0 {
            return 0.0;
        }
        self.bytes_per_iter as f64 / (1024.0 * 1024.0) / median_s
    }

    /// Throughput in records/s over the median iteration (0 when unknown).
    pub fn records_per_s(&self) -> f64 {
        let median_s = self.median_ms() / 1e3;
        if median_s <= 0.0 || self.records_per_iter == 0 {
            return 0.0;
        }
        self.records_per_iter as f64 / median_s
    }
}

/// The process's peak resident set size in KiB, read from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable
/// (non-Linux hosts) — reports record the absence rather than a guess.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let number = rest.trim().trim_end_matches("kB").trim();
            return number.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(samples: &[u128]) -> Measurement {
        Measurement {
            samples_ns: samples.to_vec(),
            bytes_per_iter: 2 * 1024 * 1024,
            records_per_iter: 1000,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let m = fixed(&[5_000_000, 1_000_000, 3_000_000, 2_000_000, 4_000_000]);
        assert_eq!(m.percentile_ms(50.0), 3.0);
        assert_eq!(m.percentile_ms(90.0), 5.0);
        assert_eq!(m.percentile_ms(100.0), 5.0);
        assert_eq!(m.min_ms(), 1.0);
        assert_eq!(m.max_ms(), 5.0);
        assert_eq!(m.mean_ms(), 3.0);
    }

    #[test]
    fn throughput_uses_the_median_iteration() {
        // Median 2 ms over 2 MiB and 1000 records.
        let m = fixed(&[1_000_000, 2_000_000, 50_000_000]);
        assert!((m.mb_per_s() - 1000.0).abs() < 1e-9);
        assert!((m.records_per_s() - 500_000.0).abs() < 1e-6);
        // Unknown volumes yield 0, not a division by zero.
        let unknown = Measurement {
            bytes_per_iter: 0,
            records_per_iter: 0,
            ..fixed(&[1_000_000])
        };
        assert_eq!(unknown.mb_per_s(), 0.0);
        assert_eq!(unknown.records_per_s(), 0.0);
    }

    #[test]
    fn run_collects_the_requested_iterations() {
        let mut calls = 0usize;
        let m = Measurement::run(
            &MeasureConfig {
                warmup: 2,
                iters: 3,
            },
            10,
            1,
            || calls += 1,
        );
        assert_eq!(calls, 5);
        assert_eq!(m.samples_ns.len(), 3);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_on_linux() {
        let kb = peak_rss_kb().expect("procfs VmHWM");
        assert!(kb > 0);
    }
}
