//! Streaming report accumulation and cross-worker merging.
//!
//! Key-identified and order units are local to one record, so their
//! counters simply add up. FD-redundancy groups span records (every
//! member of `editor → publisher` carries the same mark wherever it
//! lives), so each worker tracks them in a single [`UnitKey`]-keyed flag
//! map — one entry per group carrying its total/selected/marked (or
//! located) state — and the merge ORs the flags, reproducing exactly
//! the whole-document counts the DOM encoder reports. Keys are compact
//! symbol tuples ([`wmx_core::SelectionTable`] symbols are stable
//! across workers), so no unit-id strings are built or cloned anywhere
//! on the merge path.

use std::collections::{BTreeMap, BTreeSet};
use wmx_core::{BitVotes, EmbedReport, ForensicTallies, SelectionTable, StoredQuery, UnitKey};

/// Wall-clock telemetry for one worker, consumed by the `wmx-bench`
/// telemetry reports. Every pass emits one entry per worker that was
/// given records (idle workers report nothing), covering that worker's
/// per-record embed/detect work summed over all batches;
/// reading, record splitting and output emission run on the calling
/// thread between batches and are not included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Records this worker processed successfully.
    pub records: usize,
    /// Wall-clock time of this worker's record work, in µs.
    pub micros: u128,
}

/// Aggregated view of a run's [`ChunkTiming`]s — the user-visible
/// summary the raw per-chunk vector never had (it was collected but
/// silently dropped by every consumer until the telemetry layer landed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Chunks timed.
    pub chunks: usize,
    /// Records across all timed chunks.
    pub records: usize,
    /// Summed chunk wall-clock, in µs (not wall time of the run: chunks
    /// overlap under parallel drivers).
    pub total_micros: u128,
    /// Fastest chunk, in µs.
    pub min_micros: u128,
    /// Slowest chunk, in µs.
    pub max_micros: u128,
}

impl ChunkSummary {
    /// Folds raw timings into a summary (`None` when nothing was timed).
    pub fn from_timings(timings: &[ChunkTiming]) -> Option<ChunkSummary> {
        let first = timings.first()?;
        let mut summary = ChunkSummary {
            chunks: 0,
            records: 0,
            total_micros: 0,
            min_micros: first.micros,
            max_micros: first.micros,
        };
        for t in timings {
            summary.chunks += 1;
            summary.records += t.records;
            summary.total_micros += t.micros;
            summary.min_micros = summary.min_micros.min(t.micros);
            summary.max_micros = summary.max_micros.max(t.micros);
        }
        Some(summary)
    }

    /// Mean chunk wall-clock, in µs.
    pub fn mean_micros(&self) -> u128 {
        self.total_micros / self.chunks as u128
    }
}

/// Streaming embed outcome: the DOM-equivalent report plus streaming
/// telemetry.
#[derive(Debug, Clone)]
pub struct StreamEmbedReport {
    /// The embedding report (unit counts, safeguarded query set) —
    /// equal, as a multiset of units, to what the DOM encoder reports.
    pub report: EmbedReport,
    /// Records processed.
    pub records: usize,
    /// High-water mark of XML nodes resident at once (synthetic root +
    /// one record), the O(depth + record) memory guarantee.
    pub peak_resident_nodes: usize,
    /// Per-worker wall-clock timings (one entry per worker given records).
    pub chunk_timings: Vec<ChunkTiming>,
}

impl StreamEmbedReport {
    /// Aggregated chunk-timing summary (`None` when nothing was timed).
    pub fn chunk_summary(&self) -> Option<ChunkSummary> {
        ChunkSummary::from_timings(&self.chunk_timings)
    }
}

/// What went wrong mid-stream when forensic detection kept going: the
/// verdict in the accompanying report covers only the records processed
/// before the fault (a *partial verdict*), never an error and never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFault {
    /// Records fully processed before the fault stopped the reader.
    pub records_processed: usize,
    /// Indices (0-based, in stream order) of records that were skipped
    /// because their own bytes failed to parse; processing continued
    /// with the next record.
    pub skipped_records: Vec<usize>,
    /// Human-readable description of the first stream-level error.
    pub error: String,
    /// Whether the stream itself broke (truncation / malformed bytes /
    /// I/O) as opposed to per-record damage only.
    pub truncated: bool,
}

/// Streaming detect outcome.
#[derive(Debug, Clone)]
pub struct StreamDetectReport {
    /// The detection report. `total_queries` counts enumerated selected
    /// units, `located_queries` those that produced at least one vote.
    pub report: wmx_core::DetectionReport,
    /// Records processed.
    pub records: usize,
    /// High-water mark of XML nodes resident at once.
    pub peak_resident_nodes: usize,
    /// Per-worker wall-clock timings (one entry per worker given records).
    pub chunk_timings: Vec<ChunkTiming>,
    /// Mid-stream fault, when forensic detection salvaged a partial
    /// verdict (`None` on a complete pass).
    pub fault: Option<StreamFault>,
}

impl StreamDetectReport {
    /// Aggregated chunk-timing summary (`None` when nothing was timed).
    pub fn chunk_summary(&self) -> Option<ChunkSummary> {
        ChunkSummary::from_timings(&self.chunk_timings)
    }
}

/// Per-FD-group embed state: one map entry per group replaces the three
/// id-keyed sets the merge path used to clone unit-id strings into.
/// Presence in the map means the group was enumerated (total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FdEmbedFlags {
    /// The PRF selected the group.
    pub selected: bool,
    /// Some worker wrote the mark into the group.
    pub marked: bool,
}

/// A per-chunk accumulator: after each batch the driver folds the
/// workers' partials into the first worker's, in worker order, so the
/// accumulated partial always covers a prefix of the stream.
pub(crate) trait Partial: Send {
    /// Folds the partial of the records that follow into this one.
    fn merge(&mut self, other: Self);
}

/// Per-chunk embed accumulator.
#[derive(Debug, Default)]
pub(crate) struct PartialEmbed {
    pub records: usize,
    pub peak_resident_nodes: usize,
    pub total_local: usize,
    pub selected_local: usize,
    pub marked_local: usize,
    pub marked_nodes: usize,
    /// Stored queries in discovery order, tagged with the FD unit key
    /// when the unit is an FD group (for cross-chunk dedup).
    pub queries: Vec<(Option<UnitKey>, StoredQuery)>,
    pub fd_flags: BTreeMap<UnitKey, FdEmbedFlags>,
}

impl PartialEmbed {
    /// The flag entry for an FD group, created on first sight (the only
    /// point the key is cloned in this chunk).
    pub fn fd_entry(&mut self, key: &UnitKey) -> &mut FdEmbedFlags {
        if !self.fd_flags.contains_key(key) {
            self.fd_flags.insert(key.clone(), FdEmbedFlags::default());
        }
        self.fd_flags.get_mut(key).expect("inserted above")
    }

    pub fn finalize(self) -> StreamEmbedReport {
        let mut seen_fd: BTreeSet<UnitKey> = BTreeSet::new();
        let mut queries = Vec::with_capacity(self.queries.len());
        for (fd_key, query) in self.queries {
            if let Some(key) = fd_key {
                if !seen_fd.insert(key) {
                    continue; // the same FD group marked in another record
                }
            }
            queries.push(query);
        }
        let fd_selected = self.fd_flags.values().filter(|f| f.selected).count();
        let fd_marked = self.fd_flags.values().filter(|f| f.marked).count();
        StreamEmbedReport {
            report: EmbedReport {
                total_units: self.total_local + self.fd_flags.len(),
                selected_units: self.selected_local + fd_selected,
                marked_units: self.marked_local + fd_marked,
                marked_nodes: self.marked_nodes,
                queries,
            },
            records: self.records,
            peak_resident_nodes: self.peak_resident_nodes,
            chunk_timings: Vec::new(),
        }
    }
}

impl Partial for PartialEmbed {
    fn merge(&mut self, other: PartialEmbed) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        self.total_local += other.total_local;
        self.selected_local += other.selected_local;
        self.marked_local += other.marked_local;
        self.marked_nodes += other.marked_nodes;
        for (key, flags) in other.fd_flags {
            let mine = self.fd_flags.entry(key).or_default();
            mine.selected |= flags.selected;
            mine.marked |= flags.marked;
        }
        self.queries.extend(other.queries);
    }
}

/// Per-chunk detect accumulator.
#[derive(Debug)]
pub(crate) struct PartialDetect {
    pub records: usize,
    pub peak_resident_nodes: usize,
    pub bit_votes: Vec<BitVotes>,
    pub votes_cast: usize,
    pub total_local: usize,
    pub located_local: usize,
    /// Selected FD groups → whether any worker located votes for them.
    pub fd_located: BTreeMap<UnitKey, bool>,
    /// Per-unit forensic tallies, accumulated only in forensic mode
    /// (`None` keeps the strict hot path untouched).
    pub forensics: Option<ForensicTallies>,
}

impl PartialDetect {
    pub fn new(wm_len: usize, forensics: bool) -> Self {
        PartialDetect {
            records: 0,
            peak_resident_nodes: 0,
            bit_votes: vec![BitVotes::default(); wm_len],
            votes_cast: 0,
            total_local: 0,
            located_local: 0,
            fd_located: BTreeMap::new(),
            forensics: forensics.then(ForensicTallies::new),
        }
    }

    /// The located flag for a selected FD group. Takes the key by value:
    /// an already-present key is dropped, not cloned.
    pub fn fd_entry(&mut self, key: UnitKey) -> &mut bool {
        self.fd_located.entry(key).or_default()
    }

    fn counters(&self) -> wmx_core::VoteCounters {
        let fd_located = self.fd_located.values().filter(|l| **l).count();
        wmx_core::VoteCounters {
            total_queries: self.total_local + self.fd_located.len(),
            located_queries: self.located_local + fd_located,
            unrewritable_queries: 0,
            votes_cast: self.votes_cast,
        }
    }

    /// Renders the verdict through the same
    /// [`wmx_core::finalize_forensic_report`] seam the DOM forensic
    /// decoder uses — DOM and stream forensics agree by construction.
    /// Without tallies (strict mode) it is the plain vote report; a tally
    /// wider than the watermark means redundancy mode, which needs the
    /// group-majority decode.
    pub fn finalize(
        self,
        watermark: &wmx_core::Watermark,
        threshold: f64,
        table: &SelectionTable,
    ) -> StreamDetectReport {
        let counters = self.counters();
        let report = wmx_core::finalize_forensic_report(
            self.bit_votes,
            watermark,
            threshold,
            counters,
            self.forensics.as_ref().map(|t| (t, table)),
        );
        StreamDetectReport {
            report,
            records: self.records,
            peak_resident_nodes: self.peak_resident_nodes,
            chunk_timings: Vec::new(),
            fault: None,
        }
    }
}

impl Partial for PartialDetect {
    fn merge(&mut self, other: PartialDetect) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        for (mine, theirs) in self.bit_votes.iter_mut().zip(&other.bit_votes) {
            mine.merge(theirs);
        }
        self.votes_cast += other.votes_cast;
        self.total_local += other.total_local;
        self.located_local += other.located_local;
        for (key, located) in other.fd_located {
            *self.fd_located.entry(key).or_default() |= located;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.forensics, other.forensics) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_summary_aggregates_timings() {
        assert_eq!(ChunkSummary::from_timings(&[]), None);
        let timings = [
            ChunkTiming {
                records: 10,
                micros: 40,
            },
            ChunkTiming {
                records: 30,
                micros: 100,
            },
            ChunkTiming {
                records: 20,
                micros: 70,
            },
        ];
        let summary = ChunkSummary::from_timings(&timings).unwrap();
        assert_eq!(summary.chunks, 3);
        assert_eq!(summary.records, 60);
        assert_eq!(summary.total_micros, 210);
        assert_eq!(summary.min_micros, 40);
        assert_eq!(summary.max_micros, 100);
        assert_eq!(summary.mean_micros(), 70);
    }
}
