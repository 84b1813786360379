//! Coordination-free telemetry for MacroBase-RS.
//!
//! The deployment story behind MacroBase (Section 6) is operators watching
//! fast data streams, yet the pipeline itself is normally a black box. This
//! crate makes it observable without locks: every registry has one owner —
//! a query, a streaming session, a server — that writes it with plain
//! stores, and work scattered over the pool hands its counts back with its
//! result instead of sharing a metric.
//!
//! The pieces:
//!
//! * [`MetricRegistry`] — a named bag of monotonic counters, last-writer
//!   gauges, and log-bucketed [`LatencyHistogram`]s, written by its owner.
//! * [`TraceBuilder`] / [`StageTimer`] — a span API the executors use to
//!   time pipeline stages (`ingest → encode → train → score → explain →
//!   merge`). Disabled builders compile down to a branch and no clock reads.
//! * [`QueryTrace`] / [`StageTrace`] — the immutable record attached to a
//!   finished report (`MdpReport::trace`), wire-round-tripped by
//!   `macrobase_core::wire`, which also prints it for the `--trace` flag
//!   on the reproduction binaries.
//!
//! Everything is off by default: [`ObsConfig::default`] is disabled, and a
//! disabled [`TraceBuilder`] produces `None`, so blessed baseline reports
//! stay byte-identical.
//!
//! # Overhead budget
//!
//! With telemetry enabled, the executors add two `Instant::now()` calls per
//! stage (a handful of stages per query) plus a few counter adds per
//! scatter — the CI gate on `table3_simple_queries --trace` holds the
//! end-to-end cost under 3% of query wall time. Disabled, the cost is a
//! boolean test.

mod histogram;
mod registry;
mod trace;

pub use histogram::{LatencyHistogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::MetricRegistry;
pub use trace::{QueryTrace, StageTimer, StageTrace, TraceBuilder};

/// Telemetry switches carried by an analysis configuration.
///
/// Default-off: a default `ObsConfig` disables every collector, and reports
/// produced under it carry `trace: None`, byte-identical to pre-telemetry
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Collect per-stage query traces and engine counters.
    pub enabled: bool,
}

impl ObsConfig {
    /// Telemetry on: executors attach a [`QueryTrace`] to their reports.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }

    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Whether any collector is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// The pipeline stages a trace records, as a type: [`TraceBuilder::finish_stage`]
/// takes a [`Stage`](stage::Stage), so a span's name cannot be misspelt.
pub mod stage {
    /// One traced pipeline stage. [`Stage::as_str`] is its name in a
    /// [`StageTrace`](crate::StageTrace) and on the wire.
    ///
    /// [`Stage::ALL`] is the stable six-stage taxonomy shared with the
    /// self-telemetry scenario. The naïve partitioned engine also emits one
    /// auxiliary span, [`Stage::Execute`], which stays outside it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Stage {
        /// Draining rows out of an `Ingestor` source.
        Ingest,
        /// Attribute dictionary encoding (row attributes → interned item ids).
        Encode,
        /// Fitting the estimator (MAD / MCD training sample).
        Train,
        /// Scoring points and resolving the percentile threshold.
        Score,
        /// Risk-ratio explanation mining over the encoded outliers.
        Explain,
        /// Cross-partition merge (the partitions' rendered explanations).
        Merge,
        /// Auxiliary: the naïve partitioned engine's per-partition queries,
        /// as one span over all of them.
        Execute,
    }

    impl Stage {
        /// The canonical stage taxonomy, in pipeline order.
        pub const ALL: [Stage; 6] = [
            Stage::Ingest,
            Stage::Encode,
            Stage::Train,
            Stage::Score,
            Stage::Explain,
            Stage::Merge,
        ];

        /// The stage's name in a trace.
        pub const fn as_str(self) -> &'static str {
            match self {
                Stage::Ingest => "ingest",
                Stage::Encode => "encode",
                Stage::Train => "train",
                Stage::Score => "score",
                Stage::Explain => "explain",
                Stage::Merge => "merge",
                Stage::Execute => "execute",
            }
        }
    }

    // The six names as strings, for the benchmark's layer run, which lists
    // them beside a span name of its own. Code in this workspace uses `Stage`.
    /// [`Stage::Ingest`]'s name.
    pub const INGEST: &str = Stage::Ingest.as_str();
    /// [`Stage::Encode`]'s name.
    pub const ENCODE: &str = Stage::Encode.as_str();
    /// [`Stage::Train`]'s name.
    pub const TRAIN: &str = Stage::Train.as_str();
    /// [`Stage::Score`]'s name.
    pub const SCORE: &str = Stage::Score.as_str();
    /// [`Stage::Explain`]'s name.
    pub const EXPLAIN: &str = Stage::Explain.as_str();
    /// [`Stage::Merge`]'s name.
    pub const MERGE: &str = Stage::Merge.as_str();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_config_defaults_off() {
        assert!(!ObsConfig::default().is_enabled());
        assert!(ObsConfig::enabled().is_enabled());
        assert!(!ObsConfig::disabled().is_enabled());
    }

    #[test]
    fn stage_taxonomy_is_ordered_and_unique() {
        use stage::Stage;
        let mut seen = std::collections::BTreeSet::new();
        for stage in Stage::ALL.into_iter().chain([Stage::Execute]) {
            assert!(seen.insert(stage.as_str()), "duplicate stage {stage:?}");
        }
        assert_eq!(Stage::ALL[0], Stage::Ingest);
        assert_eq!(Stage::ALL[5], Stage::Merge);
    }
}
