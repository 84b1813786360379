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

/// Canonical pipeline stage names used in [`StageTrace::stage`].
///
/// [`ALL`](stage::ALL) is the stable six-stage taxonomy shared with the
/// self-telemetry scenario. The naïve partitioned engine also emits one
/// auxiliary span named here, [`EXECUTE`](stage::EXECUTE), which stays
/// outside it.
pub mod stage {
    /// Draining rows out of an `Ingestor` source.
    pub const INGEST: &str = "ingest";
    /// Attribute dictionary encoding (row attributes → interned item ids).
    pub const ENCODE: &str = "encode";
    /// Fitting the estimator (MAD / MCD training sample).
    pub const TRAIN: &str = "train";
    /// Scoring points and resolving the percentile threshold.
    pub const SCORE: &str = "score";
    /// Risk-ratio explanation mining over the encoded outliers.
    pub const EXPLAIN: &str = "explain";
    /// Cross-partition merge (the partitions' rendered explanations).
    pub const MERGE: &str = "merge";
    /// The canonical stage taxonomy, in pipeline order.
    pub const ALL: [&str; 6] = [INGEST, ENCODE, TRAIN, SCORE, EXPLAIN, MERGE];
    /// Auxiliary: the naïve partitioned engine's per-partition queries, as
    /// one span over all of them.
    pub const EXECUTE: &str = "execute";
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
        let mut seen = std::collections::BTreeSet::new();
        for name in stage::ALL {
            assert!(seen.insert(name), "duplicate stage {name}");
        }
        assert_eq!(stage::ALL[0], stage::INGEST);
        assert_eq!(stage::ALL[5], stage::MERGE);
    }
}
