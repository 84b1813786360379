//! MacroBase-RS core: data types, the operator trait system, and the default
//! analysis pipeline (MDP) behind one query surface with pluggable
//! execution backends.
//!
//! This crate assembles the substrates (`mb-stats`, `mb-sketch`,
//! `mb-fpgrowth`, `mb-classify`, `mb-explain`, `mb-transform`, `mb-ingest`)
//! into the system described in Sections 3–5 of *MacroBase: Prioritizing
//! Attention in Fast Data*:
//!
//! * [`types`] — [`Point`](types::Point), labels, and rendered explanation
//!   reports.
//! * [`operator`] — the Table 1 stages a query takes from its user
//!   (Ingestor, Transformer), an adapter for per-point closures, and the
//!   batching [`CsvIngestor`](operator::CsvIngestor).
//! * [`query`] — the unified surface: an [`MdpQuery`](query::MdpQuery)
//!   (shared [`AnalysisConfig`](query::AnalysisConfig) + transformer
//!   chain + classifier stages) executed by any
//!   [`Executor`](query::Executor) backend — one-shot, coordinated
//!   partitioned, naïve partitioned, or streaming — over a slice or any
//!   ingestor, returning one unified [`MdpReport`](types::MdpReport).
//! * [`executor`] — the batch core behind those backends: one-shot is
//!   training followed by the with-model engine over a columnar input,
//!   coordinated runs the one-shot engine, the naïve engine runs one-shot
//!   per partition. Classification and explanation are the query's
//!   configuration, run by these engines, not operators a user plugs in.
//! * [`streaming`] — the exponentially weighted streaming (EWS) engine and
//!   the incremental [`StreamingSession`](streaming::StreamingSession).
//! * [`parallel`] — the partitioning utilities of the naïve partitioned
//!   backend.
//! * [`presentation`] — ranking and text rendering of explanation reports.
//!
//! ## Example
//!
//! Run the MDP over a batch of points; the planted misbehaving device
//! produces outliers. The same query runs on any backend:
//!
//! ```
//! use macrobase_core::query::{Executor, MdpQuery};
//! use macrobase_core::types::Point;
//!
//! let mut points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 20)))
//!     .collect();
//! for i in 0..20 {
//!     points[i * 100] = Point::simple(90.0, "device_13");
//! }
//!
//! let mut query = MdpQuery::with_defaults();
//! let report = query.execute(&Executor::OneShot, &points).unwrap();
//! assert!(report.num_outliers > 0);
//!
//! // Scale out without changing the answer.
//! let mut query = MdpQuery::with_defaults();
//! let scaled = query
//!     .execute(&Executor::Coordinated { partitions: 4 }, &points)
//!     .unwrap();
//! assert_eq!(scaled.num_outliers, report.num_outliers);
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod operator;
pub mod parallel;
pub mod presentation;
pub mod query;
pub mod streaming;
pub mod types;
pub mod wire;

pub use mb_classify::{Classification, Label};
pub use mb_obs::{ObsConfig, QueryTrace};

/// Errors surfaced by query construction and execution.
#[derive(Debug)]
pub enum PipelineError {
    /// The input stream/batch was empty.
    EmptyInput,
    /// Points did not have a consistent metric dimensionality.
    InconsistentDimensions {
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality of the offending point.
        actual: usize,
    },
    /// A statistical component failed.
    Stats(mb_stats::StatsError),
    /// Pipeline was misconfigured.
    InvalidConfiguration(String),
    /// The query declares no classification stage (neither the unsupervised
    /// classifier nor a supervised rule).
    MissingClassifier,
    /// A query feature cannot be executed faithfully by the chosen backend
    /// (e.g. score retention on the unbounded streaming backend).
    UnsupportedByBackend {
        /// The query feature that does not fit the backend.
        feature: &'static str,
        /// The backend that rejected it.
        backend: &'static str,
    },
    /// An ingestion source failed mid-stream (e.g. an I/O error while
    /// reading a CSV file); the query fails rather than silently reporting
    /// over truncated data.
    Ingest(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyInput => write!(f, "input contains no points"),
            PipelineError::InconsistentDimensions { expected, actual } => write!(
                f,
                "inconsistent metric dimensions: expected {expected}, got {actual}"
            ),
            PipelineError::Stats(e) => write!(f, "statistics error: {e}"),
            PipelineError::InvalidConfiguration(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::MissingClassifier => write!(
                f,
                "query needs at least one classifier (unsupervised or rule)"
            ),
            PipelineError::UnsupportedByBackend { feature, backend } => {
                write!(f, "{feature} is not supported by the {backend} backend")
            }
            PipelineError::Ingest(e) => write!(f, "ingestion error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<mb_stats::StatsError> for PipelineError {
    fn from(e: mb_stats::StatsError) -> Self {
        PipelineError::Stats(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;

// Test-only: behaviour checks of the one-shot, full-dataflow and coordinated
// backends through `MdpQuery`. Kept below every public item, where
// `scripts/public_api.sh` stops reading.
#[cfg(test)]
mod coordinated;
#[cfg(test)]
mod oneshot;
#[cfg(test)]
mod pipeline;
