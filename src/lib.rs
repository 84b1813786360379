//! # MacroBase-RS
//!
//! A Rust reproduction of **MacroBase: Prioritizing Attention in Fast Data**
//! (Bailis et al., SIGMOD 2017): a fast-data analytics engine that combines
//! streaming **classification** (robust, density-based outlier detection)
//! with streaming **explanation** (risk-ratio attribute-combination mining)
//! so that a handful of returned results capture the most important
//! behaviours in a high-volume stream.
//!
//! This façade crate re-exports the full public API of the workspace:
//!
//! * [`core`] — data types, operator traits, and the unified query surface:
//!   one `MdpQuery` executed by any `Executor` backend (one-shot,
//!   coordinated partitioned, naïve partitioned, streaming).
//! * [`stats`] — robust statistics: MAD, FastMCD, Mahalanobis distances,
//!   the binomial interval behind the percentile drift check.
//! * [`sketch`] — the Adaptable Damped Reservoir (ADR), the Amortized
//!   Maintenance Counter (AMC), SpaceSaving baselines, streaming quantiles.
//! * [`fpgrowth`] — FP-tree/FPGrowth, CPS-tree and M-CPS-tree itemset mining.
//! * [`classify`] — MAD/MCD/Z-score/rule classifiers and percentile
//!   thresholds.
//! * [`explain`] — risk-ratio explanation (batch, streaming, and baselines).
//! * [`transform`] — DFT magnitudes per STFT window, tumbling windows,
//!   truncation, optical-flow features.
//! * [`ingest`] — CSV ingestion and the synthetic workloads used by the
//!   paper's evaluation.
//! * [`scenario`] — labeled fault-injection scenarios with ground truth,
//!   plus the shared precision/recall/Jaccard metrics
//!   ([`scenario::eval`]) behind the accuracy harness.
//! * [`pool`] — the work-stealing execution substrate behind the batch
//!   kernels (the sharded attribute encode, FastMCD's starts and C-steps,
//!   the batch explainer's shards) and the naïve partitioned mode (vendored
//!   rayon stand-in; `scope`/`parallel_for`/`map_vec`).
//! * [`obs`] — the telemetry layer: metric registries (counters, gauges,
//!   log-bucketed latency histograms), each written by the query, session
//!   or server that owns it, per-stage query traces attached to reports
//!   when `ObsConfig` is enabled (off by default), printed by the
//!   reproduction binaries' `--trace` in the layout a report embeds them in.
//! * [`serve`] — the resident multi-query server: bounded priority
//!   admission over the shared pool, an epoch-versioned shared model cache
//!   (train once, score for every subscriber; retrains publish new epochs
//!   without stalling readers), streaming-session lifecycle with idle
//!   expiry, and a JSON-lines wire protocol over stdin/stdout (the
//!   `mb_serve` binary). Reports served concurrently are byte-identical to
//!   standalone runs.
//!
//! ## Quickstart
//!
//! ```
//! use macrobase::prelude::*;
//!
//! // A stream of power readings tagged with device ids; one device misbehaves.
//! let mut points: Vec<Point> = (0..5_000)
//!     .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 50)))
//!     .collect();
//! for i in 0..50 {
//!     points[i * 100] = Point::simple(90.0, "device_13");
//! }
//!
//! // One query...
//! let mut query = MdpQuery::with_defaults();
//! let report = query.execute(&Executor::OneShot, &points).unwrap();
//! assert!(report.explanations.iter().any(|e| {
//!     e.attributes.iter().any(|a| a.contains("device_13"))
//! }));
//!
//! // ...any engine. Coordinated execution shares one trained model, one
//! // score threshold and global support counts — on one box, the one-shot
//! // engine — so the report is exactly the one-shot report at any partition
//! // count (unlike `Executor::NaivePartitioned`, whose accuracy degrades
//! // with cores).
//! let mut query = MdpQuery::with_defaults();
//! let scaled = query
//!     .execute(&Executor::Coordinated { partitions: 8 }, &points)
//!     .unwrap();
//! assert_eq!(scaled.num_outliers, report.num_outliers);
//! ```

pub use macrobase_core as core;
pub use mb_classify as classify;
pub use mb_obs as obs;
pub use mb_explain as explain;
pub use mb_fpgrowth as fpgrowth;
pub use mb_ingest as ingest;
pub use mb_pool as pool;
pub use mb_scenario as scenario;
pub use mb_serve as serve;
pub use mb_sketch as sketch;
pub use mb_stats as stats;
pub use mb_transform as transform;

/// Commonly used types, re-exported for `use macrobase::prelude::*`.
pub mod prelude {
    pub use crate::core::operator::{CsvIngestor, Ingestor, Transformer, VecIngestor};
    pub use crate::core::parallel::default_num_partitions;
    pub use crate::core::presentation::render_report;
    pub use crate::core::query::{
        AnalysisConfig, EstimatorKind, Executor, MdpQuery, MdpQueryBuilder, StreamingOptions,
    };
    pub use crate::core::streaming::StreamingSession;
    pub use crate::core::types::{MdpReport, Point, RenderedExplanation};
    pub use crate::core::{Classification, Label, PipelineError};
    pub use crate::explain::ExplanationConfig;
    pub use crate::obs::{ObsConfig, QueryTrace};
}
