//! mb-serve: a resident multi-query MacroBase server.
//!
//! The paper's deployment story is operators pointing many standing
//! analyses at fast data; this crate is the layer that admits them
//! concurrently over shared infrastructure:
//!
//! * Admission — bounded, with per-query [`Priority`] classes, typed
//!   [`Saturated`] rejection, and cancellation, drained by a small set of
//!   worker threads. Each job's *internal* parallelism still runs on the
//!   process-wide [`mb_pool`], which the server configures once at startup
//!   (the pool's one-shot contract makes a later misconfiguration a typed
//!   error, not a silent no-op).
//! * The shared model cache — immutable, epoch-stamped [`ModelSnapshot`]s
//!   keyed by a canonical [`Fingerprint`] of the model-relevant config and
//!   training metrics. A model trains once and scores for every subscriber;
//!   a background retrain publishes the next epoch by swapping an `Arc`
//!   while in-flight readers keep the one they hold — the multiversion
//!   snapshot discipline, applied to models.
//! * [`server`] — job and [`StreamingSession`](macrobase_core::streaming::StreamingSession)
//!   lifecycle (submit / poll / feed / snapshot-report / close, with idle
//!   expiry) plus one [`mb_obs::MetricRegistry`] counting all of it.
//!   All of it is one state machine behind one lock; workers run the data
//!   work outside it and hand their results back as commands.
//! * [`wire`] — a JSON-lines protocol over stdin/stdout (`submit`, `poll`,
//!   `feed`, `close`, `stats`, `retrain`) built on the `core::wire` codecs.
//!
//! The invariant the whole crate is built around: **serving never changes
//! an answer**. Reports produced through the server are byte-identical to
//! the same query run standalone — training is deterministic, snapshots
//! are immutable, and cache provenance (epoch, hit/miss) travels next to
//! the report, never inside it.
//!
//! ```
//! use mb_serve::{Priority, QuerySpec, ServeConfig, Server, JobStatus};
//! use macrobase_core::query::{Executor, MdpQuery};
//! use macrobase_core::types::Point;
//!
//! let points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("d{}", i % 20)))
//!     .collect();
//!
//! let server = Server::start(ServeConfig::default());
//! let spec = QuerySpec {
//!     analysis: Default::default(),
//!     executor: Executor::OneShot,
//! };
//! server.submit("q1", spec, points.clone(), Priority::Normal).unwrap();
//! let status = server.poll("q1", Some(std::time::Duration::from_secs(30))).unwrap();
//! let JobStatus::Done(result) = status else { panic!("expected completion") };
//!
//! // Byte-identical to the standalone run.
//! let standalone = MdpQuery::with_defaults()
//!     .execute(&Executor::OneShot, &points)
//!     .unwrap();
//! assert_eq!(result.report, standalone);
//! ```

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the state machine's job, session and model tables are lookups; nothing walks \
              them into a response"
)]

mod cache;
pub mod fingerprint;
mod scheduler;
pub mod server;
mod state;
pub mod wire;

pub use cache::{CacheOutcome, ModelSnapshot};
pub use fingerprint::Fingerprint;
pub use scheduler::{Priority, Saturated};
pub use server::{
    Closed, FeedSummary, JobResult, JobStatus, QuerySpec, ServeConfig, ServeError, Server,
};
pub use wire::{handle_line, serve_loop};
