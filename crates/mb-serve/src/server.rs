//! The resident server: admission, shared-model execution, session
//! lifecycle, and serve-level telemetry.
//!
//! A [`Server`] owns a [`Scheduler`] (admission + worker threads), a
//! [`ModelCache`] (fingerprint-keyed epoch-versioned snapshots), a registry
//! of open [`StreamingSession`]s, and one [`MetricRegistry`] counting all of
//! it. Queries execute on worker threads but their reports are produced by
//! the exact same engine code a standalone `MdpQuery::execute` runs —
//! sharing a cached model cannot change a single byte of the report.

use crate::cache::{CacheOutcome, ModelCache, ModelSnapshot};
use crate::fingerprint::Fingerprint;
use crate::lock;
use crate::scheduler::{Priority, Saturated, Scheduler};
use macrobase_core::operator::{ColumnarInput, EncodedBatch};
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery, StreamingOptions};
use macrobase_core::streaming::StreamingSession;
use macrobase_core::types::{MdpReport, Point};
use mb_obs::MetricRegistry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue (concurrent queries).
    pub workers: usize,
    /// Maximum number of jobs waiting for a worker before submissions are
    /// rejected with a typed saturation error.
    pub max_queue: usize,
    /// Streaming sessions idle longer than this are expired by the sweeper.
    pub session_idle: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_queue: 64,
            session_idle: Duration::from_secs(900),
        }
    }
}

/// What to run: the analysis configuration plus an execution backend. The
/// serve surface is unsupervised-MDP only (no supervised rules and no
/// transformer chains cross the wire), which is exactly the shape the model
/// cache can share.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Analysis configuration (estimator, thresholds, retention, telemetry).
    pub analysis: AnalysisConfig,
    /// Execution backend.
    pub executor: Executor,
}

/// A finished job: the report plus model-cache provenance. The provenance
/// lives *next to* the report, never inside it, so the report stays
/// byte-identical to a standalone run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The report, byte-identical to the same query run standalone.
    pub report: MdpReport,
    /// Epoch of the model snapshot that scored this job (one-shot jobs
    /// through the cache only).
    pub model_epoch: Option<u64>,
    /// Whether the model was trained for this job or reused.
    pub cache: Option<CacheOutcome>,
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is retained until the job is closed. Boxed so
    /// the enum stays small while the report it carries can be large.
    Done(Box<JobResult>),
    /// Execution failed.
    Failed(String),
    /// Cancelled before completion (a running job's result is discarded).
    Cancelled,
}

/// Outcome of feeding a batch into a streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedSummary {
    /// Points accepted from this batch.
    pub points: u64,
    /// Points from this batch labeled outlier.
    pub outliers: u64,
    /// Session-lifetime points observed.
    pub total_points: u64,
    /// Session-lifetime outliers observed.
    pub total_outliers: u64,
}

/// What a successful [`Server::close`] closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    /// A batch job (queued: cancelled; running: result discarded;
    /// finished: forgotten).
    Job,
    /// A streaming session.
    Session,
}

/// Typed server errors, each mapped to a wire error kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full; nothing was enqueued or retained.
    Saturated(Saturated),
    /// The id is already in use by a live job or session.
    DuplicateId(String),
    /// No live job or session has this id.
    UnknownId(String),
    /// The request is structurally valid but cannot be served (e.g. feeding
    /// a batch job, retraining a job that never used the cache).
    BadRequest(String),
    /// Query validation or execution failed.
    Query(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated(s) => write!(f, "{s}"),
            ServeError::DuplicateId(id) => write!(f, "id {id:?} is already in use"),
            ServeError::UnknownId(id) => write!(f, "no job or session with id {id:?}"),
            ServeError::BadRequest(msg) => write!(f, "{msg}"),
            ServeError::Query(msg) => write!(f, "query failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

struct JobEntry {
    status: JobStatus,
    cancel_requested: bool,
    submitted: Instant,
    /// Cache provenance for retrains: the fingerprint plus what is needed
    /// to train its next epoch.
    retrain_source: RetrainSource,
}

/// What a job runs over.
pub(crate) enum JobInput {
    /// A one-shot job's rows in columns, encoded against the query's
    /// dictionary — or why they cannot be run, which fails the job with the
    /// error the standalone query returns.
    Columns(Result<Box<ColumnarInput>, String>),
    /// Rows for the partitioned and streaming executors.
    Points(Vec<Point>),
}

struct SessionEntry {
    session: StreamingSession,
    last_used: Instant,
}

struct Inner {
    cache: ModelCache,
    jobs: Mutex<HashMap<String, JobEntry>>,
    jobs_cond: Condvar,
    sessions: Mutex<HashMap<String, SessionEntry>>,
    registry: Mutex<MetricRegistry>,
    session_idle: Duration,
    started: Instant,
}

impl Inner {
    fn count(&self, name: &str) {
        lock(&self.registry).add(name, 1);
    }

    fn record_ns(&self, name: &str, ns: u64) {
        lock(&self.registry).record_ns(name, ns);
    }
}

/// A resident multi-query MacroBase server. See the crate docs for the
/// overall shape; construct with [`Server::start`].
pub struct Server {
    inner: Arc<Inner>,
    scheduler: Scheduler,
}

impl Server {
    /// Start worker threads and return a ready server.
    pub fn start(config: ServeConfig) -> Server {
        Server {
            inner: Arc::new(Inner {
                cache: ModelCache::new(),
                jobs: Mutex::new(HashMap::new()),
                jobs_cond: Condvar::new(),
                sessions: Mutex::new(HashMap::new()),
                registry: Mutex::new(MetricRegistry::new()),
                session_idle: config.session_idle,
                started: Instant::now(),
            }),
            scheduler: Scheduler::start(config.workers, config.max_queue),
        }
    }

    /// Submit a batch query under a fresh id. One-shot executions go
    /// through the shared model cache (train once, score for every
    /// subscriber); partitioned and run-to-completion streaming executions
    /// run the standalone engines unchanged. A one-shot batch is flattened
    /// and encoded here, on the caller's thread, into the columns the job
    /// runs over — the form the wire front end decodes requests into.
    pub fn submit(
        &self,
        id: &str,
        spec: QuerySpec,
        points: Vec<Point>,
        priority: Priority,
    ) -> Result<(), ServeError> {
        let input = match spec.executor {
            Executor::OneShot => JobInput::Columns(
                ColumnarInput::from_points(&spec.analysis, &points)
                    .map(Box::new)
                    .map_err(|e| e.to_string()),
            ),
            _ => JobInput::Points(points),
        };
        self.submit_input(id, spec, input, priority)
    }

    pub(crate) fn submit_input(
        &self,
        id: &str,
        spec: QuerySpec,
        input: JobInput,
        priority: Priority,
    ) -> Result<(), ServeError> {
        {
            let sessions = lock(&self.inner.sessions);
            if sessions.contains_key(id) {
                return Err(ServeError::DuplicateId(id.to_string()));
            }
        }
        {
            let mut jobs = lock(&self.inner.jobs);
            if jobs.contains_key(id) {
                return Err(ServeError::DuplicateId(id.to_string()));
            }
            jobs.insert(
                id.to_string(),
                JobEntry {
                    status: JobStatus::Queued,
                    cancel_requested: false,
                    submitted: Instant::now(),
                    retrain_source: None,
                },
            );
        }
        let inner = Arc::clone(&self.inner);
        let job_id = id.to_string();
        let work = Box::new(move || run_job(&inner, &job_id, spec, input));
        if let Err(saturated) = self.scheduler.submit(id, priority, work) {
            let mut jobs = lock(&self.inner.jobs);
            jobs.remove(id);
            self.inner.count("jobs_rejected");
            return Err(ServeError::Saturated(saturated));
        }
        self.inner.count("jobs_submitted");
        Ok(())
    }

    /// Current status of a job, optionally blocking until it reaches a
    /// terminal state (done / failed / cancelled) or `wait` elapses.
    pub fn poll(&self, id: &str, wait: Option<Duration>) -> Result<JobStatus, ServeError> {
        let deadline = wait.map(|w| Instant::now() + w);
        let mut jobs = lock(&self.inner.jobs);
        loop {
            let status = match jobs.get(id) {
                Some(entry) => entry.status.clone(),
                None => return Err(ServeError::UnknownId(id.to_string())),
            };
            let terminal = matches!(
                status,
                JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled
            );
            if terminal {
                return Ok(status);
            }
            let Some(deadline) = deadline else {
                return Ok(status);
            };
            let now = Instant::now();
            if now >= deadline {
                return Ok(status);
            }
            let (guard, _) = self
                .inner
                .jobs_cond
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            jobs = guard;
        }
    }

    /// Close a job or session.
    ///
    /// * queued job — removed from the admission queue, marked cancelled;
    /// * running job — marked for cancellation; its result is discarded;
    /// * finished job — forgotten;
    /// * session — closed and dropped.
    pub fn close(&self, id: &str) -> Result<Closed, ServeError> {
        {
            let mut sessions = lock(&self.inner.sessions);
            if sessions.remove(id).is_some() {
                drop(sessions);
                self.inner.count("sessions_closed");
                return Ok(Closed::Session);
            }
        }
        let mut jobs = lock(&self.inner.jobs);
        let entry = jobs
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownId(id.to_string()))?;
        match entry.status {
            JobStatus::Queued => {
                if self.scheduler.cancel(id) {
                    entry.status = JobStatus::Cancelled;
                } else {
                    // The worker already claimed it; discard on completion.
                    entry.cancel_requested = true;
                }
                drop(jobs);
                self.inner.jobs_cond.notify_all();
                self.inner.count("jobs_cancelled");
            }
            JobStatus::Running => {
                entry.cancel_requested = true;
                drop(jobs);
                self.inner.count("jobs_cancelled");
            }
            JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled => {
                jobs.remove(id);
            }
        }
        Ok(Closed::Job)
    }

    /// Enqueue (at [`Priority::Low`]) a background retrain of the model a
    /// finished one-shot job used. The next epoch is published when
    /// training completes; in-flight and already-finished readers keep the
    /// snapshot they hold.
    pub fn retrain(&self, id: &str) -> Result<(), ServeError> {
        let source = {
            let jobs = lock(&self.inner.jobs);
            let entry = jobs
                .get(id)
                .ok_or_else(|| ServeError::UnknownId(id.to_string()))?;
            entry.retrain_source.clone().ok_or_else(|| {
                ServeError::BadRequest(
                    "job did not execute through the model cache; nothing to retrain".to_string(),
                )
            })?
        };
        let (fingerprint, analysis, batch) = source;
        let inner = Arc::clone(&self.inner);
        let work = Box::new(move || {
            let query = MdpQuery::new(analysis);
            let outcome = inner.cache.retrain(fingerprint, || {
                query.train_columns(&batch).map_err(|e| e.to_string())
            });
            if outcome.is_ok() {
                inner.count("model_trainings");
                inner.count("epochs_published");
            }
        });
        self.scheduler
            .submit(&format!("{id}#retrain"), Priority::Low, work)
            .map_err(ServeError::Saturated)
    }

    /// The current published model snapshot behind a finished one-shot job,
    /// if any. Test/diagnostic surface for epoch semantics.
    pub fn model_snapshot(&self, id: &str) -> Option<Arc<ModelSnapshot>> {
        let fingerprint = {
            let jobs = lock(&self.inner.jobs);
            jobs.get(id)?.retrain_source.as_ref()?.0
        };
        self.inner.cache.peek(fingerprint)
    }

    /// Open a streaming session under `id`. The spec's executor must be
    /// [`Executor::Streaming`].
    pub fn open_session(&self, id: &str, spec: QuerySpec) -> Result<(), ServeError> {
        let Executor::Streaming { options } = spec.executor else {
            return Err(ServeError::BadRequest(
                "sessions require a streaming executor".to_string(),
            ));
        };
        self.sweep_idle_sessions();
        {
            let jobs = lock(&self.inner.jobs);
            if jobs.contains_key(id) {
                return Err(ServeError::DuplicateId(id.to_string()));
            }
        }
        let session = build_session(spec.analysis, &options)?;
        let mut sessions = lock(&self.inner.sessions);
        if sessions.contains_key(id) {
            return Err(ServeError::DuplicateId(id.to_string()));
        }
        sessions.insert(
            id.to_string(),
            SessionEntry {
                session,
                last_used: Instant::now(),
            },
        );
        drop(sessions);
        self.inner.count("sessions_opened");
        Ok(())
    }

    /// Feed a batch of points into an open session. Typed errors leave the
    /// session usable (see [`StreamingSession::feed`]).
    pub fn feed(&self, id: &str, points: &[Point]) -> Result<FeedSummary, ServeError> {
        let mut sessions = lock(&self.inner.sessions);
        let entry = sessions
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownId(id.to_string()))?;
        entry.last_used = Instant::now();
        let before = entry.session.points_seen();
        let result = entry.session.feed(points);
        let accepted = entry.session.points_seen() - before;
        let summary = FeedSummary {
            points: accepted,
            outliers: result.as_ref().copied().unwrap_or(0),
            total_points: entry.session.points_seen(),
            total_outliers: entry.session.outliers_seen(),
        };
        drop(sessions);
        {
            let mut registry = lock(&self.inner.registry);
            registry.add("session_points", summary.points);
        }
        match result {
            Ok(_) => Ok(summary),
            Err(e) => Err(ServeError::Query(e.to_string())),
        }
    }

    /// Render the current report of an open session (a snapshot; the
    /// session keeps accumulating).
    pub fn session_report(&self, id: &str) -> Result<MdpReport, ServeError> {
        let mut sessions = lock(&self.inner.sessions);
        let entry = sessions
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownId(id.to_string()))?;
        entry.last_used = Instant::now();
        Ok(entry.session.report())
    }

    /// Expire sessions idle longer than the configured limit; returns how
    /// many were dropped. Runs implicitly when sessions are opened.
    pub fn sweep_idle_sessions(&self) -> usize {
        let idle = self.inner.session_idle;
        let mut sessions = lock(&self.inner.sessions);
        let before = sessions.len();
        sessions.retain(|_, entry| entry.last_used.elapsed() < idle);
        let expired = before - sessions.len();
        drop(sessions);
        if expired > 0 {
            let mut registry = lock(&self.inner.registry);
            registry.add("sessions_expired", expired as u64);
        }
        expired
    }

    /// Snapshot of the serve-level metrics (counters for jobs, cache,
    /// trainings, sessions; gauges for queue depth and open sessions).
    pub fn stats(&self) -> MetricRegistry {
        let mut registry = lock(&self.inner.registry).clone();
        registry.set_gauge("queue_depth", self.scheduler.depth() as f64);
        registry.set_gauge(
            "sessions_open",
            lock(&self.inner.sessions).len() as f64,
        );
        registry
    }

    /// Nanoseconds since the server started.
    pub fn uptime_ns(&self) -> u64 {
        u64::try_from(self.inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn build_session(
    analysis: AnalysisConfig,
    options: &StreamingOptions,
) -> Result<StreamingSession, ServeError> {
    MdpQuery::new(analysis)
        .into_streaming(options)
        .map_err(|e| ServeError::Query(e.to_string()))
}

/// Execute one job on a worker thread and publish its terminal status.
fn run_job(inner: &Inner, id: &str, spec: QuerySpec, input: JobInput) {
    // Claim the job; a close() racing ahead of the worker wins.
    {
        let mut jobs = lock(&inner.jobs);
        let Some(entry) = jobs.get_mut(id) else {
            return;
        };
        if entry.cancel_requested {
            entry.status = JobStatus::Cancelled;
            drop(jobs);
            inner.jobs_cond.notify_all();
            return;
        }
        let wait_ns = u64::try_from(entry.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        entry.status = JobStatus::Running;
        drop(jobs);
        inner.record_ns("queue_wait_ns", wait_ns);
        inner.jobs_cond.notify_all();
    }

    let mut publish = Publish {
        inner,
        id,
        outcome: Err("job panicked".to_string()),
        retrain_source: None,
    };
    let exec_start = Instant::now();
    (publish.outcome, publish.retrain_source) = execute_job(inner, spec, input);
    inner.record_ns(
        "exec_ns",
        u64::try_from(exec_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
}

/// A running job's obligation to its pollers: whatever `outcome` holds when
/// this drops becomes the job's terminal status, and pollers are woken. It
/// starts as `Failed("job panicked")`, so a job that unwinds still ends
/// instead of staying `Running` until every poll times out.
struct Publish<'a> {
    inner: &'a Inner,
    id: &'a str,
    outcome: Result<JobResult, String>,
    retrain_source: RetrainSource,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let mut jobs = lock(&self.inner.jobs);
        let Some(entry) = jobs.get_mut(self.id) else {
            return;
        };
        if entry.cancel_requested {
            // Closed while running: the result is discarded, as promised.
            entry.status = JobStatus::Cancelled;
        } else {
            entry.retrain_source = self.retrain_source.take();
            entry.status = match std::mem::replace(&mut self.outcome, Err(String::new())) {
                Ok(result) => {
                    self.inner.count("jobs_completed");
                    JobStatus::Done(Box::new(result))
                }
                Err(message) => {
                    self.inner.count("jobs_failed");
                    JobStatus::Failed(message)
                }
            };
        }
        drop(jobs);
        self.inner.jobs_cond.notify_all();
    }
}

type RetrainSource = Option<(Fingerprint, AnalysisConfig, Arc<EncodedBatch>)>;

fn execute_job(
    inner: &Inner,
    spec: QuerySpec,
    input: JobInput,
) -> (Result<JobResult, String>, RetrainSource) {
    match input {
        JobInput::Columns(Err(message)) => (Err(message), None),
        JobInput::Columns(Ok(mut input)) => {
            let fingerprint = Fingerprint::of_columns(&spec.analysis, &input.batch);
            let query = MdpQuery::new(spec.analysis.clone());
            let cached = inner.cache.get_or_train(fingerprint, || {
                query.train_columns(&input.batch).map_err(|e| e.to_string())
            });
            let (snapshot, outcome) = match cached {
                Ok(hit) => hit,
                Err(message) => {
                    inner.count("cache_misses");
                    return (Err(message), None);
                }
            };
            match outcome {
                CacheOutcome::Miss => {
                    inner.count("cache_misses");
                    inner.count("model_trainings");
                    inner.count("epochs_published");
                }
                CacheOutcome::Hit => inner.count("cache_hits"),
            }
            let result = query
                .execute_columns_with_model(&snapshot.model, &mut input)
                .map(|report| JobResult {
                    report,
                    model_epoch: Some(snapshot.epoch),
                    cache: Some(outcome),
                })
                .map_err(|e| e.to_string());
            (
                result,
                Some((fingerprint, spec.analysis, Arc::new(input.batch))),
            )
        }
        JobInput::Points(points) => {
            let mut query = MdpQuery::new(spec.analysis);
            let result = query
                .execute(&spec.executor, &points)
                .map(|report| JobResult {
                    report,
                    model_epoch: None,
                    cache: None,
                })
                .map_err(|e| e.to_string());
            (result, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_that_unwinds_fails_and_wakes_its_poller() {
        let server = Arc::new(Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        lock(&server.inner.jobs).insert(
            "j".to_string(),
            JobEntry {
                status: JobStatus::Running,
                cancel_requested: false,
                submitted: Instant::now(),
                retrain_source: None,
            },
        );
        let poller = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.poll("j", Some(Duration::from_secs(60))))
        };
        let inner = Arc::clone(&server.inner);
        let worker = std::thread::spawn(move || {
            let _publish = Publish {
                inner: &inner,
                id: "j",
                outcome: Err("job panicked".to_string()),
                retrain_source: None,
            };
            panic!("estimator blew up");
        });
        assert!(worker.join().is_err());
        // Whether the poller parked before or after the unwind, it comes back
        // with the failure, not `Running` at its timeout.
        let status = poller.join().unwrap().unwrap();
        assert!(
            matches!(status, JobStatus::Failed(ref m) if m == "job panicked"),
            "{status:?}"
        );
        assert_eq!(server.stats().counter("jobs_failed"), 1);
    }
}
