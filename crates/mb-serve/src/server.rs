#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The resident server: the shell around the state machine.
//!
//! A [`Server`] is one `Mutex` over the crate's `State` (jobs, admission
//! queue, model table, sessions, metrics), one condvar its idle workers
//! wait on and one its blocked callers wait on, and a fixed set of worker
//! threads. Every public method and every worker step is one `apply` under
//! that lock; the data work — fingerprinting, training, scoring, running a
//! partitioned or streaming job, feeding a lent session — runs outside it.
//! Reports are produced by the exact same engine code a standalone
//! `MdpQuery::execute` runs, so sharing a cached model cannot change a
//! single byte of the report.

use crate::cache::{CacheOutcome, ModelSnapshot};
use crate::fingerprint::Fingerprint;
use crate::scheduler::{Priority, Saturated};
use crate::state::{Command, Effect, JobInput, Reply, State, Task};
use macrobase_core::operator::ColumnarInput;
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
use macrobase_core::streaming::StreamingSession;
use macrobase_core::types::{MdpReport, Point};
use mb_obs::MetricRegistry;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue (concurrent queries).
    pub workers: usize,
    /// Maximum number of jobs waiting for a worker before submissions are
    /// rejected with a typed saturation error.
    pub max_queue: usize,
    /// A streaming session idle for this long is expired by the next
    /// submit, open, feed, report or close, whichever id it names.
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

impl QuerySpec {
    /// Whether a batch job of this spec runs over columns through the
    /// model table: one-shot and coordinated both run the one-shot engine,
    /// so they share its fingerprint and its trained model.
    pub(crate) fn uses_model_table(&self) -> bool {
        matches!(
            self.executor,
            Executor::OneShot | Executor::Coordinated { .. }
        )
    }
}

/// A finished job: the report plus model-cache provenance. The provenance
/// lives *next to* the report, never inside it, so the report stays
/// byte-identical to a standalone run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The report, byte-identical to the same query run standalone.
    pub report: MdpReport,
    /// Epoch of the model snapshot that scored this job (one-shot and
    /// coordinated jobs, which run through the cache, only).
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

struct Shared {
    state: Mutex<State>,
    /// Idle workers wait here for a task.
    work: Condvar,
    /// Callers wait here for a job to end or a lent session to come back.
    changed: Condvar,
}

impl Shared {
    /// Take the lock, recovering from poisoning: no data work runs under
    /// it, and `apply` leaves the state whole between commands.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait on `condvar`, recovering from poisoning as [`Shared::lock`] does.
    fn wait<'a>(condvar: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        condvar.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Apply `command` now, wake whoever its effects name, and return its
    /// answer.
    #[expect(
        clippy::disallowed_methods,
        reason = "the shell reads the clock for the state machine, which takes time as input"
    )]
    fn call(&self, state: &mut State, command: Command) -> Result<Reply, ServeError> {
        let mut reply = Ok(Reply::Accepted);
        for effect in state.apply(command, Instant::now()) {
            match effect {
                Effect::Reply(answer) => reply = answer,
                Effect::WakeWorker => self.work.notify_one(),
                Effect::WakeCallers => self.changed.notify_all(),
            }
        }
        reply
    }
}

/// A resident multi-query MacroBase server. See the crate docs for the
/// overall shape; construct with [`Server::start`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl Server {
    /// Start worker threads and return a ready server.
    #[expect(
        clippy::disallowed_methods,
        reason = "resident server workers park on a condvar, and mb-pool tasks must never \
                  block; the shell reads the clock for the state machine"
    )]
    pub fn start(config: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::new(config.max_queue, config.session_idle)),
            work: Condvar::new(),
            changed: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::expect_used,
                    reason = "at startup, before any request: a server with no workers cannot \
                              serve"
                )]
                std::thread::Builder::new()
                    .name(format!("mb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn server worker")
            })
            .collect();
        Server {
            shared,
            workers,
            started: Instant::now(),
        }
    }

    /// Submit a batch query under a fresh id. One-shot and coordinated
    /// executions (coordinated runs the one-shot engine) go through the
    /// shared model cache: train once, score for every subscriber, and the
    /// result names the model epoch that answered. Partitioned and
    /// run-to-completion streaming executions run the standalone engines
    /// unchanged. A model-table batch is flattened and encoded here, on the
    /// caller's thread, into the columns the job runs over — the form the
    /// wire front end decodes requests into. An analysis no executor could
    /// run is refused here, as [`ServeError::Query`], before admission.
    pub fn submit(
        &self,
        id: &str,
        spec: QuerySpec,
        points: Vec<Point>,
        priority: Priority,
    ) -> Result<(), ServeError> {
        let input = if spec.uses_model_table() {
            JobInput::columns(ColumnarInput::from_points(
                &spec.analysis,
                &spec.executor,
                &points,
            ))
        } else {
            JobInput::Rows(Ok(points))
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
        spec.analysis
            .validate()
            .map_err(|e| ServeError::Query(e.to_string()))?;
        let submit = Command::Submit(id.to_string(), priority, spec, input);
        self.call(submit).map(drop)
    }

    /// Current status of a job, optionally blocking until it reaches a
    /// terminal state (done / failed / cancelled) or `wait` elapses.
    #[expect(
        clippy::disallowed_methods,
        reason = "the shell reads the clock for the state machine and for a poll's deadline"
    )]
    pub fn poll(&self, id: &str, wait: Option<Duration>) -> Result<JobStatus, ServeError> {
        let deadline = wait.map(|w| Instant::now() + w);
        let mut state = self.shared.lock();
        loop {
            let status = state.status(id)?;
            let terminal = matches!(
                status,
                JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled
            );
            let now = Instant::now();
            match deadline {
                Some(deadline) if !terminal && now < deadline => {
                    state = self
                        .shared
                        .changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                _ => return Ok(status),
            }
        }
    }

    /// Close a job or session.
    ///
    /// * queued job — removed from the admission queue, marked cancelled;
    /// * running job — marked for cancellation; its result is discarded;
    /// * finished job — forgotten;
    /// * session — closed and dropped.
    pub fn close(&self, id: &str) -> Result<Closed, ServeError> {
        let close = Command::Close(id.to_string());
        match self.shared.call(&mut self.returned(id), close)? {
            Reply::Closed(closed) => Ok(closed),
            _ => Err(ServeError::UnknownId(id.to_string())),
        }
    }

    /// Enqueue (at [`Priority::Low`]) a background retrain of the model a
    /// finished one-shot job used. The next epoch is published when
    /// training completes; in-flight and already-finished readers keep the
    /// snapshot they hold.
    pub fn retrain(&self, id: &str) -> Result<(), ServeError> {
        self.call(Command::Retrain(id.to_string())).map(drop)
    }

    /// The current published model snapshot behind a finished one-shot job,
    /// if any. Test/diagnostic surface for epoch semantics.
    pub fn model_snapshot(&self, id: &str) -> Option<Arc<ModelSnapshot>> {
        self.shared.lock().snapshot(id)
    }

    /// Open a streaming session under `id`. The spec's executor must be
    /// [`Executor::Streaming`].
    pub fn open_session(&self, id: &str, spec: QuerySpec) -> Result<(), ServeError> {
        let Executor::Streaming { options } = spec.executor else {
            return Err(ServeError::BadRequest(
                "sessions require a streaming executor".to_string(),
            ));
        };
        let session = MdpQuery::new(spec.analysis)
            .into_streaming(&options)
            .map(Box::new)
            .map_err(|e| ServeError::Query(e.to_string()));
        self.call(Command::Open(id.to_string(), session)).map(drop)
    }

    /// Feed a batch of points into an open session. Typed errors leave the
    /// session usable (see [`StreamingSession::feed`]).
    pub fn feed(&self, id: &str, points: &[Point]) -> Result<FeedSummary, ServeError> {
        let (summary, result) = self.with_session(id, |session| {
            let before = session.points_seen();
            let result = session.feed(points);
            let summary = FeedSummary {
                points: session.points_seen() - before,
                outliers: result.as_ref().copied().unwrap_or(0),
                total_points: session.points_seen(),
                total_outliers: session.outliers_seen(),
            };
            (Some(summary.points), (summary, result))
        })?;
        result.map_err(|e| ServeError::Query(e.to_string()))?;
        Ok(summary)
    }

    /// Render the current report of an open session (a snapshot; the
    /// session keeps accumulating).
    pub fn session_report(&self, id: &str) -> Result<MdpReport, ServeError> {
        self.with_session(id, |session| (None, session.report()))
    }

    /// Snapshot of the serve-level metrics (counters for jobs, cache,
    /// trainings, sessions; gauges for queue depth and open sessions).
    pub fn stats(&self) -> MetricRegistry {
        self.shared.lock().stats()
    }

    /// Nanoseconds since the server started.
    pub(crate) fn uptime_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn call(&self, command: Command) -> Result<Reply, ServeError> {
        self.shared.call(&mut self.shared.lock(), command)
    }

    /// The lock, once the session `id` names (if any) is not lent out.
    fn returned(&self, id: &str) -> MutexGuard<'_, State> {
        let mut state = self.shared.lock();
        while state.lent(id) {
            state = Shared::wait(&self.shared.changed, state);
        }
        state
    }

    /// Borrow session `id` out of the state, run `use_session` on it with
    /// no lock held, and hand it back with the points it accepted. A
    /// session that unwinds is dropped, not returned half-updated.
    fn with_session<R>(
        &self,
        id: &str,
        use_session: impl FnOnce(&mut StreamingSession) -> (Option<u64>, R),
    ) -> Result<R, ServeError> {
        let lend = Command::Lend(id.to_string());
        let Reply::Lent(mut session) = self.shared.call(&mut self.returned(id), lend)? else {
            return Err(ServeError::UnknownId(id.to_string()));
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| use_session(&mut session)));
        let (session, fed) = match &outcome {
            Ok((fed, _)) => (Some(session), *fed),
            Err(_) => (None, None),
        };
        self.call(Command::Return(id.to_string(), session, fed))?;
        match outcome {
            Ok((_, result)) => Ok(result),
            Err(panic) => resume_unwind(panic),
        }
    }
}

impl Drop for Server {
    /// Stop the workers once every queued task has run.
    fn drop(&mut self) {
        let _ = self.call(Command::Shutdown);
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A worker: hand back what the last task produced, take the next task,
/// run it with no lock held. The worker set is fixed, so a task that
/// unwinds does not take its worker with it: it becomes the failed
/// completions [`Task::unwound`] names.
fn worker_loop(shared: &Shared) {
    let mut done = Vec::new();
    loop {
        let task = {
            let mut state = shared.lock();
            for result in done.drain(..) {
                let _ = shared.call(&mut state, result);
            }
            loop {
                match shared.call(&mut state, Command::Next) {
                    Ok(Reply::Run(task)) => break task,
                    Ok(Reply::Stop) => return,
                    _ => state = Shared::wait(&shared.work, state),
                }
            }
        };
        let unwound = task.unwound();
        done = match catch_unwind(AssertUnwindSafe(|| run(task))) {
            Ok(result) => vec![result],
            Err(_) => unwound,
        };
    }
}

/// A job's outcome from its report and the snapshot (epoch, hit or miss)
/// that scored it, if any.
fn outcome<E: std::fmt::Display>(
    report: Result<MdpReport, E>,
    read: Option<(u64, CacheOutcome)>,
) -> Result<JobResult, String> {
    report
        .map(|report| JobResult {
            report,
            model_epoch: read.map(|(epoch, _)| epoch),
            cache: read.map(|(_, cache)| cache),
        })
        .map_err(|e| e.to_string())
}

/// The data work of one task.
fn run(task: Task) -> Command {
    match task {
        Task::Fingerprint(job) => {
            let fingerprint = Fingerprint::of_columns(&job.analysis, &job.input.batch);
            Command::Fingerprinted(job, fingerprint)
        }
        Task::Train(fingerprint, job) => {
            let model = MdpQuery::new(job.analysis.clone()).train_columns(&job.input.batch);
            Command::Trained(fingerprint, model.map_err(|e| e.to_string()), Some(job))
        }
        Task::Retrain(fingerprint, analysis, batch) => {
            let model = MdpQuery::new(analysis).train_columns(&batch);
            Command::Trained(fingerprint, model.map_err(|e| e.to_string()), None)
        }
        Task::Score(mut job, fingerprint, snapshot, cache) => {
            let query = MdpQuery::new(job.analysis.clone());
            let report = query.execute_columns_with_model(&snapshot.model, &mut job.input);
            let outcome = outcome(report, Some((snapshot.epoch, cache)));
            let source = Some((fingerprint, job.analysis, Arc::new(job.input.batch)));
            Command::Finished(job.id, outcome, source)
        }
        Task::Run(id, spec, points) => {
            let outcome = points.and_then(|points| {
                outcome(
                    MdpQuery::new(spec.analysis).execute(&spec.executor, &points),
                    None,
                )
            });
            Command::Finished(id, outcome, None)
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test code: the test stands in for the worker, and a poller waits beside it"
)]
mod tests {
    use super::*;

    #[test]
    fn a_job_that_unwinds_fails_and_wakes_its_poller() {
        // The shell with no workers: this test is the worker.
        let server = Arc::new(Server {
            shared: Arc::new(Shared {
                state: Mutex::new(State::new(16, Duration::from_secs(900))),
                work: Condvar::new(),
                changed: Condvar::new(),
            }),
            workers: Vec::new(),
            started: Instant::now(),
        });
        let spec = QuerySpec {
            analysis: AnalysisConfig::default(),
            executor: Executor::streaming(),
        };
        server
            .submit_input("j", spec, JobInput::Rows(Ok(Vec::new())), Priority::Normal)
            .unwrap();
        let Ok(Reply::Run(task)) = server.call(Command::Next) else {
            panic!("the queued job is handed out");
        };
        let poller = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.poll("j", Some(Duration::from_secs(60))))
        };
        let unwound = task.unwound();
        assert!(catch_unwind(|| -> Command { panic!("estimator blew up") }).is_err());
        for result in unwound {
            assert!(server.call(result).is_ok());
        }
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
