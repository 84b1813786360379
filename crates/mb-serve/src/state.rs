//! The server as one state machine: every job, session, queued task and
//! model lives in one plain [`State`], changed only by [`State::apply`].
//!
//! `apply` takes no lock, spawns no thread and reads no clock: time comes in
//! as an argument, and what must happen outside — an answer, a wake-up —
//! goes out as an [`Effect`]. Workers ask for [`Task`]s, run the data work
//! outside and hand each result back as a [`Command`]. The shell in
//! `server.rs` runs `apply` under one mutex, so the order the lock is taken
//! in *is* the command order: a total order, fixed before any effect runs.
//!
//! The model table holds, per [`Fingerprint`], either a first training in
//! flight with the jobs *parked* on it, or the published [`ModelSnapshot`].
//! A parked job holds no worker. The training's result publishes the next
//! epoch and turns each parked job into a scoring task — or fails them all
//! and forgets the fingerprint, so the next request trains again.

use crate::cache::{CacheOutcome, ModelSnapshot};
use crate::fingerprint::Fingerprint;
use crate::scheduler::{Priority, Saturated};
use crate::server::{Closed, JobResult, JobStatus, QuerySpec, ServeError};
use macrobase_core::executor::FittedModel;
use macrobase_core::operator::{ColumnarInput, EncodedBatch};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::streaming::StreamingSession;
use macrobase_core::types::Point;
use mb_obs::MetricRegistry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a job runs over.
pub(crate) enum JobInput {
    /// A one-shot or coordinated job's rows in columns, interned into its
    /// dictionary.
    Columns(Box<ColumnarInput>),
    /// Rows for the naïve partitioned and streaming executors — or why a batch
    /// cannot run, which fails the job as the standalone query would.
    Rows(Result<Vec<Point>, String>),
}

impl JobInput {
    /// A model-table job's columns, or why its rows cannot run.
    pub(crate) fn columns(columns: macrobase_core::Result<ColumnarInput>) -> Self {
        match columns {
            Ok(columns) => JobInput::Columns(Box::new(columns)),
            Err(e) => JobInput::Rows(Err(e.to_string())),
        }
    }
}

/// A one-shot or coordinated job over columns: it runs through the model
/// table.
pub(crate) struct CachedJob {
    pub(crate) id: String,
    pub(crate) analysis: AnalysisConfig,
    pub(crate) input: Box<ColumnarInput>,
}

/// What a finished one-shot job's model can be retrained from.
pub(crate) type RetrainSource = Option<(Fingerprint, AnalysisConfig, Arc<EncodedBatch>)>;

/// Work for a worker, run outside the state.
pub(crate) enum Task {
    /// Fingerprint a one-shot job's batch; its model is looked up next.
    Fingerprint(CachedJob),
    /// Train a fingerprint's first epoch; the job scores against it.
    Train(Fingerprint, CachedJob),
    /// Train the next epoch of a published fingerprint from a kept batch.
    Retrain(Fingerprint, AnalysisConfig, Arc<EncodedBatch>),
    /// Score a one-shot job against a published snapshot of a fingerprint,
    /// found as a hit or trained for it.
    Score(CachedJob, Fingerprint, Arc<ModelSnapshot>, CacheOutcome),
    /// Run a partitioned or streaming job (id, spec, rows), or fail one
    /// whose batch could not be read.
    Run(String, QuerySpec, Result<Vec<Point>, String>),
}

impl Task {
    fn job_id(&self) -> Option<&str> {
        match self {
            Task::Fingerprint(job) | Task::Train(_, job) | Task::Score(job, ..) => Some(&job.id),
            Task::Run(id, ..) => Some(id),
            Task::Retrain(..) => None,
        }
    }

    /// The results that stand in for this task if it unwinds: a training
    /// fails with `training panicked` (so does every job parked on it), and
    /// then its job fails with `job panicked`.
    pub(crate) fn unwound(&self) -> Vec<Command> {
        let mut results = Vec::new();
        if let Task::Train(fingerprint, _) | Task::Retrain(fingerprint, ..) = self {
            let failed = Err("training panicked".to_string());
            results.push(Command::Trained(*fingerprint, failed, None));
        }
        if let Some(id) = self.job_id() {
            let failed = Err("job panicked".to_string());
            results.push(Command::Finished(id.to_string(), failed, None));
        }
        results
    }
}

/// An input to the state machine: a caller's request or a worker's result.
pub(crate) enum Command {
    /// Admit a batch job under an id.
    Submit(String, Priority, QuerySpec, JobInput),
    /// Cancel, forget or close whatever the id names.
    Close(String),
    /// Queue a retrain of the model a finished one-shot job used.
    Retrain(String),
    /// Open a streaming session, built (or refused) by the caller.
    Open(String, Result<Box<StreamingSession>, ServeError>),
    /// Lend a session to the caller, who feeds or renders it.
    Lend(String),
    /// Give a lent session back (`None`: it unwound, so drop it), with the
    /// points a feed accepted.
    Return(String, Option<Box<StreamingSession>>, Option<u64>),
    /// A worker asks for its next task.
    Next,
    /// Stop the workers once no task is left.
    Shutdown,
    /// A one-shot job's fingerprint is known.
    Fingerprinted(CachedJob, Fingerprint),
    /// A training ended. `Ok` publishes the fingerprint's next epoch; `Err`
    /// fails a first training's parked jobs and leaves a published epoch in
    /// place. The job that trained it scores against it or fails with it.
    Trained(Fingerprint, Result<FittedModel, String>, Option<CachedJob>),
    /// A job ran to its outcome.
    Finished(String, Result<JobResult, String>, RetrainSource),
}

/// The answer to a command.
pub(crate) enum Reply {
    /// Admitted, opened, queued, handed back or noted.
    Accepted,
    Closed(Closed),
    Lent(Box<StreamingSession>),
    /// The asking worker's next task.
    Run(Task),
    /// No task for the asking worker: it waits for one.
    Wait,
    /// No task is left and the server is shutting down: the worker exits.
    Stop,
}

/// What the shell must do after a command.
pub(crate) enum Effect {
    /// Answer the command's sender.
    Reply(Result<Reply, ServeError>),
    /// A task is waiting: wake an idle worker.
    WakeWorker,
    /// A job or session changed: wake blocked callers.
    WakeCallers,
}

struct JobEntry {
    status: JobStatus,
    cancel_requested: bool,
    submitted: Instant,
    started: Instant,
    retrain_source: RetrainSource,
}

enum Model {
    Training(Vec<CachedJob>),
    /// Replaced wholesale by a retrain.
    Ready(Arc<ModelSnapshot>),
}

struct SessionEntry {
    /// `None` while lent out.
    session: Option<Box<StreamingSession>>,
    last_used: Instant,
}

/// Every table of the server. See the module docs.
#[derive(Default)]
pub(crate) struct State {
    jobs: HashMap<String, JobEntry>,
    sessions: HashMap<String, SessionEntry>,
    models: HashMap<Fingerprint, Model>,
    /// Admitted tasks by priority class: high, normal, low.
    queues: [VecDeque<Task>; 3],
    /// Tasks of jobs already running; they go before any queued task.
    ready: VecDeque<Task>,
    max_queue: usize,
    session_idle: Duration,
    registry: MetricRegistry,
    shutdown: bool,
    /// The effects of the command being applied.
    out: Vec<Effect>,
}

fn in_use(id: &str) -> ServeError {
    ServeError::BadRequest(format!("session {id:?} is in use"))
}

impl State {
    pub(crate) fn new(max_queue: usize, session_idle: Duration) -> State {
        State {
            max_queue,
            session_idle,
            ..State::default()
        }
    }

    /// Apply one command at `now`; the effects are for the shell to carry out.
    /// A command that reads the session table first expires the sessions
    /// idle at `now`, so expiry never waits for unrelated traffic.
    pub(crate) fn apply(&mut self, command: Command, now: Instant) -> Vec<Effect> {
        if let Command::Submit(..) | Command::Open(..) | Command::Lend(_) | Command::Close(_) =
            command
        {
            self.sweep(now);
        }
        let reply = match command {
            Command::Submit(id, priority, spec, input) => {
                self.submit(id, priority, spec, input, now)
            }
            Command::Close(id) => self.close(&id),
            Command::Retrain(id) => self.retrain(&id),
            Command::Open(id, session) => self.open(id, session, now),
            Command::Lend(id) => match self.sessions.get_mut(&id).map(|e| e.session.take()) {
                Some(Some(session)) => Ok(Reply::Lent(session)),
                Some(None) => Err(in_use(&id)),
                None => Err(ServeError::UnknownId(id)),
            },
            Command::Return(id, session, fed) => {
                if let Some(points) = fed {
                    self.registry.add("session_points", points);
                }
                match (session, self.sessions.get_mut(&id)) {
                    (Some(session), Some(entry)) => {
                        entry.session = Some(session);
                        entry.last_used = now;
                    }
                    _ => drop(self.sessions.remove(&id)),
                }
                self.out.push(Effect::WakeCallers);
                Ok(Reply::Accepted)
            }
            Command::Next => Ok(match self.next_task(now) {
                Some(task) => Reply::Run(task),
                None if self.shutdown => Reply::Stop,
                None => Reply::Wait,
            }),
            Command::Shutdown => {
                self.shutdown = true;
                Ok(Reply::Accepted)
            }
            Command::Fingerprinted(job, fingerprint) => Ok(self.look_up(job, fingerprint)),
            Command::Trained(fingerprint, model, job) => {
                Ok(self.trained(fingerprint, model, job, now))
            }
            Command::Finished(id, outcome, source) => Ok(self.finish(&id, outcome, source, now)),
        };
        self.out.push(Effect::Reply(reply));
        std::mem::take(&mut self.out)
    }

    fn submit(
        &mut self,
        id: String,
        priority: Priority,
        spec: QuerySpec,
        input: JobInput,
        now: Instant,
    ) -> Result<Reply, ServeError> {
        if self.jobs.contains_key(&id) || self.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateId(id));
        }
        let task = match input {
            JobInput::Columns(input) => Task::Fingerprint(CachedJob {
                id: id.clone(),
                analysis: spec.analysis,
                input,
            }),
            JobInput::Rows(points) => Task::Run(id.clone(), spec, points),
        };
        if let Err(saturated) = self.enqueue(priority, task) {
            self.registry.add("jobs_rejected", 1);
            return Err(ServeError::Saturated(saturated));
        }
        let entry = JobEntry {
            status: JobStatus::Queued,
            cancel_requested: false,
            submitted: now,
            started: now,
            retrain_source: None,
        };
        self.jobs.insert(id, entry);
        self.registry.add("jobs_submitted", 1);
        Ok(Reply::Accepted)
    }

    fn enqueue(&mut self, priority: Priority, task: Task) -> Result<(), Saturated> {
        let queued = self.depth();
        if queued >= self.max_queue {
            let limit = self.max_queue;
            return Err(Saturated { queued, limit });
        }
        self.queues[priority as usize].push_back(task);
        self.out.push(Effect::WakeWorker);
        Ok(())
    }

    fn close(&mut self, id: &str) -> Result<Reply, ServeError> {
        if let Some(entry) = self.sessions.get(id) {
            if entry.session.is_none() {
                return Err(in_use(id));
            }
            self.sessions.remove(id);
            self.registry.add("sessions_closed", 1);
            return Ok(Reply::Closed(Closed::Session));
        }
        let unknown = || ServeError::UnknownId(id.to_string());
        let entry = self.jobs.get_mut(id).ok_or_else(unknown)?;
        match entry.status {
            JobStatus::Queued => {
                for queue in &mut self.queues {
                    queue.retain(|task| task.job_id() != Some(id));
                }
                entry.status = JobStatus::Cancelled;
                self.registry.add("jobs_cancelled", 1);
                self.out.push(Effect::WakeCallers);
            }
            JobStatus::Running => {
                // Its result is discarded when it finishes.
                entry.cancel_requested = true;
                self.registry.add("jobs_cancelled", 1);
            }
            JobStatus::Done(_) | JobStatus::Failed(_) | JobStatus::Cancelled => {
                self.jobs.remove(id);
            }
        }
        Ok(Reply::Closed(Closed::Job))
    }

    fn retrain(&mut self, id: &str) -> Result<Reply, ServeError> {
        let unknown = || ServeError::UnknownId(id.to_string());
        let entry = self.jobs.get(id).ok_or_else(unknown)?;
        let Some((fingerprint, analysis, batch)) = entry.retrain_source.clone() else {
            return Err(ServeError::BadRequest(
                "job did not execute through the model cache; nothing to retrain".to_string(),
            ));
        };
        let task = Task::Retrain(fingerprint, analysis, batch);
        self.enqueue(Priority::Low, task)
            .map_err(ServeError::Saturated)?;
        Ok(Reply::Accepted)
    }

    fn open(
        &mut self,
        id: String,
        session: Result<Box<StreamingSession>, ServeError>,
        now: Instant,
    ) -> Result<Reply, ServeError> {
        if self.jobs.contains_key(&id) {
            return Err(ServeError::DuplicateId(id));
        }
        let session = Some(session?);
        if self.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateId(id));
        }
        let last_used = now;
        self.sessions
            .insert(id, SessionEntry { session, last_used });
        self.registry.add("sessions_opened", 1);
        Ok(Reply::Accepted)
    }

    /// Expire sessions idle for at least the configured limit. A lent
    /// session is in use, so never idle.
    fn sweep(&mut self, now: Instant) {
        let (idle, before) = (self.session_idle, self.sessions.len());
        self.sessions.retain(|_, entry| {
            entry.session.is_none() || now.saturating_duration_since(entry.last_used) < idle
        });
        let expired = before - self.sessions.len();
        if expired > 0 {
            self.registry.add("sessions_expired", expired as u64);
        }
    }

    fn next_task(&mut self, now: Instant) -> Option<Task> {
        if let Some(task) = self.ready.pop_front() {
            return Some(task);
        }
        let task = self.queues.iter_mut().find_map(VecDeque::pop_front)?;
        if let Some(entry) = task.job_id().and_then(|id| self.jobs.get_mut(id)) {
            entry.status = JobStatus::Running;
            entry.started = now;
            let wait = now.saturating_duration_since(entry.submitted);
            self.registry.record("queue_wait_ns", wait);
            self.out.push(Effect::WakeCallers);
        }
        Some(task)
    }

    /// A fingerprinted job scores against the published epoch, parks on the
    /// training in flight, or trains; its worker goes on with whichever
    /// task that makes.
    fn look_up(&mut self, job: CachedJob, fingerprint: Fingerprint) -> Reply {
        match self.models.get_mut(&fingerprint) {
            Some(Model::Ready(snapshot)) => {
                let task = Task::Score(job, fingerprint, Arc::clone(snapshot), CacheOutcome::Hit);
                self.registry.add("cache_hits", 1);
                self.ready.push_front(task);
            }
            Some(Model::Training(parked)) => parked.push(job),
            None => {
                self.registry.add("cache_misses", 1);
                self.models.insert(fingerprint, Model::Training(Vec::new()));
                self.ready.push_front(Task::Train(fingerprint, job));
            }
        }
        Reply::Accepted
    }

    fn trained(
        &mut self,
        fingerprint: Fingerprint,
        model: Result<FittedModel, String>,
        job: Option<CachedJob>,
        now: Instant,
    ) -> Reply {
        let previous = self.models.remove(&fingerprint);
        let model = match model {
            Ok(model) => model,
            Err(message) => {
                // A failed first training is forgotten, so the next request
                // trains again; a failed retrain leaves its epoch in place.
                let parked = match previous {
                    Some(Model::Training(parked)) => parked,
                    Some(ready) => {
                        self.models.insert(fingerprint, ready);
                        Vec::new()
                    }
                    None => Vec::new(),
                };
                for job in parked {
                    self.registry.add("cache_misses", 1);
                    self.finish(&job.id, Err(message.clone()), None, now);
                }
                if let Some(job) = job {
                    self.finish(&job.id, Err(message), None, now);
                }
                return Reply::Accepted;
            }
        };
        let (epoch, parked) = match previous {
            Some(Model::Ready(current)) => (current.epoch + 1, Vec::new()),
            Some(Model::Training(parked)) => (1, parked),
            None => (1, Vec::new()),
        };
        let snapshot = Arc::new(ModelSnapshot { epoch, model });
        self.models
            .insert(fingerprint, Model::Ready(Arc::clone(&snapshot)));
        self.registry.add("model_trainings", 1);
        self.registry.add("epochs_published", 1);
        for job in parked {
            let snapshot = Arc::clone(&snapshot);
            self.registry.add("cache_hits", 1);
            self.ready
                .push_back(Task::Score(job, fingerprint, snapshot, CacheOutcome::Hit));
            self.out.push(Effect::WakeWorker);
        }
        if let Some(job) = job {
            self.ready
                .push_front(Task::Score(job, fingerprint, snapshot, CacheOutcome::Miss));
        }
        Reply::Accepted
    }

    fn finish(
        &mut self,
        id: &str,
        outcome: Result<JobResult, String>,
        source: RetrainSource,
        now: Instant,
    ) -> Reply {
        if let Some(entry) = self.jobs.get_mut(id) {
            let exec = now.saturating_duration_since(entry.started);
            self.registry.record("exec_ns", exec);
            if entry.cancel_requested {
                // Closed while running: the result is discarded, as promised.
                entry.status = JobStatus::Cancelled;
            } else {
                entry.retrain_source = source;
                entry.status = match outcome {
                    Ok(result) => {
                        self.registry.add("jobs_completed", 1);
                        JobStatus::Done(Box::new(result))
                    }
                    Err(message) => {
                        self.registry.add("jobs_failed", 1);
                        JobStatus::Failed(message)
                    }
                };
            }
            self.out.push(Effect::WakeCallers);
        }
        Reply::Accepted
    }

    /// Tasks waiting in the admission queue (all classes).
    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether `id` names a session that is lent out.
    pub(crate) fn lent(&self, id: &str) -> bool {
        let entry = self.sessions.get(id);
        entry.is_some_and(|entry| entry.session.is_none())
    }

    pub(crate) fn status(&self, id: &str) -> Result<JobStatus, ServeError> {
        let entry = self.jobs.get(id);
        entry
            .map(|entry| entry.status.clone())
            .ok_or_else(|| ServeError::UnknownId(id.to_string()))
    }

    /// The published snapshot behind a finished one-shot job, if any.
    pub(crate) fn snapshot(&self, id: &str) -> Option<Arc<ModelSnapshot>> {
        let fingerprint = self.jobs.get(id)?.retrain_source.as_ref()?.0;
        match self.models.get(&fingerprint)? {
            Model::Ready(snapshot) => Some(Arc::clone(snapshot)),
            Model::Training(_) => None,
        }
    }

    /// The registry, with gauges for queue depth and open sessions.
    pub(crate) fn stats(&self) -> MetricRegistry {
        let mut registry = self.registry.clone();
        registry.set_gauge("queue_depth", self.depth() as f64);
        registry.set_gauge("sessions_open", self.sessions.len() as f64);
        registry
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use macrobase_core::query::{Executor, MdpQuery, StreamingOptions};
    use macrobase_core::types::MdpReport;
    use std::collections::BTreeMap;

    fn batch(salt: usize) -> Vec<Point> {
        (0..200)
            .map(|i| Point::simple(10.0 + ((i + salt) % 7) as f64 * 0.2, format!("d{}", i % 10)))
            .collect()
    }

    /// The `n`th of seven distinct fingerprints.
    pub(crate) fn fingerprint(n: usize) -> Fingerprint {
        static FINGERPRINTS: std::sync::OnceLock<Vec<Fingerprint>> = std::sync::OnceLock::new();
        FINGERPRINTS.get_or_init(|| {
            (0..7)
                .map(|n| Fingerprint::compute(&AnalysisConfig::default(), &batch(n)))
                .collect()
        })[n]
    }

    /// A fitted model to publish as a synthetic training result.
    pub(crate) fn model() -> FittedModel {
        static MODEL: std::sync::OnceLock<FittedModel> = std::sync::OnceLock::new();
        MODEL
            .get_or_init(|| {
                MdpQuery::with_defaults()
                    .train(&batch(0))
                    .expect("a clean batch trains")
            })
            .clone()
    }

    fn report() -> MdpReport {
        MdpReport {
            explanations: Vec::new(),
            num_points: 0,
            num_outliers: 0,
            score_cutoff: None,
            scores: Vec::new(),
            outlier_rows: Vec::new(),
            partition_reports: None,
            trace: None,
        }
    }

    pub(crate) fn session() -> StreamingSession {
        MdpQuery::with_defaults()
            .into_streaming(&StreamingOptions::default())
            .expect("default streaming options are valid")
    }

    /// How a worker's task ends.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Outcome {
        /// As the real task would on good data.
        Ok,
        /// A training returns this error (other tasks end normally).
        Fail(&'static str),
        /// The task unwinds; the shell hands back [`Task::unwound`].
        Unwind,
    }

    /// A task as handed to a worker, for assertions.
    #[derive(Clone, Debug)]
    pub(crate) struct Handed {
        pub(crate) kind: &'static str,
        pub(crate) id: Option<String>,
        /// The snapshot a scoring task reads.
        pub(crate) snapshot: Option<Arc<ModelSnapshot>>,
    }

    fn handed(task: &Task) -> Handed {
        let (kind, snapshot) = match task {
            Task::Fingerprint(_) => ("fingerprint", None),
            Task::Train(..) => ("train", None),
            Task::Retrain(..) => ("retrain", None),
            Task::Score(_, _, snapshot, _) => ("score", Some(Arc::clone(snapshot))),
            Task::Run(..) => ("run", None),
        };
        Handed {
            kind,
            id: task.job_id().map(str::to_string),
            snapshot,
        }
    }

    /// A deterministic stand-in for the shell: worker slots that hold a
    /// task, a clock that moves only when told, and synthetic results.
    pub(crate) struct Driver {
        pub(crate) state: State,
        pub(crate) now: Instant,
        pub(crate) workers: Vec<Option<Task>>,
        /// Which fingerprint each job's batch hashes to.
        pub(crate) fingerprints: HashMap<String, Fingerprint>,
        /// Every task handed out, in order.
        pub(crate) handed: Vec<Handed>,
        /// How many times blocked callers were woken.
        pub(crate) caller_wakeups: usize,
        model: FittedModel,
    }

    impl Driver {
        pub(crate) fn new(workers: usize, max_queue: usize) -> Driver {
            Driver {
                state: State::new(max_queue, Duration::from_secs(900)),
                now: Instant::now(),
                workers: (0..workers).map(|_| None).collect(),
                fingerprints: HashMap::new(),
                handed: Vec::new(),
                caller_wakeups: 0,
                model: model(),
            }
        }

        /// Apply one command; returns its answer.
        pub(crate) fn call(&mut self, command: Command) -> Result<Reply, ServeError> {
            let mut reply = None;
            for effect in self.state.apply(command, self.now) {
                match effect {
                    Effect::Reply(r) => reply = Some(r),
                    Effect::WakeCallers => self.caller_wakeups += 1,
                    Effect::WakeWorker => {}
                }
            }
            reply.expect("every command is answered")
        }

        /// Submit a job, then let idle workers claim. `fingerprint: Some(n)`
        /// is a one-shot job over columns hashing to [`fingerprint`]`(n)`;
        /// `None` is a job that bypasses the model table.
        pub(crate) fn submit(
            &mut self,
            id: &str,
            fingerprint: Option<usize>,
            priority: Priority,
        ) -> Result<(), ServeError> {
            let analysis = AnalysisConfig::default();
            let input = match fingerprint {
                Some(n) => {
                    self.fingerprints
                        .insert(id.to_string(), super::tests::fingerprint(n));
                    JobInput::Columns(Box::new(ColumnarInput::new(&analysis, &Executor::OneShot)))
                }
                None => JobInput::Rows(Ok(Vec::new())),
            };
            let command = Command::Submit(
                id.to_string(),
                priority,
                QuerySpec {
                    analysis,
                    executor: macrobase_core::query::Executor::OneShot,
                },
                input,
            );
            let reply = self.call(command).map(drop);
            self.claim_all();
            reply
        }

        pub(crate) fn retrain(&mut self, id: &str) -> Result<(), ServeError> {
            let reply = self.call(Command::Retrain(id.to_string())).map(drop);
            self.claim_all();
            reply
        }

        /// Worker `w` asks for a task if it has none.
        fn claim(&mut self, w: usize) {
            if self.workers[w].is_none() {
                if let Ok(Reply::Run(task)) = self.call(Command::Next) {
                    self.handed.push(handed(&task));
                    self.workers[w] = Some(task);
                }
            }
        }

        /// Every idle worker asks for a task, in worker order.
        pub(crate) fn claim_all(&mut self) {
            for w in 0..self.workers.len() {
                self.claim(w);
            }
        }

        /// The task worker `w` holds, as handed.
        pub(crate) fn holds(&self, w: usize) -> Option<Handed> {
            self.workers[w].as_ref().map(handed)
        }

        /// Worker `w` ends its task with `outcome` and hands the result
        /// back; it claims next (so a task it queued for itself is its
        /// own), then the other idle workers do.
        pub(crate) fn step(&mut self, w: usize, outcome: Outcome) {
            let task = self.workers[w].take().expect("worker holds a task");
            for result in self.complete(task, outcome) {
                assert!(self.call(result).is_ok());
            }
            self.claim(w);
            self.claim_all();
        }

        /// Step worker `w` until it holds nothing.
        pub(crate) fn drain(&mut self, w: usize) {
            while self.workers[w].is_some() {
                self.step(w, Outcome::Ok);
            }
        }

        fn complete(&self, task: Task, outcome: Outcome) -> Vec<Command> {
            if outcome == Outcome::Unwind {
                return task.unwound();
            }
            let model = || match outcome {
                Outcome::Fail(message) => Err(message.to_string()),
                _ => Ok(self.model.clone()),
            };
            let result = |epoch, cache| match outcome {
                Outcome::Fail(message) => Err(message.to_string()),
                _ => Ok(JobResult {
                    report: report(),
                    model_epoch: epoch,
                    cache,
                }),
            };
            vec![match task {
                Task::Fingerprint(job) => {
                    let fingerprint = self.fingerprints[&job.id];
                    Command::Fingerprinted(job, fingerprint)
                }
                Task::Train(fingerprint, job) => Command::Trained(fingerprint, model(), Some(job)),
                Task::Retrain(fingerprint, ..) => Command::Trained(fingerprint, model(), None),
                Task::Score(job, fingerprint, snapshot, cache) => Command::Finished(
                    job.id,
                    result(Some(snapshot.epoch), Some(cache)),
                    Some((fingerprint, job.analysis, Arc::new(job.input.batch))),
                ),
                Task::Run(id, ..) => Command::Finished(id, result(None, None), None),
            }]
        }

        pub(crate) fn status(&self, id: &str) -> JobStatus {
            self.state.status(id).expect("a known job")
        }

        pub(crate) fn counter(&self, name: &str) -> u64 {
            self.state.stats().counter(name)
        }
    }

    /// The epoch and cache outcome a finished job's report was scored with.
    pub(crate) fn read(status: &JobStatus) -> Option<(u64, CacheOutcome)> {
        match status {
            JobStatus::Done(result) => Some((result.model_epoch?, result.cache?)),
            _ => None,
        }
    }

    #[test]
    fn a_parked_job_holds_no_worker() {
        let mut d = Driver::new(2, 16);
        // Fingerprint 1 is published; fingerprint 0 is not.
        d.submit("warm", Some(1), Priority::Normal).unwrap();
        d.drain(0);
        d.submit("trainer", Some(0), Priority::Normal).unwrap();
        d.step(0, Outcome::Ok);
        assert_eq!(d.holds(0).unwrap().kind, "train");
        // A same-fingerprint job parks: its worker is free again...
        d.submit("parked", Some(0), Priority::Normal).unwrap();
        d.step(1, Outcome::Ok);
        assert!(d.holds(1).is_none());
        assert!(matches!(d.status("parked"), JobStatus::Running));
        // ...so a hit on the other fingerprint runs while the first trains.
        d.submit("hit", Some(1), Priority::Normal).unwrap();
        d.drain(1);
        assert_eq!(read(&d.status("hit")), Some((1, CacheOutcome::Hit)));
        assert_eq!(d.holds(0).unwrap().kind, "train");
        // The training publishes: the trainer scores on its own worker and
        // the parked job on the free one.
        d.step(0, Outcome::Ok);
        assert_eq!(d.holds(0).unwrap().id.as_deref(), Some("trainer"));
        assert_eq!(d.holds(1).unwrap().id.as_deref(), Some("parked"));
        d.drain(0);
        d.drain(1);
        assert_eq!(read(&d.status("trainer")), Some((1, CacheOutcome::Miss)));
        assert_eq!(read(&d.status("parked")), Some((1, CacheOutcome::Hit)));
    }

    /// A driver whose sessions expire after `limit`.
    fn sessions_idle_after(limit: Duration) -> Driver {
        let mut d = Driver::new(1, 16);
        d.state = State::new(16, limit);
        d
    }

    fn open(d: &mut Driver, id: &str) {
        let opened = d.call(Command::Open(id.to_string(), Ok(Box::new(session()))));
        assert!(matches!(opened, Ok(Reply::Accepted)));
    }

    #[test]
    fn idle_expiry_takes_a_session_idle_for_exactly_the_limit() {
        let limit = Duration::from_secs(10);
        let mut d = sessions_idle_after(limit);
        let t0 = d.now;
        open(&mut d, "old");
        d.now = t0 + Duration::from_nanos(1);
        open(&mut d, "young");
        // "old" has been idle for exactly the limit, "young" for 1 ns less.
        d.now = t0 + limit;
        let lend = |d: &mut Driver, id: &str| d.call(Command::Lend(id.to_string()));
        assert!(matches!(lend(&mut d, "young"), Ok(Reply::Lent(_))));
        assert!(matches!(lend(&mut d, "old"), Err(ServeError::UnknownId(_))));
        assert_eq!(d.state.stats().counter("sessions_expired"), 1);
        // A session in use is never idle.
        d.now = t0 + limit * 3;
        assert!(matches!(lend(&mut d, "young"), Err(ServeError::BadRequest(_))));
        assert!(d.state.lent("young"));
    }

    #[test]
    fn an_idle_session_expires_without_traffic_from_another_session() {
        let limit = Duration::from_secs(10);
        let mut d = sessions_idle_after(limit);
        open(&mut d, "s");
        open(&mut d, "t");
        d.now += limit;
        // Nothing else opened a session, yet both have expired: a submit
        // may take the id of one, and the other is no longer lent out.
        assert_eq!(d.submit("t", None, Priority::Normal), Ok(()));
        let lent = d.call(Command::Lend("s".to_string()));
        assert!(matches!(lent, Err(ServeError::UnknownId(_))));
        assert_eq!(d.state.stats().counter("sessions_expired"), 2);
    }

    /// One configuration of the exhaustive history checker.
    #[derive(Clone, Debug)]
    struct Scenario {
        /// The fingerprint of each one-shot job, submitted in this order.
        jobs: Vec<usize>,
        /// Retrain the model of this job once it is done.
        retrain: Option<usize>,
        /// The `n`th training to finish (1-based) ends with this outcome.
        fault: Option<(usize, Outcome)>,
    }

    /// One history being replayed: the state plus what the checks need.
    struct History<'a> {
        scenario: &'a Scenario,
        d: Driver,
        submitted: usize,
        retrained: bool,
        trainings: usize,
        /// The last epoch seen published, per fingerprint.
        published: HashMap<Fingerprint, u64>,
        /// The epoch published for a job's fingerprint when it was admitted.
        floor: HashMap<String, u64>,
        /// The first terminal status each job reached.
        terminal: HashMap<String, (u8, Option<u64>)>,
    }

    fn id(job: usize) -> String {
        format!("j{job}")
    }

    /// A terminal status as (done, failed, cancelled) and the epoch read.
    fn terminal(status: &JobStatus) -> Option<(u8, Option<u64>)> {
        match status {
            JobStatus::Queued | JobStatus::Running => None,
            JobStatus::Done(result) => Some((0, result.model_epoch)),
            JobStatus::Failed(_) => Some((1, None)),
            JobStatus::Cancelled => Some((2, None)),
        }
    }

    impl<'a> History<'a> {
        fn new(scenario: &'a Scenario) -> History<'a> {
            History {
                scenario,
                d: Driver::new(2, 16),
                submitted: 0,
                retrained: false,
                trainings: 0,
                published: HashMap::new(),
                floor: HashMap::new(),
                terminal: HashMap::new(),
            }
        }

        /// The events that can happen next: submit the next job, retrain,
        /// or one of the busy workers finishes its task.
        fn enabled(&self) -> Vec<Event> {
            let mut events = Vec::new();
            if self.submitted < self.scenario.jobs.len() {
                events.push(Event::Submit);
            }
            if let Some(job) = self.scenario.retrain {
                let done = self
                    .d
                    .state
                    .jobs
                    .get(&id(job))
                    .and_then(|entry| read(&entry.status));
                if !self.retrained && done.is_some() {
                    events.push(Event::Retrain(job));
                }
            }
            for (w, task) in self.d.workers.iter().enumerate() {
                if task.is_some() {
                    events.push(Event::Step(w));
                }
            }
            events
        }

        fn perform(&mut self, event: Event) {
            match event {
                Event::Submit => {
                    let job = self.submitted;
                    self.submitted += 1;
                    let fp = fingerprint(self.scenario.jobs[job]);
                    let floor = self.published.get(&fp).copied().unwrap_or(0);
                    self.floor.insert(id(job), floor);
                    self.d
                        .submit(&id(job), Some(self.scenario.jobs[job]), Priority::Normal)
                        .unwrap();
                }
                Event::Retrain(job) => {
                    self.retrained = true;
                    self.d.retrain(&id(job)).unwrap();
                }
                Event::Step(w) => {
                    let mut outcome = Outcome::Ok;
                    let mut lookup = None;
                    match &self.d.workers[w] {
                        Some(Task::Train(..) | Task::Retrain(..)) => {
                            self.trainings += 1;
                            if let Some((n, fault)) = &self.scenario.fault {
                                if *n == self.trainings {
                                    outcome = fault.clone();
                                }
                            }
                        }
                        Some(Task::Fingerprint(job)) => {
                            let fp = self.d.fingerprints[&job.id];
                            let found = match self.d.state.models.get(&fp) {
                                None => "train",
                                Some(Model::Training(_)) => "park",
                                Some(Model::Ready(_)) => "score",
                            };
                            lookup = Some((job.id.clone(), fp, found));
                        }
                        _ => {}
                    }
                    self.d.step(w, outcome);
                    // The lookup follows the table: nothing there (never
                    // trained, or a failed training forgotten) trains; a
                    // training parks; a published epoch is a hit.
                    if let Some((id, fp, found)) = lookup {
                        let next = self.d.holds(w);
                        match found {
                            "park" => match self.d.state.models.get(&fp) {
                                Some(Model::Training(parked)) => {
                                    assert!(parked.iter().any(|job| job.id == id));
                                }
                                _ => panic!("{id} did not park"),
                            },
                            kind => {
                                let next = next.expect("the worker goes on with its job");
                                assert_eq!(
                                    (next.kind, next.id.as_deref()),
                                    (kind, Some(id.as_str()))
                                );
                            }
                        }
                    }
                }
            }
            self.check_step();
        }

        /// Invariants that hold after every event.
        fn check_step(&mut self) {
            // Epochs are published 1, 2, ... per fingerprint.
            for (fp, model) in &self.d.state.models {
                if let Model::Ready(snapshot) = model {
                    let last = self.published.entry(*fp).or_insert(0);
                    assert!(
                        snapshot.epoch == *last || snapshot.epoch == *last + 1,
                        "epoch {} published after {last}",
                        snapshot.epoch
                    );
                    *last = snapshot.epoch;
                }
            }
            // A published fingerprint never leaves the table.
            for fp in self.published.keys() {
                assert!(matches!(self.d.state.models.get(fp), Some(Model::Ready(_))));
            }
            // Every parked job waits on exactly one training in flight.
            let in_flight: Vec<Fingerprint> = self
                .d
                .workers
                .iter()
                .flatten()
                .chain(&self.d.state.ready)
                .filter_map(|task| match task {
                    Task::Train(fingerprint, _) => Some(*fingerprint),
                    _ => None,
                })
                .collect();
            for (fp, model) in &self.d.state.models {
                if let Model::Training(_) = model {
                    assert_eq!(in_flight.iter().filter(|f| *f == fp).count(), 1);
                }
            }
            // A terminal state is final.
            for job in 0..self.submitted {
                if let Some(now) = terminal(&self.d.state.jobs[&id(job)].status) {
                    let first = self.terminal.entry(id(job)).or_insert(now);
                    assert_eq!(*first, now, "{} left its terminal state", id(job));
                }
            }
        }

        /// Checks on a finished history.
        fn check_end(&self) {
            assert!(self.d.state.ready.is_empty() && self.d.state.depth() == 0);
            assert!(
                self.d
                    .state
                    .models
                    .values()
                    .all(|m| matches!(m, Model::Ready(_))),
                "a training outlived its history"
            );
            let mut reads: BTreeMap<String, usize> = BTreeMap::new();
            for handed in &self.d.handed {
                if handed.kind == "score" {
                    *reads.entry(handed.id.clone().unwrap()).or_default() += 1;
                }
            }
            let mut published_trainings = 0;
            for job in 0..self.scenario.jobs.len() {
                let status = self.d.status(&id(job));
                assert!(
                    self.terminal.contains_key(&id(job)),
                    "{} never ended: {status:?}",
                    id(job)
                );
                if let Some((epoch, _)) = read(&status) {
                    // Exactly one epoch read, and never one older than the
                    // job's admission saw published.
                    assert_eq!(reads.get(&id(job)), Some(&1), "{}", id(job));
                    assert!(
                        epoch >= self.floor[&id(job)],
                        "{} read epoch {epoch}",
                        id(job)
                    );
                }
            }
            for model in self.d.state.models.values() {
                if let Model::Ready(snapshot) = model {
                    published_trainings += snapshot.epoch;
                }
            }
            assert_eq!(self.d.counter("epochs_published"), published_trainings);
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Event {
        Submit,
        Retrain(usize),
        Step(usize),
    }

    /// Run every history of `scenario`: each is replayed from the start,
    /// taking at each point the event its choice names, and the choices
    /// advance like an odometer from the deepest point that has another
    /// event to take. Returns the number of histories.
    fn explore(scenario: &Scenario) -> usize {
        // (choice, number of events enabled) at each point of the history.
        let mut choices: Vec<(usize, usize)> = Vec::new();
        let mut histories = 0;
        loop {
            let mut history = History::new(scenario);
            let mut depth = 0;
            loop {
                let enabled = history.enabled();
                if enabled.is_empty() {
                    break;
                }
                if depth == choices.len() {
                    choices.push((0, enabled.len()));
                }
                history.perform(enabled[choices[depth].0]);
                depth += 1;
            }
            history.check_end();
            histories += 1;
            while let Some((choice, width)) = choices.pop() {
                if choice + 1 < width {
                    choices.push((choice + 1, width));
                    break;
                }
            }
            if choices.is_empty() {
                return histories;
            }
        }
    }

    #[test]
    fn every_history_of_three_jobs_two_fingerprints_and_one_fault_is_consistent() {
        let patterns: [&[usize]; 7] = [
            &[0],
            &[0, 0],
            &[0, 1],
            &[0, 0, 0],
            &[0, 0, 1],
            &[0, 1, 0],
            &[0, 1, 1],
        ];
        let faults = [
            None,
            Some((1, Outcome::Fail("boom"))),
            Some((1, Outcome::Unwind)),
            Some((2, Outcome::Fail("boom"))),
            Some((2, Outcome::Unwind)),
        ];
        let mut histories = 0;
        let mut scenarios = 0;
        for jobs in patterns {
            for retrain in [None, Some(0)] {
                for fault in &faults {
                    let scenario = Scenario {
                        jobs: jobs.to_vec(),
                        retrain,
                        fault: fault.clone(),
                    };
                    histories += explore(&scenario);
                    scenarios += 1;
                }
            }
        }
        println!("checked {histories} histories over {scenarios} configurations");
        assert!(histories > 1_000, "{histories}");
    }
}
