#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Exponentially weighted streaming (EWS) MDP execution (Section 3.2's
//! "streaming queries", assembled from the ADR-trained classifier of
//! Section 4.2 and the AMC/M-CPS streaming explainer of Section 5.3).
//!
//! [`StreamingSession`] is the streaming engine: it takes points in feeds
//! of any size and renders reports mid-stream, for adaptivity experiments
//! and live monitoring, and [`Executor::Streaming`](crate::query::Executor)
//! runs a session to the end of its input. Build sessions with
//! [`MdpQuery::into_streaming`](crate::query::MdpQuery::into_streaming).
//!
//! A feed runs in two stages, a block of 1,024 rows at a time.
//! Stage one validates, labels and encodes the rows and marks the row each
//! decay boundary follows; stage two writes them into the explainer in row
//! order, closing its window right after each marked row. Stage one runs
//! a block ahead on a pool thread while the caller runs stage two, when
//! the pool has two threads for every feed in flight; otherwise the caller
//! runs both. Each stage writes only its own state and sees its writes in
//! input order, so the result is the point-at-a-time loop's at any pool
//! width.

use crate::executor::{render_explanations, QueryEstimator};
use crate::query::{AnalysisConfig, EstimatorKind, StreamingOptions};
use crate::types::{MdpReport, Point, RenderedExplanation};
use crate::{PipelineError, Result};
use mb_classify::rule::{label_or, RuleClassifier};
use mb_classify::streaming::{StreamingClassifier, StreamingClassifierConfig};
use mb_classify::Label;
use mb_explain::encoder::AttributeEncoder;
use mb_explain::streaming::{StreamingExplainer, StreamingExplainerConfig};
use mb_fpgrowth::Item;
use mb_obs::stage::Stage;
use mb_obs::{MetricRegistry, QueryTrace, StageTimer, StageTrace};
use mb_pool::Pool;
use mb_stats::StatsError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Rows a stage takes at a time. A feed of one block or less runs both
/// stages inline, on the caller.
const BLOCK_ROWS: usize = 1_024;

/// Feeds running in this process, on any session.
static FEEDS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// An incremental streaming execution of an
/// [`MdpQuery`](crate::query::MdpQuery): feed points, force decay
/// boundaries, and render reports mid-stream (the continuously maintained
/// view of Section 5.3). It is the streaming engine itself: an ADR-trained
/// classifier, the AMC + M-CPS explainer and the decay bookkeeping. Obtain
/// one with
/// [`MdpQuery::into_streaming`](crate::query::MdpQuery::into_streaming);
/// for run-to-completion streaming over an ingestor use
/// [`Executor::Streaming`](crate::query::Executor) instead.
pub struct StreamingSession {
    /// Stage one's state.
    labeler: Labeler,
    /// Stage two's state.
    explainer: StreamingExplainer,
    /// The two buffers a feed stages its blocks into, reused.
    blocks: [StagedBlock; 2],
    /// Accumulated wall time inside [`StreamingSession::feed`] and
    /// [`StreamingSession::observe`].
    observe_wall_ns: u64,
    /// The `explain` span: wall time and count of the explanation renders
    /// [`StreamingSession::report`] has done, with the latest render's
    /// decayed outlier count in and explanations out.
    explain_span: StageTrace,
}

/// Everything that validates, labels, encodes and counts a row: the
/// session less its explainer.
struct Labeler {
    estimator: EstimatorKind,
    classifier_config: StreamingClassifierConfig,
    decay_period: u64,
    skip_explanation: bool,
    retain_outlier_rows: bool,
    rule: Option<RuleClassifier>,
    unsupervised: bool,
    /// Metric dimensionality locked in by the first accepted point. Later
    /// points are validated against it *before* any session state mutates,
    /// so a rejected point leaves counters, reservoirs, and explainer state
    /// untouched and the session remains usable.
    dim: Option<usize>,
    /// The classifier, built for the first accepted point's dimensionality;
    /// `None` until then, and always for a rule-only query.
    classifier: Option<StreamingClassifier<QueryEstimator>>,
    encoder: AttributeEncoder,
    points_seen: u64,
    outliers_seen: u64,
    outlier_rows: Vec<usize>,
    points_since_decay: u64,
    /// Telemetry switch mirrored from [`AnalysisConfig::obs`]. When off
    /// (the default) a feed takes no clock reads and the report carries
    /// `trace: None`.
    obs_enabled: bool,
    /// Session-owned metric registry: per-tick retrain and decay latency
    /// histograms.
    metrics: MetricRegistry,
}

/// One block as stage one leaves it for stage two.
#[derive(Default)]
struct StagedBlock {
    /// The rows' items end to end: row `i` ends at `ends[i]`.
    items: Vec<Item>,
    ends: Vec<usize>,
    outliers: Vec<bool>,
    /// Each row a decay boundary follows, with the nanoseconds its two
    /// halves took (0 when untimed).
    boundaries: Vec<(usize, u64)>,
}

impl StreamingSession {
    pub(crate) fn new(
        analysis: &AnalysisConfig,
        options: &StreamingOptions,
        rule: Option<RuleClassifier>,
        unsupervised: bool,
    ) -> Self {
        let explainer = StreamingExplainer::new(StreamingExplainerConfig {
            explanation: analysis.explanation,
            decay_rate: options.decay_rate,
            amc_stable_size: options.reservoir_size,
            amc_maintenance_period: options.reservoir_size as u64,
        });
        let labeler = Labeler {
            estimator: analysis.estimator,
            classifier_config: StreamingClassifierConfig {
                reservoir_size: options.reservoir_size,
                decay_rate: options.decay_rate,
                retrain_period: options.retrain_period,
                target_percentile: analysis.target_percentile,
                seed: options.seed,
            },
            decay_period: options.decay_period,
            skip_explanation: analysis.skip_explanation,
            retain_outlier_rows: analysis.retain_outlier_rows,
            rule,
            unsupervised,
            dim: None,
            classifier: None,
            encoder: crate::executor::encoder_for(analysis),
            points_seen: 0,
            outliers_seen: 0,
            outlier_rows: Vec::new(),
            points_since_decay: 0,
            obs_enabled: analysis.obs.is_enabled(),
            metrics: MetricRegistry::new(),
        };
        StreamingSession {
            labeler,
            explainer,
            blocks: Default::default(),
            observe_wall_ns: 0,
            explain_span: StageTrace {
                stage: Stage::Explain.as_str().to_string(),
                wall_ns: 0,
                rows_in: 0,
                rows_out: 0,
                batches: 0,
            },
        }
    }

    /// Observe one point, returning its label: a feed of one point.
    ///
    /// A point whose metric dimensionality disagrees with the first accepted
    /// point is rejected with a typed error *before* any session state
    /// mutates — counters, reservoirs, and explainer state are untouched and
    /// the session remains usable. So is a point with a NaN or infinite
    /// metric when the query has an unsupervised stage, with the error the
    /// batch executors return for such a metric; rule-only queries accept
    /// it, as the batch executors do.
    pub fn observe(&mut self, point: &Point) -> Result<Label> {
        let outliers = self.feed_on(mb_pool::global(), std::slice::from_ref(point))?;
        Ok(if outliers == 1 {
            Label::Outlier
        } else {
            Label::Inlier
        })
    }

    /// Observe a batch of points, returning how many of them were labeled
    /// outliers. An empty batch is a no-op and returns `Ok(0)`. On a typed
    /// error the batch stops at the offending point: points observed before
    /// it remain counted, the offending point leaves no state behind, and
    /// the session can keep feeding.
    ///
    /// A batch of more than 1,024 rows borrows one thread of the global
    /// pool while it runs, if the pool has two threads for every feed then
    /// running in the process; the result is the same at any pool width.
    pub fn feed(&mut self, points: &[Point]) -> Result<u64> {
        self.feed_on(mb_pool::global(), points)
    }

    /// [`feed`](Self::feed) on a given pool.
    fn feed_on(&mut self, pool: &Pool, points: &[Point]) -> Result<u64> {
        let feed_start = StageTimer::start_if(self.labeler.obs_enabled);
        // Stages that run apart keep two threads busy, the caller and a
        // pool thread. The pool has a thread per core, so that pays only
        // while it has two threads for every feed in flight; past that the
        // second thread takes a core from another feed.
        let in_flight = InFlight::enter();
        let ahead = (2 * in_flight.feeds <= pool.num_threads()).then_some(pool);
        let outcome = self.run_stages(ahead, points);
        if feed_start.is_running() {
            self.observe_wall_ns = self.observe_wall_ns.saturating_add(feed_start.elapsed_ns());
        }
        outcome
    }

    /// Both stages over `points`, a block at a time. With a pool, a feed
    /// of more than one block that has something for stage two to write
    /// runs stage one ahead on a pool thread (see [`Handoff`]); any other
    /// feed runs both inline. A typed error ends stage one at its row, and
    /// stage two still writes every row staged before it.
    fn run_stages(&mut self, pool: Option<&Pool>, points: &[Point]) -> Result<u64> {
        let StreamingSession {
            labeler,
            explainer,
            blocks: [first, second],
            ..
        } = self;
        let (timed, skip) = (labeler.obs_enabled, labeler.skip_explanation);
        let mut decay_ns = Vec::new();
        let mut outliers = 0;
        let mut write = |block: &mut StagedBlock| {
            if !skip {
                apply(explainer, block, timed);
            }
            if timed {
                decay_ns.extend(block.boundaries.iter().map(|&(_, ns)| ns));
            }
            outliers += block.outliers.iter().filter(|&&outlier| outlier).count() as u64;
        };
        let outcome = match pool {
            Some(pool) if points.len() > BLOCK_ROWS && !skip => {
                let handoff = Handoff::new(labeler, [first, second], points);
                pool.scope(|scope| {
                    scope.spawn(|| handoff.stage_ahead());
                    handoff.write_in_order(&mut write);
                });
                handoff.outcome()
            }
            _ => points.chunks(BLOCK_ROWS).try_for_each(|rows| {
                let staged = labeler.stage(rows, first);
                write(first);
                staged
            }),
        };
        for ns in decay_ns {
            labeler.metrics.record_ns("decay_ns", ns);
        }
        outcome.map(|()| outliers)
    }

    /// Total points observed so far.
    pub fn points_seen(&self) -> u64 {
        self.labeler.points_seen
    }

    /// Total points labeled outlier so far.
    pub fn outliers_seen(&self) -> u64 {
        self.labeler.outliers_seen
    }

    /// Render the current explanations and counters as a report.
    pub fn report(&mut self) -> MdpReport {
        let labeler = &mut self.labeler;
        let explain_start = StageTimer::start_if(labeler.obs_enabled && !labeler.skip_explanation);
        let explanations: Vec<RenderedExplanation> = if labeler.skip_explanation {
            Vec::new()
        } else {
            render_explanations(&labeler.encoder, self.explainer.explain())
        };
        if explain_start.is_running() {
            let explain_ns = explain_start.elapsed_ns();
            labeler.metrics.record_ns("explain_ns", explain_ns);
            let span = &mut self.explain_span;
            span.wall_ns = span.wall_ns.saturating_add(explain_ns);
            span.rows_in = self.explainer.outlier_count().round() as u64;
            span.rows_out = explanations.len() as u64;
            span.batches += 1;
        }
        let cutoff = labeler.classifier.as_mut().and_then(|c| c.current_cutoff());
        MdpReport {
            explanations,
            num_points: labeler.points_seen as usize,
            num_outliers: labeler.outliers_seen as usize,
            score_cutoff: cutoff,
            scores: Vec::new(),
            outlier_rows: labeler.outlier_rows.clone(),
            partition_reports: None,
            trace: self.trace(),
        }
    }

    /// Render the session's accumulated telemetry as a [`QueryTrace`] —
    /// `None` when telemetry is off. Reports can be rendered mid-stream, so
    /// this snapshots rather than consumes: the session keeps accumulating.
    fn trace(&self) -> Option<QueryTrace> {
        let labeler = &self.labeler;
        if !labeler.obs_enabled {
            return None;
        }
        let mut registry = labeler.metrics.clone();
        registry.add("points", labeler.points_seen);
        registry.add("outliers", labeler.outliers_seen);
        registry.set_gauge("model_staleness", labeler.model_staleness() as f64);
        // Two spans: the time inside every feed, whose rows a session
        // labels as they arrive, is its `score` stage; every report
        // rendered so far, this one included, is its `explain` stage.
        let mut stages = vec![StageTrace {
            stage: Stage::Score.as_str().to_string(),
            wall_ns: self.observe_wall_ns,
            rows_in: labeler.points_seen,
            rows_out: labeler.outliers_seen,
            batches: 1,
        }];
        if self.explain_span.batches > 0 {
            stages.push(self.explain_span.clone());
        }
        Some(QueryTrace {
            executor: "streaming".to_string(),
            partitions: 1,
            stages,
            counters: registry.counter_entries(),
            gauges: registry.gauge_entries(),
            histograms: registry.histogram_snapshots(),
        })
    }
}

impl Labeler {
    /// Points since the model last (re)trained — 0 right after a retrain,
    /// so a tick ending at 0 is the tick that retrained.
    fn model_staleness(&self) -> u64 {
        self.classifier
            .as_ref()
            .map_or(0, StreamingClassifier::points_since_retrain)
    }

    /// Stage one: label `points` into `block` (emptied first), closing the
    /// classifier's window after each row that ends a decay period and
    /// marking that row for stage two. Stops at the first row that is a
    /// typed error, with every row before it staged.
    fn stage(&mut self, points: &[Point], block: &mut StagedBlock) -> Result<()> {
        block.items.clear();
        block.ends.clear();
        block.outliers.clear();
        block.boundaries.clear();
        for (row, point) in points.iter().enumerate() {
            let label = self.label(point, &mut block.items)?;
            block.ends.push(block.items.len());
            block.outliers.push(label == Label::Outlier);
            if let Some(decay_ns) = self.end_of_period() {
                block.boundaries.push((row, decay_ns));
            }
        }
        Ok(())
    }

    /// Validate, classify and count one row and append its items to
    /// `items`. A row that is a typed error moves nothing.
    fn label(&mut self, point: &Point, items: &mut Vec<Item>) -> Result<Label> {
        let dim = point.dimension();
        match self.dim {
            Some(expected) if expected != dim => {
                return Err(PipelineError::InconsistentDimensions {
                    expected,
                    actual: dim,
                });
            }
            None if dim == 0 => {
                return Err(PipelineError::InvalidConfiguration(
                    "streaming points need at least one metric".to_string(),
                ));
            }
            _ => {}
        }
        if self.unsupervised && !point.metrics.iter().all(|v| v.is_finite()) {
            return Err(StatsError::NonFinite.into());
        }
        if self.unsupervised && self.classifier.is_none() {
            let estimator = QueryEstimator::new(self.estimator, dim);
            self.classifier = Some(StreamingClassifier::new(estimator, self.classifier_config)?);
        }
        self.dim = Some(dim);
        self.points_seen += 1;
        self.points_since_decay += 1;

        let mut label = Label::Inlier;
        // Set above for every unsupervised query; the `if let` (rather than
        // an `expect`) keeps this executor hot path panic-free.
        if let Some(classifier) = self.classifier.as_mut() {
            let tick_start = StageTimer::start_if(self.obs_enabled);
            label = classifier.observe(&point.metrics).label;
            // The classifier resets its staleness counter inside a retrain,
            // so an observe that ends at staleness 0 is the one that paid
            // for one.
            if tick_start.is_running() && classifier.points_since_retrain() == 0 {
                self.metrics
                    .record_ns("retrain_ns", tick_start.elapsed_ns());
            }
        }
        if let Some(rule) = &self.rule {
            label = label_or(label, rule.classify(&point.metrics));
        }
        if label == Label::Outlier {
            self.outliers_seen += 1;
            if self.retain_outlier_rows {
                self.outlier_rows.push((self.points_seen - 1) as usize);
            }
        }
        if !self.skip_explanation {
            let encoder = &mut self.encoder;
            let row = point.attributes.iter().enumerate();
            items.extend(row.map(|(column, value)| encoder.encode(column, value)));
        }
        Ok(label)
    }

    /// After a row: if it ends a decay period, close the classifier's
    /// window and return how long that took (0 when untimed).
    fn end_of_period(&mut self) -> Option<u64> {
        if self.points_since_decay < self.decay_period {
            return None;
        }
        self.points_since_decay = 0;
        let decay_start = StageTimer::start_if(self.obs_enabled);
        if let Some(classifier) = self.classifier.as_mut() {
            classifier.on_period_boundary();
        }
        Some(if decay_start.is_running() {
            decay_start.elapsed_ns()
        } else {
            0
        })
    }
}

/// A feed of more than one block, shared by its two stages. Stage one runs
/// on a pool thread ([`stage_ahead`](Self::stage_ahead)) one block ahead of
/// stage two, which the caller runs ([`write_in_order`](Self::write_in_order))
/// over two reused buffers: block k is staged into buffer k % 2 once block
/// k − 2 has been written out of it.
///
/// The pool thread waits for a free buffer by yielding, not by parking:
/// it stays runnable for the whole feed, so the scheduler moves it to an
/// idle core instead of waking it beside the caller for every block. The
/// caller stages a block itself whenever it is waiting for one and the
/// labeler is free, so a feed never waits for a pool thread to start.
struct Handoff<'a> {
    points: &'a [Point],
    stage_one: Mutex<StageOne<'a>>,
    buffers: [Mutex<&'a mut StagedBlock>; 2],
    /// Blocks staged, a block that stopped at a typed error included.
    /// Stored (Release) once a block's buffer is filled; the caller loads it
    /// (Acquire) before it takes that buffer.
    staged: AtomicUsize,
    /// Blocks written into the explainer. Stored (Release) once the caller
    /// is done with a buffer; stage one loads it (Acquire) before refilling.
    written: AtomicUsize,
    /// Set (Release) once the caller stops writing, however it stops; stage
    /// one loads it (Acquire) between blocks.
    done: AtomicBool,
}

/// Stage one's state inside a [`Handoff`].
struct StageOne<'a> {
    labeler: &'a mut Labeler,
    next: usize,
    failed: Option<PipelineError>,
}

/// What one attempt to stage the next block came to.
enum Staging {
    Staged,
    /// Both buffers hold blocks stage two has not written yet.
    Full,
    /// Every block is staged, or stage one stopped at a typed error.
    Finished,
}

impl<'a> Handoff<'a> {
    fn new(
        labeler: &'a mut Labeler,
        buffers: [&'a mut StagedBlock; 2],
        points: &'a [Point],
    ) -> Self {
        Handoff {
            points,
            stage_one: Mutex::new(StageOne {
                labeler,
                next: 0,
                failed: None,
            }),
            buffers: buffers.map(Mutex::new),
            staged: AtomicUsize::new(0),
            written: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// Stage the next block if its buffer is free.
    fn stage_next(&self, stage_one: &mut StageOne<'a>) -> Staging {
        let block = stage_one.next;
        let rows = match self.points.chunks(BLOCK_ROWS).nth(block) {
            Some(rows) if stage_one.failed.is_none() => rows,
            _ => return Staging::Finished,
        };
        if self.written.load(Ordering::Acquire) + 2 <= block {
            return Staging::Full;
        }
        let mut buffer = lock(&self.buffers[block % 2]);
        if let Err(error) = stage_one.labeler.stage(rows, &mut buffer) {
            stage_one.failed = Some(error);
        }
        stage_one.next = block + 1;
        self.staged.store(block + 1, Ordering::Release);
        Staging::Staged
    }

    /// The pool thread's side: stage blocks in order until there are no
    /// more or the caller stops.
    ///
    /// It runs only from a pool thread's idle loop. A thread waiting for a
    /// scope runs queued tasks, and there this one returns at once and the
    /// feed's caller stages its blocks instead: the task keeps its thread
    /// for the whole feed, so it would hold up that wait (another query's
    /// scope, say) until the feed ends. That covers a retrain inside stage
    /// one, which may wait on the pool while its thread holds the labeler
    /// further up the stack; taking the labeler there would deadlock.
    fn stage_ahead(&self) {
        if mb_pool::inside_scope_wait() {
            return;
        }
        while !self.done.load(Ordering::Acquire) {
            let staging = match self.stage_one.lock() {
                Ok(mut stage_one) => self.stage_next(&mut stage_one),
                Err(_) => Staging::Finished,
            };
            match staging {
                Staging::Staged => {}
                Staging::Full => std::thread::yield_now(),
                Staging::Finished => return,
            }
        }
    }

    /// The caller's side: hand every staged block to `write` in order.
    fn write_in_order(&self, write: &mut impl FnMut(&mut StagedBlock)) {
        /// Stops the pool thread however the caller leaves, unwinding too.
        struct Done<'b>(&'b AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _done = Done(&self.done);
        for block in 0..self.points.len().div_ceil(BLOCK_ROWS) {
            while self.staged.load(Ordering::Acquire) <= block {
                match self.stage_one.try_lock() {
                    // The pool thread is staging this block: let it run.
                    Err(TryLockError::WouldBlock) => std::thread::yield_now(),
                    Err(TryLockError::Poisoned(_)) => break,
                    Ok(mut stage_one) => {
                        if let Staging::Finished = self.stage_next(&mut stage_one) {
                            break;
                        }
                    }
                }
            }
            if self.staged.load(Ordering::Acquire) <= block {
                break;
            }
            write(&mut lock(&self.buffers[block % 2]));
            self.written.store(block + 1, Ordering::Release);
        }
    }

    /// How stage one ended, once both stages have stopped: the error stays
    /// in place until then, because stage one stages nothing more while it
    /// is there.
    fn outcome(self) -> Result<()> {
        let stage_one = self
            .stage_one
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        stage_one.failed.map_or(Ok(()), Err)
    }
}

/// Counts a feed in [`FEEDS_IN_FLIGHT`] until dropped, unwinding too.
struct InFlight {
    /// Feeds in flight when this one entered, itself included.
    feeds: usize,
}

impl InFlight {
    fn enter() -> Self {
        InFlight {
            feeds: FEEDS_IN_FLIGHT.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        FEEDS_IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `mutex`'s guard, poisoned or not. A lock is poisoned only by a panic in
/// one of the stages, which [`Pool::scope`] re-raises once both stop; until
/// then the other stage reads nothing the panicking one left half-written,
/// since a block counts as staged only after its buffer is filled.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stage two: write a staged block into the explainer in row order,
/// closing its window right after each row stage one marked, and add the
/// time that took to the boundary's.
fn apply(explainer: &mut StreamingExplainer, block: &mut StagedBlock, timed: bool) {
    let mut boundaries = block.boundaries.iter_mut().peekable();
    let mut start = 0;
    for (row, (&end, &outlier)) in block.ends.iter().zip(&block.outliers).enumerate() {
        explainer.observe(&block.items[start..end], outlier);
        start = end;
        if let Some((_, decay_ns)) = boundaries.next_if(|(at, _)| *at == row) {
            let decay_start = StageTimer::start_if(timed);
            explainer.on_window_boundary();
            if decay_start.is_running() {
                *decay_ns += decay_start.elapsed_ns();
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test code: threads that hold the pool or watch a hand-off, and their deadlines"
)]
mod tests {
    use super::*;
    use crate::query::{Executor, MdpQuery, MdpQueryBuilder};
    use mb_explain::ExplanationConfig;
    use mb_ingest::synthetic::{device_workload, DeviceWorkloadConfig};

    fn test_options() -> StreamingOptions {
        StreamingOptions {
            reservoir_size: 2_000,
            decay_rate: 0.05,
            decay_period: 10_000,
            retrain_period: 5_000,
            ..StreamingOptions::default()
        }
    }

    fn test_query() -> MdpQueryBuilder {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
    }

    #[test]
    fn streaming_recovers_misbehaving_devices() {
        let workload = device_workload(&DeviceWorkloadConfig {
            num_points: 50_000,
            num_devices: 200,
            outlying_device_fraction: 0.01,
            ..DeviceWorkloadConfig::default()
        });
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for r in &workload.records {
            let point = Point::new(r.record.metrics.clone(), r.record.attributes.clone());
            session.observe(&point).unwrap();
        }
        assert!(session.outliers_seen() > 0);
        let report = session.report();
        let reported: Vec<String> = report
            .explanations
            .iter()
            .flat_map(|e| e.attributes.clone())
            .collect();
        for device in &workload.outlying_devices {
            assert!(
                reported.iter().any(|r| r.ends_with(device.as_str())),
                "device {device} missing from {reported:?}"
            );
        }
    }

    #[test]
    fn report_before_any_points_is_empty() {
        let mut session = MdpQuery::with_defaults()
            .into_streaming(&StreamingOptions::default())
            .unwrap();
        let report = session.report();
        assert_eq!(report.num_points, 0);
        assert!(report.explanations.is_empty());
        assert!(report.score_cutoff.is_none());
    }

    #[test]
    fn skip_explanation_mode_reports_counts_only() {
        let mut query = test_query().skip_explanation().build().unwrap();
        let points: Vec<Point> = (0..20_000)
            .map(|i| {
                let value = if i % 1_000 == 0 {
                    500.0
                } else {
                    10.0 + (i % 7) as f64
                };
                Point::simple(value, format!("d{}", i % 100))
            })
            .collect();
        let report = query
            .execute(
                &Executor::Streaming {
                    options: test_options(),
                },
                &points,
            )
            .unwrap();
        assert!(report.explanations.is_empty());
        assert!(report.num_outliers > 0);
        assert_eq!(report.num_points, 20_000);
    }

    #[test]
    fn multivariate_streaming_dispatches_to_mcd() {
        let mut options = test_options();
        options.reservoir_size = 500;
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&options)
            .unwrap();
        for i in 0..5_000 {
            let point = Point::new(
                vec![10.0 + (i % 5) as f64 * 0.1, 20.0 + (i % 3) as f64 * 0.1],
                vec![format!("host_{}", i % 10)],
            );
            session.observe(&point).unwrap();
        }
        // An extreme multivariate point is flagged.
        let label = session
            .observe(&Point::new(
                vec![500.0, 500.0],
                vec!["host_bad".to_string()],
            ))
            .unwrap();
        assert_eq!(label, Label::Outlier);
    }

    #[test]
    fn explanations_favor_recent_behaviour_under_decay() {
        let mut options = test_options();
        options.decay_rate = 0.5;
        options.decay_period = 5_000;
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&options)
            .unwrap();
        // Phase 1: device_old misbehaves.
        for i in 0..20_000 {
            let (value, device) = if i % 100 == 0 {
                (500.0, "device_old".to_string())
            } else {
                (10.0 + (i % 7) as f64 * 0.1, format!("d{}", i % 50))
            };
            session.observe(&Point::simple(value, device)).unwrap();
        }
        // Phase 2: device_new misbehaves instead, for much longer.
        for i in 0..40_000 {
            let (value, device) = if i % 100 == 0 {
                (500.0, "device_new".to_string())
            } else {
                (10.0 + (i % 7) as f64 * 0.1, format!("d{}", i % 50))
            };
            session.observe(&Point::simple(value, device)).unwrap();
        }
        let report = session.report();
        let count_for = |needle: &str| {
            report
                .explanations
                .iter()
                .filter(|e| e.attributes.iter().any(|a| a.contains(needle)))
                .map(|e| e.stats.outlier_count)
                .fold(0.0, f64::max)
        };
        assert!(
            count_for("device_new") > count_for("device_old"),
            "decay should favor the recent offender: {report:?}"
        );
    }

    #[test]
    fn rule_ored_into_streaming_labels() {
        // A value far below the distribution is invisible to the MAD-percentile
        // classifier's upper tail but must be flagged by the rule.
        use mb_classify::rule::{Comparison, RuleClassifier};
        let mut session = test_query()
            .supervised_rule(RuleClassifier::single(0, Comparison::LessThan, 0.0))
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..2_000 {
            session
                .observe(&Point::simple(10.0 + (i % 7) as f64, "ok"))
                .unwrap();
        }
        let label = session.observe(&Point::simple(-5.0, "neg")).unwrap();
        assert_eq!(label, Label::Outlier);
    }

    #[test]
    fn session_survives_a_typed_error_with_state_untouched() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..1_000 {
            session
                .observe(&Point::simple(10.0 + (i % 7) as f64, format!("d{}", i % 10)))
                .unwrap();
        }
        let before = session.points_seen();

        // A point of the wrong dimensionality is a typed error...
        let err = session
            .observe(&Point::new(vec![1.0, 2.0], vec!["d0".to_string()]))
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InconsistentDimensions {
                expected: 1,
                actual: 2
            }
        ));
        // ...that leaves no state behind: the offender was never counted.
        assert_eq!(session.points_seen(), before);

        // Feeding continues as if the bad point never arrived.
        let fed = session
            .feed(&[
                Point::simple(10.0, "d1"),
                Point::simple(11.0, "d2"),
            ])
            .unwrap();
        assert!(fed <= 2);
        assert_eq!(session.points_seen(), before + 2);

        // A mid-batch offender stops the batch but keeps its predecessors.
        let err = session
            .feed(&[
                Point::simple(10.0, "d3"),
                Point::new(Vec::new(), vec!["d4".to_string()]),
                Point::simple(12.0, "d5"),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InconsistentDimensions {
                expected: 1,
                actual: 0
            }
        ));
        assert_eq!(session.points_seen(), before + 3);
    }

    #[test]
    fn a_non_finite_metric_is_rejected_and_leaves_no_trace() {
        let points: Vec<Point> = (0..12_000)
            .map(|i| {
                let value = if i % 150 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
                Point::simple(value, format!("d{}", if i % 150 == 0 { 99 } else { i % 20 }))
            })
            .collect();
        let session = || test_query().build().unwrap().into_streaming(&test_options()).unwrap();
        let mut clean = session();
        clean.feed(&points).unwrap();

        // Poison points before the first accepted point, during warm-up and
        // mid-stream: each is the batch executors' error, and none is counted.
        let mut poisoned = session();
        let reject = |session: &mut StreamingSession, metrics: Vec<f64>| {
            let before = session.points_seen();
            let err = session
                .observe(&Point::new(metrics, vec!["d0".to_string()]))
                .unwrap_err();
            assert!(matches!(err, PipelineError::Stats(StatsError::NonFinite)), "{err}");
            assert_eq!(session.points_seen(), before);
        };
        // A two-wide poisoned first point does not lock in a dimensionality.
        reject(&mut poisoned, vec![f64::NAN, 1.0]);
        for (i, point) in points.iter().enumerate() {
            if [5, 500, 7_000].contains(&i) {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    reject(&mut poisoned, vec![bad]);
                }
            }
            poisoned.observe(point).unwrap();
        }
        assert_eq!(poisoned.points_seen(), 12_000);
        assert_eq!(poisoned.report(), clean.report());

        // A rule-only query has no estimator to poison and accepts the
        // point, as the batch executors do.
        use mb_classify::rule::{Comparison, RuleClassifier};
        let mut rule_only = test_query()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
            .without_unsupervised()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        assert_eq!(rule_only.observe(&Point::simple(f64::NAN, "d0")).unwrap(), Label::Inlier);
        assert_eq!(rule_only.points_seen(), 1);
    }

    #[test]
    fn zero_dimensional_first_point_is_rejected() {
        let mut session = MdpQuery::with_defaults()
            .into_streaming(&StreamingOptions::default())
            .unwrap();
        let err = session
            .observe(&Point::new(Vec::new(), vec!["d0".to_string()]))
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
        assert_eq!(session.points_seen(), 0);
        // The rejected point did not lock in a dimensionality.
        session.observe(&Point::simple(1.0, "d0")).unwrap();
        assert_eq!(session.points_seen(), 1);
    }

    #[test]
    fn empty_batch_feed_is_a_no_op() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        session.feed(&[]).unwrap();
        assert_eq!(session.points_seen(), 0);
        for i in 0..500 {
            session
                .observe(&Point::simple(10.0 + (i % 5) as f64, format!("d{}", i % 10)))
                .unwrap();
        }
        let before = session.report();
        assert_eq!(session.feed(&[]).unwrap(), 0);
        assert_eq!(session.points_seen(), 500);
        assert_eq!(session.report(), before);
    }

    #[test]
    fn report_is_stable_when_no_points_arrived_since_last_tick() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..10_000 {
            let value = if i % 200 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
            session
                .observe(&Point::simple(value, format!("d{}", i % 20)))
                .unwrap();
        }
        // Rendering is a snapshot of a continuously maintained view, not a
        // consuming drain: back-to-back reports with no intervening points
        // must be identical.
        let first = session.report();
        let second = session.report();
        assert_eq!(first, second);
        assert!(first.num_outliers > 0);
    }

    #[test]
    fn two_sessions_over_one_stream_render_the_same_report_once_the_amc_prunes() {
        // ~3K devices against AMC sketches of 200: every maintenance prunes,
        // and which of the entries tied at the cut survives decides the
        // explanations. It used to follow each sketch's random hash order.
        let workload = device_workload(&DeviceWorkloadConfig {
            num_points: 20_000,
            num_devices: 3_000,
            outlying_device_fraction: 0.05,
            ..DeviceWorkloadConfig::default()
        });
        let options = StreamingOptions {
            reservoir_size: 200,
            decay_period: 5_000,
            ..test_options()
        };
        let rendered = || {
            let mut session = test_query()
                .explanation(ExplanationConfig::new(0.001, 3.0))
                .build()
                .unwrap()
                .into_streaming(&options)
                .unwrap();
            let points: Vec<Point> = workload
                .records
                .iter()
                .map(|r| Point::new(r.record.metrics.clone(), r.record.attributes.clone()))
                .collect();
            session.feed(&points).unwrap();
            crate::wire::report_to_string(&session.report())
        };
        let first = rendered();
        assert!(first.contains("device_id"), "{first}");
        assert_eq!(first, rendered());
    }

    impl StreamingSession {
        /// The point-at-a-time loop that [`feed`](StreamingSession::feed)
        /// must reproduce: each point labeled, encoded and written into the
        /// explainer before the next one is looked at.
        fn feed_point_at_a_time(&mut self, points: &[Point]) -> Result<u64> {
            let mut outliers = 0;
            let mut items = Vec::new();
            for point in points {
                items.clear();
                let label = self.labeler.label(point, &mut items)?;
                if !self.labeler.skip_explanation {
                    self.explainer.observe(&items, label == Label::Outlier);
                }
                if self.labeler.end_of_period().is_some() && !self.labeler.skip_explanation {
                    self.explainer.on_window_boundary();
                }
                outliers += u64::from(label == Label::Outlier);
            }
            Ok(outliers)
        }
    }

    mod two_stages {
        use super::*;
        use crate::wire::report_to_string;
        use mb_classify::rule::Comparison;
        use mb_pool::Pool;
        use mb_stats::rand_ext::SplitMix64;

        /// One metric and three attribute columns; about 3% of the rows are
        /// outliers that mostly carry `host_bad` and `version_0`.
        fn stream(seed: u64, rows: usize) -> Vec<Point> {
            let mut rng = SplitMix64::new(seed);
            (0..rows)
                .map(|_| {
                    let planted = rng.next_f64() < 0.03;
                    let value = if planted { 200.0 } else { 10.0 } + rng.next_f64() * 5.0;
                    let host = if planted && rng.next_f64() < 0.8 {
                        "host_bad".to_string()
                    } else {
                        format!("host_{}", rng.next_below(40))
                    };
                    let version = if planted { 0 } else { rng.next_below(6) };
                    let region = format!("region_{}", rng.next_below(4));
                    Point::new(
                        vec![value],
                        vec![host, format!("version_{version}"), region],
                    )
                })
                .collect()
        }

        /// `points` with rows that are typed errors spliced in. Fed whole,
        /// they fall first in the stream, first in a feed's second block,
        /// and in the middle and last of a feed's first block.
        fn with_errors(points: &[Point]) -> Vec<Point> {
            let bad = |metrics: Vec<f64>| Point::new(metrics, vec!["host_0".to_string(); 3]);
            let mut out = vec![bad(Vec::new())];
            let mut rest = points;
            for (clean, offender) in [
                (BLOCK_ROWS, bad(vec![1.0, 2.0])),
                (BLOCK_ROWS / 2, bad(vec![f64::NAN])),
                (BLOCK_ROWS - 1, bad(vec![3.0, 4.0])),
            ] {
                out.extend_from_slice(&rest[..clean]);
                out.push(offender);
                rest = &rest[clean..];
            }
            out.extend_from_slice(rest);
            out
        }

        /// A query of a shape the two stages must agree on.
        type Query = fn() -> MdpQuery;

        /// Feed `points` in calls of `feed_size` to a session through
        /// `run_stages(pool, ..)` and to one through the point-at-a-time loop;
        /// after every call both give the same outcome, counters and report
        /// bytes. A call that stops at a typed error is followed by one that
        /// starts after the offending row. Returns how many calls stopped so.
        fn assert_same(
            pool: Option<&Pool>,
            query: Query,
            options: &StreamingOptions,
            points: &[Point],
            feed_size: usize,
        ) -> usize {
            let open = || query().into_streaming(options).unwrap();
            let (mut staged, mut oracle) = (open(), open());
            let mut rest = points;
            let mut errors = 0;
            while !rest.is_empty() {
                let batch = &rest[..feed_size.min(rest.len())];
                let before = staged.points_seen();
                let got = staged.run_stages(pool, batch);
                let want = oracle.feed_point_at_a_time(batch);
                let at = points.len() - rest.len();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "row {at}, feed {feed_size}"
                );
                assert_eq!(staged.points_seen(), oracle.points_seen(), "row {at}");
                assert_eq!(staged.outliers_seen(), oracle.outliers_seen(), "row {at}");
                assert_eq!(
                    report_to_string(&staged.report()),
                    report_to_string(&oracle.report()),
                    "row {at}, feed {feed_size}"
                );
                let taken = match got {
                    Ok(_) => batch.len(),
                    Err(_) => {
                        errors += 1;
                        (staged.points_seen() - before) as usize + 1
                    }
                };
                rest = &rest[taken..];
            }
            assert!(staged.points_seen() > 0);
            errors
        }

        fn queries() -> [(&'static str, Query); 4] {
            fn base() -> MdpQueryBuilder {
                MdpQuery::builder().explanation(ExplanationConfig::new(0.01, 3.0))
            }
            fn rule() -> RuleClassifier {
                RuleClassifier::single(0, Comparison::GreaterThan, 100.0)
            }
            [
                ("unsupervised", || base().build().unwrap()),
                ("skip_explanation", || {
                    base().skip_explanation().build().unwrap()
                }),
                ("rule-only", || {
                    base()
                        .supervised_rule(rule())
                        .without_unsupervised()
                        .build()
                        .unwrap()
                }),
                ("rule and unsupervised, outlier rows kept", || {
                    base()
                        .supervised_rule(rule())
                        .retain_outlier_rows()
                        .build()
                        .unwrap()
                }),
            ]
        }

        fn options(decay_period: u64) -> StreamingOptions {
            StreamingOptions {
                reservoir_size: 400,
                decay_rate: 0.2,
                decay_period,
                retrain_period: 700,
                ..StreamingOptions::default()
            }
        }

        #[test]
        fn stage_one_never_refills_a_buffer_stage_two_has_not_written() {
            let mut session = MdpQuery::with_defaults()
                .into_streaming(&options(256))
                .unwrap();
            let points = stream(7, 3 * BLOCK_ROWS);
            let StreamingSession {
                labeler,
                blocks: [first, second],
                ..
            } = &mut session;
            let handoff = Handoff::new(labeler, [first, second], &points);
            let stage = || {
                let mut stage_one = handoff.stage_one.lock().unwrap();
                match handoff.stage_next(&mut stage_one) {
                    Staging::Staged => "staged",
                    Staging::Full => "full",
                    Staging::Finished => "finished",
                }
            };
            assert_eq!((stage(), stage(), stage()), ("staged", "staged", "full"));
            handoff.written.store(1, Ordering::Release);
            assert_eq!((stage(), stage()), ("staged", "finished"));
            assert_eq!(handoff.staged.load(Ordering::Acquire), 3);
        }

        /// Sets a flag when dropped, unwinding too.
        struct SetOnDrop<'a>(&'a AtomicBool);

        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }

        /// Runs `body` while every thread of `pool`, and one thread more,
        /// spins in a task that ends once `body` returns or unwinds.
        fn with_the_pool_held<R>(pool: &Pool, body: impl FnOnce() -> R) -> R {
            let (started, release) = (AtomicUsize::new(0), AtomicBool::new(false));
            std::thread::scope(|threads| {
                let _release = SetOnDrop(&release);
                threads.spawn(|| {
                    pool.scope(|tasks| {
                        // One more than the workers: this thread runs one.
                        for _ in 0..=pool.num_threads() {
                            tasks.spawn(|| {
                                started.fetch_add(1, Ordering::SeqCst);
                                while !release.load(Ordering::SeqCst) {
                                    std::thread::yield_now();
                                }
                            });
                        }
                    })
                });
                while started.load(Ordering::SeqCst) <= pool.num_threads() {
                    std::thread::yield_now();
                }
                body()
            })
        }

        #[test]
        fn a_retrain_on_the_pool_inside_stage_one_does_not_block_the_feed() {
            // Two metrics: the classifier fits FastMCD, which waits on the
            // global pool while the caller holds the labeler (block 0's
            // warm-up retrain). Every pool thread is held, so the feed's
            // stage-one task is still queued when that wait looks for work
            // to run, and the wait runs it on the caller's thread.
            let points: Vec<Point> = stream(11, 3 * BLOCK_ROWS)
                .into_iter()
                .map(|p| Point::new(vec![p.metrics[0], p.metrics[0] * 0.5], p.attributes))
                .collect();
            let query: Query = || MdpQuery::builder().build().unwrap();
            let pool = mb_pool::global();
            with_the_pool_held(pool, || {
                assert_same(Some(pool), query, &options(2_500), &points, usize::MAX);
            });
        }

        #[test]
        fn a_stage_one_task_taken_up_by_another_scope_wait_returns_at_once() {
            let pool = Pool::new(1);
            let mut session = MdpQuery::with_defaults()
                .into_streaming(&options(2_500))
                .unwrap();
            let points = stream(5, 3 * BLOCK_ROWS);
            let StreamingSession {
                labeler,
                blocks: [first, second],
                ..
            } = &mut session;
            let handoff = Handoff::new(labeler, [first, second], &points);
            let finished = AtomicBool::new(false);
            std::thread::scope(|threads| {
                // Were the task to stage, it would wait for buffers no one
                // writes: stop it after a while so the test fails, not hangs.
                threads.spawn(|| {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !finished.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    handoff.done.store(true, Ordering::Release);
                });
                let _finished = SetOnDrop(&finished);
                with_the_pool_held(&pool, || {
                    // The pool's thread is held: only this wait can run it.
                    pool.scope(|tasks| tasks.spawn(|| handoff.stage_ahead()));
                });
            });
            assert_eq!(handoff.staged.load(Ordering::Acquire), 0);
        }

        #[test]
        fn a_feed_runs_its_stages_inline_without_two_pool_threads_for_each_feed() {
            let pool = Pool::new(2);
            let mut session = MdpQuery::with_defaults()
                .into_streaming(&options(2_500))
                .unwrap();
            // With another feed in flight, two feeds would want four threads.
            let _other = InFlight::enter();
            session.feed_on(&pool, &stream(3, 3 * BLOCK_ROWS)).unwrap();
            assert_eq!(pool.total_stats().tasks_executed, 0);
        }

        #[test]
        fn the_two_stage_feed_matches_the_point_at_a_time_loop() {
            let clean = stream(32, 4 * BLOCK_ROWS + 300);
            let points = with_errors(&clean);
            // A period below one block puts several boundaries in a block,
            // one of them on the block's last row (256 divides 1,024).
            let pools = [Pool::new(1), Pool::new(2)];
            for decay_period in [256, 2_500] {
                // No pool: every feed runs its stages inline.
                for pool in [None, Some(&pools[0]), Some(&pools[1])] {
                    for (name, query) in queries() {
                        let sizes = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, usize::MAX];
                        for feed_size in sizes {
                            let options = options(decay_period);
                            let errors = assert_same(pool, query, &options, &points, feed_size);
                            // Rule-only queries accept the NaN row.
                            assert!(errors >= 3, "{name}: {errors} typed errors");
                        }
                        // One row a call: a short prefix keeps the per-call
                        // reports cheap.
                        let prefix = &points[..BLOCK_ROWS + 40];
                        assert_same(pool, query, &options(decay_period), prefix, 1);
                    }
                }
            }
        }
    }

    #[test]
    fn traced_report_adds_an_explain_span_and_changes_nothing_else() {
        let points: Vec<Point> = (0..12_000)
            .map(|i| {
                let value = if i % 150 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
                Point::simple(value, format!("d{}", if i % 150 == 0 { 99 } else { i % 20 }))
            })
            .collect();
        let render = |traced: bool| {
            let builder = if traced { test_query().traced() } else { test_query() };
            let mut session = builder.build().unwrap().into_streaming(&test_options()).unwrap();
            session.feed(&points).unwrap();
            (session.report(), session.report())
        };
        let (plain, _) = render(false);
        let (mut first, second) = render(true);
        assert!(plain.trace.is_none());
        assert!(!plain.explanations.is_empty());

        let trace = first.trace.take().expect("trace populated");
        assert_eq!(
            crate::wire::report_to_string(&first),
            crate::wire::report_to_string(&plain)
        );
        let span = trace.stage(Stage::Explain.as_str()).expect("explain span");
        assert_eq!(span.batches, 1);
        assert_eq!(span.rows_out as usize, plain.explanations.len());
        assert!(span.rows_in > 0 && span.rows_in <= plain.num_outliers as u64);
        assert!(span.wall_ns > 0);
        assert_eq!(trace.histogram("explain_ns").expect("explain histogram").count, 1);
        // The span accumulates over a session's reports, like `score` does
        // over its points.
        let again = second.trace.expect("trace populated");
        assert_eq!(again.stage(Stage::Explain.as_str()).unwrap().batches, 2);
        assert_eq!(again.histogram("explain_ns").unwrap().count, 2);
    }
}
